//===----------------------------------------------------------------------===//
//
// Output checks for the expansion benchmark (see check.h).
//
//===----------------------------------------------------------------------===//

#include "check.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <vector>

namespace perfbench {

namespace {

/// Parses and prints \p Text in an engine with no macro library. Any
/// macro invocation left in the text is a parse error there.
bool macroFree(const std::string &Name, const std::string &Text,
               std::string &Out, std::string &Why) {
  msq::Engine E;
  msq::ExpandResult R = E.expandUnrecorded(Name, Text);
  if (!R.Success || !R.DiagnosticsText.empty()) {
    Why = Name + " does not parse as plain C: " + R.DiagnosticsText;
    return false;
  }
  Out = std::move(R.Output);
  return true;
}

struct Tok {
  std::string Text;
  bool Ident = false;
};

/// A plain C tokenizer, independent of the engine's lexer: identifiers,
/// numbers, string literals, and single punctuation characters.
std::vector<Tok> tokenize(const std::string &S) {
  std::vector<Tok> Out;
  size_t I = 0;
  while (I < S.size()) {
    unsigned char C = S[I];
    if (std::isspace(C)) {
      ++I;
    } else if (std::isalpha(C) || C == '_') {
      size_t J = I;
      while (J < S.size() && (std::isalnum((unsigned char)S[J]) || S[J] == '_'))
        ++J;
      Out.push_back({S.substr(I, J - I), true});
      I = J;
    } else if (std::isdigit(C)) {
      size_t J = I;
      while (J < S.size() && std::isalnum((unsigned char)S[J]))
        ++J;
      Out.push_back({S.substr(I, J - I), false});
      I = J;
    } else if (C == '"') {
      size_t J = I + 1;
      while (J < S.size() && S[J] != '"')
        J += S[J] == '\\' ? 2 : 1;
      J = std::min(J + 1, S.size());
      Out.push_back({S.substr(I, J - I), false});
      I = J;
    } else {
      Out.push_back({std::string(1, char(C)), false});
      ++I;
    }
  }
  return Out;
}

/// Token equality up to a consistent one-to-one renaming of the
/// identifiers the expansion introduced. The hand expansion spells each
/// of them __fresh_N; every other token must match exactly, so a wrong
/// name substituted anywhere else fails. (Under the default options the
/// only names an expansion introduces are gensyms: hygiene is off.)
bool equalModuloFresh(const std::string &Actual, const std::string &Expected,
                      std::string &Why) {
  std::vector<Tok> A = tokenize(Actual), X = tokenize(Expected);
  std::map<std::string, std::string> Fwd, Back;
  for (size_t I = 0; I != std::max(A.size(), X.size()); ++I) {
    if (I >= A.size() || I >= X.size()) {
      Why = "output and hand expansion differ in length at token " +
            std::to_string(I);
      return false;
    }
    const Tok &a = A[I], &x = X[I];
    bool Renamable = a.Ident && x.Ident && x.Text.rfind("__fresh_", 0) == 0;
    if (!Renamable) {
      if (a.Text != x.Text) {
        Why = "token " + std::to_string(I) + ": output has '" + a.Text +
              "', hand expansion has '" + x.Text + "'";
        return false;
      }
      continue;
    }
    auto F = Fwd.emplace(x.Text, a.Text).first;
    auto B = Back.emplace(a.Text, x.Text).first;
    if (F->second != a.Text || B->second != x.Text) {
      Why = "inconsistent renaming of '" + x.Text + "' / '" + a.Text + "'";
      return false;
    }
  }
  return true;
}

} // namespace

bool checkExpanded(const Unit &U, const std::string &Output,
                   const std::string &TwinOutput, std::string &Why) {
  bool Sexpr = U.Base == "sexpr";
  const std::string &COut = Sexpr ? TwinOutput : Output;

  // The C output re-parses with no macro library and prints to the same
  // bytes.
  std::string Reprinted;
  if (!macroFree(U.Name + ".out.c", COut, Reprinted, Why))
    return false;
  if (Reprinted != COut) {
    Why = U.Name + ": re-printing the macro-free parse changed the output";
    return false;
  }

  // It equals the hand expansion, modulo introduced names.
  std::string Hand;
  if (!macroFree(U.Name + ".hand.c", U.Expected, Hand, Why))
    return false;
  if (!equalModuloFresh(COut, Hand, Why)) {
    Why = U.Name + ": " + Why;
    return false;
  }
  if (!Sexpr)
    return true;

  // The S-expression unit expands to the same tree as its C twin. Both
  // expand in one engine, from the same checkpoint, so they share an
  // interner and start from the same gensym counter. (Comparing re-parsed
  // printouts would not do: the C printer adds parentheses for
  // precedence, which re-parse as nodes the S-expression tree lacks.)
  msq::Engine E;
  if (!loadLibrary(E, LibState{})) {
    Why = "library load failed";
    return false;
  }
  msq::Engine::SessionCheckpoint CP = E.checkpoint();
  unsigned Errors = E.context().Diags.errorCount();
  msq::TranslationUnit *S =
      E.expandUnit(E.parseSource({U.Name, U.Source, "sexpr"}));
  E.restoreCheckpoint(CP);
  msq::TranslationUnit *C =
      E.expandUnit(E.parseSource({U.Name + ".twin.c", U.Twin, ""}));
  if (!S || !C || E.context().Diags.errorCount() != Errors) {
    Why = U.Name + ": S-expression unit or its C twin failed to expand";
    return false;
  }
  if (!msq::structurallyEqual(S, C)) {
    Why = U.Name + ": S-expression expansion differs from its C twin";
    return false;
  }
  return true;
}

bool freshExpansion(const LibState &S, const msq::SourceUnit &U,
                    std::string &Output) {
  msq::Engine E;
  if (!loadLibrary(E, S))
    return false;
  msq::ExpandResult R = E.expandUnrecorded(U);
  Output = std::move(R.Output);
  return R.Success;
}

} // namespace perfbench
