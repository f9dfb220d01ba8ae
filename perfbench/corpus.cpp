//===----------------------------------------------------------------------===//
//
// Seeded workload generator for the expansion benchmark (see corpus.h).
//
// Every construct is rendered three ways at once: as C source, as the
// same program in the S-expression base, and as its hand expansion in
// plain C, written from what each macro's definition means. The checker
// compares the engine's output with the hand expansion, so an error in
// either shows up as a failed check rather than as a silently different
// workload.
//
//===----------------------------------------------------------------------===//

#include "corpus.h"

#include "api/StdMacros.h"

#include <cstdint>

namespace perfbench {

namespace {

//===----------------------------------------------------------------------===//
// The benchmark's macro library
//===----------------------------------------------------------------------===//

// The loop and logging macros of examples/macros/, copied so that editing
// an example cannot change a workload.
const char *LoopsLib = R"(/* Loop macros (as examples/macros/loops.c). */
syntax stmt times {| ( $$exp::count ) $$stmt::body |}
{
    @id i = gensym("times");
    return `{
        int $i;
        for ($i = 0; $i < $count; $i = $i + 1)
            $body;
    };
}

syntax stmt countdown {| ( $$exp::count ) $$stmt::body |}
{
    @id i = gensym("down");
    return `{
        int $i;
        for ($i = $count - 1; $i >= 0; $i = $i - 1)
            $body;
    };
}
)";

const char *LogIfLib = R"(/* Logging macros (as examples/macros/logging.c). */
syntax stmt log_if {| ( $$exp::cond ) $$exp::msg |}
{
    return `{ if ($cond) emit_log($msg); };
}
)";

const char *LogValueLib = R"(
syntax stmt log_value {| ( $$exp::value ) |}
{
    @id tmp = gensym("logv");
    return `{
        {
            int $tmp;
            $tmp = $value;
            emit_log($tmp);
        }
    };
}
)";

const char *MetaLib = R"(/* Meta-heavy macros: compile-time tables, list recursion, and
   window-procedure style accumulation across invocations. */
metadcl @id msg_names[];
metadcl @stmt msg_bodies[];

/* @num literals carry no arithmetic; recover the integer by search. */
int num_value(@num v)
{
    int k;
    k = 0;
    while (make_num(k) != v)
        k = k + 1;
    return k;
}

/* A lookup function over the Collatz stopping times of
   start .. start+n-1, computed at expansion time. */
syntax decl collatz_table {| $$id::name ( $$num::start_lit , $$num::n_lit ) ; |}
{
    @stmt cases[];
    int start;
    int n;
    int i;
    int x;
    int steps;
    start = num_value(start_lit);
    n = num_value(n_lit);
    i = 0;
    while (i < n) {
        x = start + i;
        steps = 0;
        while (x != 1) {
            if (x % 2 == 0)
                x = x / 2;
            else
                x = 3 * x + 1;
            steps = steps + 1;
        }
        cases = append(cases, list(`{| stmt :: case $(make_num(i)): return $(make_num(steps)); |}));
        i = i + 1;
    }
    return `[int $name(int k)
    {
        switch (k) {
            $cases
        }
        return -1;
    }];
}

@stmt[] rank_cases(@id[] xs, int i)
{
    @stmt rest[];
    if (i >= length(xs))
        return rest;
    rest = rank_cases(xs, i + 1);
    return cons(`{| stmt :: case $(nth(xs, i)): return $(make_num(length(xs) - 1 - i)); |}, rest);
}

/* Reverse rank of each listed name, built by recursion over the list. */
syntax decl rank_of {| $$id::name { $$+/, id::items } ; |}
{
    @stmt cases[];
    cases = rank_cases(items, 0);
    return `[int $name(int v)
    {
        switch (v) {
            $cases
        }
        return -1;
    }];
}

syntax stmt zero_all {| ( $$+/, id::vars ) |}
{
    @stmt sets[];
    sets = map(lambda (@id v) `{| stmt :: $v = 0; |}, vars);
    return `{ $sets; };
}

syntax decl on_msg[] {| ( $$id::message ) $$stmt::body |}
{
    @decl none[];
    msg_names = append(msg_names, list(message));
    msg_bodies = append(msg_bodies, list(body));
    return none;
}

syntax decl emit_dispatch {| $$id::name ; |}
{
    @stmt cases[];
    int i;
    i = 0;
    while (i < length(msg_names)) {
        cases = append(cases, list(`{| stmt :: case $(msg_names[i]): { $(msg_bodies[i]) break; } |}));
        i = i + 1;
    }
    return `[int $name(int message)
    {
        switch (message) {
            $cases
        }
        return 0;
    }];
}

syntax exp seeded {| ( $$num::k ) |}
{
    return make_num(seed_base * 7 + num_value(k));
}
)";

std::string guardedLib(int Variant) {
  std::string Cond = Variant == 0 ? "ok" : "ok_" + std::to_string(Variant);
  return "syntax stmt guarded {| ( $$exp::e ) |}\n{\n    return `{ if (" +
         Cond + ") { $e; } };\n}\n";
}

std::string probeLib(int Variant) {
  if (Variant == 0)
    return "syntax stmt probe {| ( $$exp::e ) |}\n{\n"
           "    return `{ probe_hit($e); };\n}\n";
  return "syntax stmt probe {| ( $$exp::v ) |}\n{\n"
         "    return `{ probe_hit($v, 1); };\n}\n";
}

std::string spareLib(bool Present) {
  if (!Present)
    return "/* spare: removed */\n";
  return "syntax stmt spare {| ( $$exp::e ) |}\n{\n"
         "    return `{ spare_hit($e); };\n}\n";
}

//===----------------------------------------------------------------------===//
// Three-way rendering
//===----------------------------------------------------------------------===//

/// One construct as C source, S-expression source, and hand expansion.
struct Tri {
  std::string C, S, X;
  /// X is a bare conditional: the printer parenthesizes it only as the
  /// operand of a binary operator.
  bool Cond = false;
};

/// The hand expansion of \p T as the operand of a binary operator.
std::string opX(const Tri &T) { return T.Cond ? "(" + T.X + ")" : T.X; }

Tri same(const std::string &T) { return {T, T, T}; }

Tri paren(const Tri &T) {
  return {"(" + T.C + ")", "(paren " + T.S + ")", "(" + T.X + ")"};
}

std::string num(int64_t V) { return std::to_string(V); }

int collatzSteps(int64_t X) {
  int Steps = 0;
  while (X != 1) {
    X = X % 2 == 0 ? X / 2 : 3 * X + 1;
    ++Steps;
  }
  return Steps;
}

/// Which invocations a unit generator may emit.
struct Mix {
  bool Macros = true;
  /// warm-edit units: the one edit target (guarded, probe, spare or
  /// seeded) this unit invokes, once per macro-dense function; "" leaves
  /// guarded in the random mix and invokes no other target.
  std::string Target;
};

class Gen {
public:
  Gen(Rng &R, Unit &U, Mix M) : R(R), U(U), M(M) {}

  /// A whole C-base program: globals and functions interleaved.
  Tri program(unsigned Funcs, unsigned Tag);
  /// A top-level meta-heavy program: compile-time tables, list recursion
  /// and a seeded constant (\p Tables), and/or a metadcl dispatch
  /// (\p Dispatch, which mutates meta globals).
  Tri metaProgram(unsigned Tag, bool Tables, bool Dispatch);

private:
  std::string fresh() { return "__fresh_" + num(Fresh++); }
  void use(const char *Macro) {
    ++U.Invocations;
    U.Uses.insert(Macro);
  }
  const std::string &pick(const std::vector<std::string> &V) {
    return V[R.below(unsigned(V.size()))];
  }

  Tri atom();
  Tri operand(unsigned Depth);
  Tri arith(unsigned Depth);
  Tri cond();
  Tri callExpr();
  Tri plainStmt(unsigned Depth);
  Tri macroStmt(unsigned Depth);
  Tri body(unsigned Depth);
  Tri targetStmt();
  Tri stmt(unsigned Depth, unsigned MacroPercent);
  Tri function(const std::string &Name, unsigned Stmts, unsigned MacroPercent);

  Rng &R;
  Unit &U;
  Mix M;
  unsigned Fresh = 0;
  std::vector<std::string> Vars;     // readable ints in scope
  std::vector<std::string> Locals;   // assignable / swappable locals
};

const std::vector<std::string> CallNames = {"step", "mix", "emit", "touch"};

Tri Gen::atom() {
  if (!Vars.empty() && R.chance(70))
    return same(pick(Vars));
  return same(num(R.range(0, 99)));
}

Tri Gen::operand(unsigned Depth) {
  if (Depth == 0 || R.chance(60))
    return atom();
  if (M.Macros && R.chance(25)) {
    // Single-evaluation min/max/clamp take simple arguments only.
    Tri A = atom(), B = atom();
    switch (R.below(3)) {
    case 0:
      use("min_of");
      return {"min_of(" + A.C + ", " + B.C + ")",
              "(min_of " + A.S + " " + B.S + ")",
              "(" + A.X + ") < (" + B.X + ") ? (" + A.X + ") : (" + B.X + ")",
              true};
    case 1:
      use("max_of");
      return {"max_of(" + A.C + ", " + B.C + ")",
              "(max_of " + A.S + " " + B.S + ")",
              "(" + A.X + ") > (" + B.X + ") ? (" + A.X + ") : (" + B.X + ")",
              true};
    default: {
      Tri X = atom();
      use("clamp_of");
      return {"clamp_of(" + X.C + ", " + A.C + ", " + B.C + ")",
              "(clamp_of " + X.S + " " + A.S + " " + B.S + ")",
              "(" + X.X + ") < (" + A.X + ") ? (" + A.X + ") : ((" + X.X +
                  ") > (" + B.X + ") ? (" + B.X + ") : (" + X.X + "))",
              true};
    }
    }
  }
  return paren(arith(Depth - 1));
}

Tri Gen::arith(unsigned Depth) {
  if (Depth == 0 || R.chance(35))
    return operand(Depth);
  static const char *Ops[] = {"+", "-", "*"};
  std::string Op = Ops[R.below(3)];
  Tri L = operand(Depth - 1), Rt = operand(Depth - 1);
  return {L.C + " " + Op + " " + Rt.C, "(" + Op + " " + L.S + " " + Rt.S + ")",
          opX(L) + " " + Op + " " + opX(Rt)};
}

Tri Gen::cond() {
  static const char *Ops[] = {"<", ">", "<=", ">=", "==", "!="};
  std::string Op = Ops[R.below(6)];
  Tri L = arith(1), Rt = arith(1);
  return {L.C + " " + Op + " " + Rt.C, "(" + Op + " " + L.S + " " + Rt.S + ")",
          opX(L) + " " + Op + " " + opX(Rt)};
}

Tri Gen::callExpr() {
  std::string Fn = pick(CallNames);
  Tri A = arith(1);
  if (R.chance(50))
    return {Fn + "(" + A.C + ")", "(call " + Fn + " " + A.S + ")",
            Fn + "(" + A.X + ")"};
  Tri B = arith(1);
  return {Fn + "(" + A.C + ", " + B.C + ")",
          "(call " + Fn + " " + A.S + " " + B.S + ")",
          Fn + "(" + A.X + ", " + B.X + ")"};
}

Tri Gen::plainStmt(unsigned Depth) {
  unsigned K = R.below(Depth == 0 ? 2 : 6);
  switch (K) {
  case 0: {
    const std::string &V = pick(Locals);
    Tri E = arith(2);
    return {V + " = " + E.C + ";", "(= " + V + " " + E.S + ")",
            V + " = " + E.X + ";"};
  }
  case 1: {
    Tri C = callExpr();
    return {C.C + ";", C.S, C.X + ";"};
  }
  case 2: {
    Tri C = cond(), T = plainStmt(Depth - 1);
    if (R.chance(50))
      return {"if (" + C.C + ") " + T.C, "(if " + C.S + " " + T.S + ")",
              "if (" + C.X + ") " + T.X};
    Tri E = plainStmt(Depth - 1);
    // The else branch must not be a bare if (no dangling-else shape).
    return {"if (" + C.C + ") { " + T.C + " } else " + E.C,
            "(if " + C.S + " (begin " + T.S + ") " + E.S + ")",
            "if (" + C.X + ") { " + T.X + " } else " + E.X};
  }
  case 3: {
    Tri C = cond(), B = plainStmt(Depth - 1);
    return {"while (" + C.C + ") " + B.C, "(while " + C.S + " " + B.S + ")",
            "while (" + C.X + ") " + B.X};
  }
  case 4: {
    Tri N = atom(), B = plainStmt(Depth - 1);
    return {"for (i = 0; i < " + N.C + "; i = i + 1) " + B.C,
            "(for (= i 0) (< i " + N.S + ") (= i (+ i 1)) " + B.S + ")",
            "for (i = 0; i < " + N.X + "; i = i + 1) " + B.X};
  }
  default: {
    Tri A = plainStmt(Depth - 1), B = plainStmt(Depth - 1);
    return {"{ " + A.C + " " + B.C + " }", "(begin " + A.S + " " + B.S + ")",
            "{ " + A.X + " " + B.X + " }"};
  }
  }
}

/// A macro body: usually plain, sometimes a nested invocation.
Tri Gen::body(unsigned Depth) {
  if (Depth > 0 && R.chance(25))
    return macroStmt(Depth - 1);
  if (R.chance(30)) {
    Tri A = plainStmt(0), B = plainStmt(0);
    return {"{ " + A.C + " " + B.C + " }", "(begin " + A.S + " " + B.S + ")",
            "{ " + A.X + " " + B.X + " }"};
  }
  return plainStmt(1);
}

Tri Gen::macroStmt(unsigned Depth) {
  unsigned Kinds = M.Target.empty() ? 11 : 9;
  switch (R.below(Kinds)) {
  case 0: {
    Tri C = cond(), B = body(Depth);
    use("unless");
    return {"unless (" + C.C + ") " + B.C, "(unless " + C.S + " " + B.S + ")",
            "{ if (!(" + C.X + ")) " + B.X + " }"};
  }
  case 1: {
    const std::string &V = pick(Locals);
    Tri B = body(Depth);
    use("with_resource");
    return {"with_resource(acquire(" + V + "), release(" + V + ")) " + B.C,
            "(with_resource (call acquire " + V + ") (call release " + V +
                ") " + B.S + ")",
            "{ acquire(" + V + "); " + B.X + " release(" + V + "); }"};
  }
  case 2:
  case 3:
  case 4: {
    // Counted loops: repeat_n (stdlib), times and countdown (loops.c).
    static const char *Names[] = {"repeat_n", "times", "countdown"};
    unsigned Which = R.below(3);
    Tri N = R.chance(70) ? atom() : paren(arith(1));
    Tri B = body(Depth);
    std::string F = fresh();
    use(Names[Which]);
    std::string Loop =
        Which == 2 ? "for (" + F + " = " + N.X + " - 1; " + F + " >= 0; " + F +
                         " = " + F + " - 1) "
                   : "for (" + F + " = 0; " + F + " < " + N.X + "; " + F +
                         " = " + F + " + 1) ";
    return {std::string(Names[Which]) + " (" + N.C + ") " + B.C,
            "(" + std::string(Names[Which]) + " " + N.S + " " + B.S + ")",
            "{ int " + F + "; " + Loop + B.X + " }"};
  }
  case 5: {
    std::string A = pick(Locals), B = pick(Locals);
    while (B == A)
      B = pick(Locals);
    std::string F = fresh();
    use("swap_vars");
    return {"swap_vars " + A + ", " + B + ";",
            "(swap_vars " + A + " " + B + ")",
            "{ int " + F + "; " + F + " = " + A + "; " + A + " = " + B + "; " +
                B + " = " + F + "; }"};
  }
  case 6: {
    // The body is copied once per item, so it stays macro-free: how
    // copies of one invocation are numbered is not part of the contract.
    unsigned N = R.range(2, 4);
    std::vector<Tri> Items;
    for (unsigned I = 0; I != N; ++I)
      Items.push_back(atom());
    const std::string &Acc = pick(Locals);
    Tri Bd = {Acc + " = " + Acc + " + k;", "(= " + Acc + " (+ " + Acc + " k))",
              Acc + " = " + Acc + " + k;"};
    use("foreach_of");
    Tri Out = {"foreach_of k in (", "(foreach_of k (", "{ "};
    for (unsigned I = 0; I != N; ++I) {
      Out.C += (I ? ", " : "") + Items[I].C;
      Out.S += (I ? " " : "") + Items[I].S;
      Out.X += "{ { int k; k = " + Items[I].X + "; " + Bd.X + " } } ";
    }
    Out.C += ") " + Bd.C;
    Out.S += ") " + Bd.S + ")";
    Out.X += "}";
    return Out;
  }
  case 7: {
    Tri C = cond();
    static const char *Msgs[] = {"\"hot\"", "\"cold\"", "\"retry\""};
    std::string Msg = Msgs[R.below(3)];
    use("log_if");
    return {"log_if (" + C.C + ") " + Msg + ";",
            "(log_if " + C.S + " " + Msg + ")",
            "{ if (" + C.X + ") emit_log(" + Msg + "); }"};
  }
  case 8: {
    Tri E = arith(1);
    std::string F = fresh();
    use("log_value");
    return {"log_value (" + E.C + ");", "(log_value " + E.S + ")",
            "{ { int " + F + "; " + F + " = " + E.X + "; emit_log(" + F +
                "); } }"};
  }
  default: {
    Tri C = callExpr();
    use("guarded");
    return {"guarded(" + C.C + ");", "(guarded " + C.S + ")",
            "{ if (ok) { " + C.X + "; } }"};
  }
  }
}

/// One invocation of the unit's edit target. The hand expansion is left
/// empty: warm-edit units are checked against a fresh engine, because
/// what the targets mean changes with every edit.
Tri Gen::targetStmt() {
  Tri E = atom();
  use(M.Target.c_str());
  if (M.Target == "guarded")
    return {"guarded(step(" + E.C + "));", "(guarded (call step " + E.S + "))",
            ""};
  if (M.Target == "seeded") {
    std::string K = num(R.range(0, 40));
    return {"t = seeded(" + K + ") + " + E.C + ";",
            "(= t (+ (seeded " + K + ") " + E.S + "))", ""};
  }
  // probe, and spare (an ordinary call while the library drops it).
  return {M.Target + "(" + E.C + ");", "(" + M.Target + " " + E.S + ")", ""};
}

Tri Gen::stmt(unsigned Depth, unsigned MacroPercent) {
  if (M.Macros && R.chance(MacroPercent))
    return macroStmt(Depth);
  return plainStmt(Depth);
}

Tri Gen::function(const std::string &Name, unsigned Stmts,
                  unsigned MacroPercent) {
  Vars = {"a", "b", "t", "r", "u", "acc"};
  Locals = {"t", "r", "u", "acc"};
  Tri Out = {"int " + Name + "(int a, int b)\n{\n",
             "(defun int " + Name + " ((int a) (int b))\n",
             "int " + Name + "(int a, int b)\n{\n"};
  for (const char *L : {"i", "t", "r", "u", "acc"}) {
    Out.C += std::string("    int ") + L + ";\n";
    Out.S += std::string("  (var int ") + L + ")\n";
    Out.X += std::string("    int ") + L + ";\n";
  }
  for (unsigned I = 0; I <= Stmts; ++I) {
    Tri S;
    if (I < Stmts)
      S = stmt(2, MacroPercent);
    else if (MacroPercent && !M.Target.empty())
      S = targetStmt();
    else
      break;
    Out.C += "    " + S.C + "\n";
    Out.S += "  " + S.S + "\n";
    Out.X += "    " + S.X + "\n";
  }
  Tri Ret = arith(2);
  Out.C += "    return " + Ret.C + ";\n}\n";
  Out.S += "  (return " + Ret.S + "))\n";
  Out.X += "    return " + Ret.X + ";\n}\n";
  return Out;
}

Tri Gen::program(unsigned Funcs, unsigned Tag) {
  Tri Out;
  for (unsigned F = 0; F != Funcs; ++F) {
    if (F % 2 == 0) {
      std::string G = "g" + num(Tag) + "_" + num(F);
      Out.C += "int " + G + ";\n";
      Out.S += "(var int " + G + ")\n";
      Out.X += "int " + G + ";\n";
    }
    // Ordinary functions interleaved with macro-dense ones.
    bool Dense = F % 3 != 2;
    Tri Fn = function("f" + num(Tag) + "_" + num(F), Dense ? 8 : 6,
                      Dense ? 65 : 0);
    Out.C += Fn.C;
    Out.S += Fn.S;
    Out.X += Fn.X;
  }
  return Out;
}

Tri Gen::metaProgram(unsigned Tag, bool Tables, bool Dispatch) {
  Tri Out;
  std::string P = "m" + num(Tag) + "_";
  auto append = [&Out](const Tri &T) {
    Out.C += T.C + "\n";
    Out.S += T.S + "\n";
    Out.X += T.X + "\n";
  };
  for (const char *G : {"x", "y", "z"})
    append({"int " + P + G + ";", "(var int " + P + G + ")",
            "int " + P + G + ";"});

  // Compile-time tables.
  for (unsigned T = 0; Tables && T != 2; ++T) {
    int Start = R.range(60, 180), N = R.range(24, 32);
    std::string Name = P + "collatz" + num(T);
    use("collatz_table");
    Tri Tb = {"collatz_table " + Name + " (" + num(Start) + ", " + num(N) +
                  ");",
              "(collatz_table " + Name + " " + num(Start) + " " + num(N) + ")",
              "int " + Name + "(int k) { switch (k) { "};
    for (int I = 0; I != N; ++I)
      Tb.X += "case " + num(I) + ": return " + num(collatzSteps(Start + I)) +
              "; ";
    Tb.X += "} return -1; }";
    append(Tb);
  }

  // List recursion: reverse ranks.
  if (Tables) {
    unsigned N = R.range(10, 14);
    std::string Name = P + "rank";
    use("rank_of");
    Tri Rk = {"rank_of " + Name + " { ", "(rank_of " + Name + " (",
              "int " + Name + "(int v) { switch (v) { "};
    for (unsigned I = 0; I != N; ++I) {
      std::string Id = P + "K" + num(I);
      Rk.C += (I ? ", " : "") + Id;
      Rk.S += (I ? " " : "") + Id;
      Rk.X += "case " + Id + ": return " + num(N - 1 - I) + "; ";
    }
    Rk.C += " };";
    Rk.S += "))";
    Rk.X += "} return -1; }";
    append(Rk);
  }

  // map over an identifier list inside an ordinary function.
  if (Tables) {
    unsigned N = R.range(5, 7);
    use("zero_all");
    Tri Fn = {"void " + P + "reset(void)\n{\n",
              "(defun void " + P + "reset ()\n",
              "void " + P + "reset(void)\n{\n"};
    Tri Z = {"    zero_all (", "  (zero_all (", "    { "};
    for (unsigned I = 0; I != N; ++I) {
      std::string V = P + "v" + num(I);
      Fn.C += "    int " + V + ";\n";
      Fn.S += "  (var int " + V + ")\n";
      Fn.X += "    int " + V + ";\n";
      Z.C += (I ? ", " : "") + V;
      Z.S += (I ? " " : "") + V;
      Z.X += V + " = 0; ";
    }
    Fn.C += Z.C + ");\n}";
    Fn.S += Z.S + ")))";
    Fn.X += Z.X + "}\n}";
    append(Fn);
  }

  // Seeded constant (reads a meta global).
  if (Tables) {
    int K = R.range(0, 60);
    use("seeded");
    append({"int " + P + "seed = seeded(" + num(K) + ");",
            "(var int " + P + "seed (seeded " + num(K) + "))",
            "int " + P + "seed = " + num(seedValue(0) * 7 + K) + ";"});
  }

  // Distributed dispatch: handlers accumulate in metadcl globals and are
  // assembled by emit_dispatch.
  if (Dispatch) {
    U.MutatesGlobals = true;
    unsigned N = R.range(6, 8);
    std::string Cases;
    for (unsigned I = 0; I != N; ++I) {
      std::string Msg = P + "MSG" + num(R.range(0, 999));
      Tri B;
      std::string G = P + (I % 2 ? "x" : "y");
      if (R.chance(50))
        B = {"{ " + G + " = " + num(I) + "; }",
             "(begin (= " + G + " " + num(I) + "))",
             "{ " + G + " = " + num(I) + "; }"};
      else
        B = {G + " = " + G + " + " + num(I) + ";",
             "(= " + G + " (+ " + G + " " + num(I) + "))",
             G + " = " + G + " + " + num(I) + ";"};
      use("on_msg");
      append({"on_msg (" + Msg + ") " + B.C, "(on_msg " + Msg + " " + B.S + ")",
              ""});
      Cases += "case " + Msg + ": { " + B.X + " break; } ";
    }
    use("emit_dispatch");
    append({"emit_dispatch " + P + "dispatch;", "(emit_dispatch " + P +
                                                    "dispatch)",
            "int " + P + "dispatch(int message) { switch (message) { " +
                Cases + "} return 0; }"});
  }
  return Out;
}

Unit makeUnit(const std::string &Stem, bool Sexpr) {
  Unit U;
  U.Name = Stem + (Sexpr ? ".sexp" : ".c");
  U.Base = Sexpr ? "sexpr" : "";
  return U;
}

void finish(Unit &U, const Tri &T) {
  if (U.Base == "sexpr") {
    U.Source = T.S;
    U.Twin = T.C;
  } else {
    U.Source = T.C;
  }
  U.Expected = T.X;
}

} // namespace

std::string LibState::key() const {
  return std::to_string(Guarded) + std::to_string(Probe) +
         std::to_string(int(Spare)) + std::to_string(Seed) +
         std::to_string(Spacing);
}

int seedValue(int SeedIndex) { return SeedIndex == 0 ? 3 : 8; }

std::vector<msq::SourceUnit> libraryUnits(const LibState &S) {
  std::string Logging = std::string(LogIfLib) +
                        (S.Spacing ? "\n\n    \n" : "") + LogValueLib;
  return {
      {"<msq-stdlib>", msq::standardMacroLibrarySource(), ""},
      {"loops.c", LoopsLib, ""},
      {"logging.c", Logging, ""},
      {"guarded.c", guardedLib(S.Guarded), ""},
      {"probe.c", probeLib(S.Probe), ""},
      {"spare.c", spareLib(S.Spare), ""},
      {"seed.c", "metadcl int seed_base = " + std::to_string(seedValue(S.Seed)) +
                     ";\n",
       ""},
      {"meta.c", MetaLib, ""},
  };
}

bool loadLibrary(msq::Engine &E, const LibState &S) {
  std::vector<msq::SourceUnit> Lib = libraryUnits(S);
  if (!E.loadStandardLibrary())
    return false;
  for (size_t I = 1; I != Lib.size(); ++I)
    if (!E.expandSource(Lib[I]).Success)
      return false;
  return true;
}

std::vector<Unit> coldCorpus(uint64_t Seed, unsigned Count) {
  Rng R(Seed * 1000003 + 1);
  std::vector<Unit> Out;
  for (unsigned I = 0; I != Count; ++I) {
    Unit U = makeUnit("cold_" + std::to_string(I), I % SexprEvery ==
                                                      SexprEvery - 1);
    Gen G(R, U, Mix{});
    finish(U, G.program(7, I));
    Out.push_back(std::move(U));
  }
  return Out;
}

std::vector<Unit> metaCorpus(uint64_t Seed, unsigned Count) {
  Rng R(Seed * 1000003 + 2);
  std::vector<Unit> Out;
  for (unsigned I = 0; I != Count; ++I) {
    Unit U = makeUnit("meta_" + std::to_string(I), I % SexprEvery ==
                                                      SexprEvery - 1);
    Gen G(R, U, Mix{});
    finish(U, G.metaProgram(I, true, I % 3 != 2));
    Out.push_back(std::move(U));
  }
  return Out;
}

std::vector<Unit> warmCorpus(uint64_t Seed, unsigned Count) {
  Rng R(Seed * 1000003 + 3);
  std::vector<Unit> Out;
  for (unsigned I = 0; I != Count; ++I) {
    bool Sexpr = I % SexprEvery == SexprEvery - 1;
    Unit U = makeUnit("warm_" + std::to_string(I), Sexpr);
    // Every fifth unit is a meta unit: alternately one with compile-time
    // tables and one with a metadcl dispatch (which mutates meta globals,
    // so it re-expands on every run); two in twenty are macro-free; each
    // other unit invokes one edit target, so every library edit reaches
    // about a quarter of the set.
    static const char *Targets[] = {"guarded", "probe", "spare", "seeded"};
    Mix M;
    if (I % 5 == 2) {
      bool Tables = (I / 5) % 2 == 0;
      Gen G(R, U, M);
      finish(U, G.metaProgram(I, Tables, !Tables));
    } else {
      M.Macros = I % 10 != 4;
      if (M.Macros)
        M.Target = Targets[I % 4];
      Gen G(R, U, M);
      finish(U, G.program(4, I));
    }
    // The hand expansion does not cover the edit targets, whose meaning
    // changes with every edit: warm units are checked against a fresh
    // engine instead.
    U.Expected.clear();
    Out.push_back(std::move(U));
  }
  return Out;
}

std::string toggleUnitEdit(const Unit &U, bool Edited) {
  if (!Edited)
    return U.Source;
  return U.Source + (U.Base == "sexpr" ? "; edited\n" : "/* edited */\n");
}

} // namespace perfbench
