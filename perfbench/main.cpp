//===----------------------------------------------------------------------===//
//
// Expansion benchmark: one workload per process, inputs generated from a
// seed, expanded through the public Engine / IncrementalDriver API with
// the engine's default options.
//
//   msq_perfbench --workload cold-expand|meta-heavy|warm-edit
//                 --seed N --seconds S --trace 0|1 [--spans FILE]
//
// The last line of standard output is one JSON object:
//   {"correct":B,"attempted":N,"failed":N,"metrics":{NAME:{"value":V,
//    "unit":U},...}}
// With --trace 0 it holds the end-to-end metrics, with --trace 1 the
// per-layer ones (README.md lists both and which moves which).
//
// The host this was written on drifts between fast and slow phases that
// last seconds, so every end-to-end time is a total over the whole timed
// phase (never a median of short repetitions) expressed in calibrated
// seconds (see Calibration), the timed phase runs on one thread with no
// I/O, and per-operation state is bounded: each unit expands from a
// restored checkpoint, a fresh engine takes over every few units, and
// each block of edit rounds starts from a fresh incremental driver.
//
//===----------------------------------------------------------------------===//

#include "check.h"
#include "corpus.h"

#include "api/Msq.h"
#include "driver/Incremental.h"
#include "lexer/Lexer.h"
#include "synbase/SyntaxBase.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <malloc.h>
#include <sys/mman.h>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now().time_since_epoch())
                      .count());
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

struct Result {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  void fail(const std::string &Why) {
    if (Correct)
      std::fprintf(stderr, "check failed: %s\n", Why.c_str());
    Correct = false;
  }
  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
};

void printResult(const Result &R) {
  std::string J = std::string("{\"correct\": ") +
                  (R.Correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(R.Attempted) +
                  ", \"failed\": " + std::to_string(R.Failed) +
                  ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof Buf, "%.9g", R.Metrics[I].Value);
    J += (I ? ", \"" : "\"") + R.Metrics[I].Name + "\": {\"value\": " + Buf +
         ", \"unit\": \"" + R.Metrics[I].Unit + "\"}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
}

/// Peak resident memory of this process image. getrusage's ru_maxrss is
/// no good here: Linux carries the high-water mark of the pre-exec image
/// across execve, so under a launcher it reports the launcher's memory.
/// VmHWM belongs to the current address space only.
double peakRssMiB() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  return 0;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// In-memory span log of the traced run, written out once at the end.
/// Spans are recorded by the benchmark around the public calls it makes;
/// Op groups the spans of one unit (or one edit round).
class Tracer {
public:
  struct Span {
    const char *Name;
    uint64_t Start, End;
    uint32_t Parent, Op;
  };

  explicit Tracer(bool On) : On(On) {
    if (On)
      Spans.reserve(1 << 16);
  }
  size_t size() const { return Spans.size(); }

  uint32_t open(const char *Name, uint32_t Parent, uint32_t Op) {
    if (!On)
      return 0;
    Spans.push_back({Name, nowNs(), 0, Parent, Op});
    return uint32_t(Spans.size());
  }
  /// Closes span \p Id and returns its duration in ns.
  uint64_t close(uint32_t Id) {
    if (!On || Id == 0)
      return 0;
    Span &S = Spans[Id - 1];
    S.End = nowNs();
    return S.End - S.Start;
  }

  bool write(const std::string &Path) const {
    std::ofstream OS(Path);
    if (!OS)
      return false;
    uint64_t Base = Spans.empty() ? 0 : Spans.front().Start;
    OS << "{\"spans\": [\n";
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      OS << (I ? ",\n" : "") << "{\"id\": " << I + 1 << ", \"name\": \""
         << S.Name << "\", \"start_ns\": " << S.Start - Base
         << ", \"end_ns\": " << S.End - Base << ", \"parent\": " << S.Parent
         << ", \"op\": " << S.Op << "}";
    }
    OS << "\n]}\n";
    return bool(OS);
  }

private:
  bool On;
  std::vector<Span> Spans;
};

/// Times one call and records it as a span when tracing.
struct Timed {
  Tracer &T;
  uint32_t Id;
  uint64_t Start;
  Timed(Tracer &T, const char *Name, uint32_t Parent, uint32_t Op)
      : T(T), Id(T.open(Name, Parent, Op)), Start(nowNs()) {}
  uint64_t stop() {
    uint64_t D = nowNs() - Start;
    T.close(Id);
    return D;
  }
};

//===----------------------------------------------------------------------===//
// Host calibration
//===----------------------------------------------------------------------===//

/// The sandbox this benchmark was built on runs a single thread at
/// speeds that drift by up to 1.6x in phases lasting from a fraction of a
/// second to minutes; CPU time drifts with wall time, so neither is
/// steady. The benchmark therefore runs a fixed calibration kernel of its
/// own before every group of units and every fourth edit round (never
/// inside a timed interval) and expresses every timed phase in calibrated
/// seconds: the raw total divided by (a power of) the kernel's slowdown
/// against its nominal time. The kernel does what the engine does most --
/// scan text into tokens, intern them in a hash table, build a tree,
/// print it -- without calling the engine. Its buffers live in a private
/// mapping sized in the constructor, and the kernel never allocates or
/// frees, so the engine's heap state cannot move the divisor and a change
/// to the program moves the calibrated figures exactly as it moves the
/// raw ones on a steady host.
class Calibration {
public:
  /// The kernel's time on the reference host in its fast phase; only
  /// scales the figures.
  static constexpr double NominalNs = 7.5e5;

  Calibration() {
    Rng R(3);
    std::string Src;
    for (unsigned I = 0; I != 600; ++I)
      Src += "int handler_" + std::to_string(R.below(5000)) +
             "_value(int alpha, int beta)\n{\n    alpha = beta + " +
             std::to_string(R.below(97)) +
             ";\n    if (alpha < beta) emit_message(alpha);\n}\n";
    // Every buffer lives in one private mapping, sized here: a token is at
    // least one byte and prints with a six-byte suffix, and the hash table
    // has at least twice as many slots as there are tokens. The kernel
    // thus never touches the heap the engine allocates from.
    TextLen = Src.size();
    Slots = 1;
    while (Slots < 2 * TextLen)
      Slots *= 2;
    OutCap = 7 * TextLen;
    Bytes = TextLen + OutCap + sizeof(uint32_t) * (2 * TextLen + Slots +
                                                   3 * TextLen);
    void *P = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (P == MAP_FAILED) {
      std::perror("calibration buffer");
      std::exit(1);
    }
    auto *W = static_cast<uint32_t *>(P);
    Toks = W;
    Table = Toks + 2 * TextLen;
    FirstKid = Table + Slots;
    NextKid = FirstKid + TextLen;
    Stack = NextKid + TextLen;
    Text = reinterpret_cast<char *>(Stack + TextLen);
    Out = Text + TextLen;
    std::memcpy(Text, Src.data(), TextLen);
    kernel(); // first touch of the pages it uses, untimed
  }
  ~Calibration() { munmap(Toks, Bytes); }
  Calibration(const Calibration &) = delete;
  Calibration &operator=(const Calibration &) = delete;

  void sample() {
    uint64_t T0 = nowNs();
    kernel();
    TotalNs += nowNs() - T0;
    ++Samples;
  }
  /// Mean kernel time over nominal: above 1 on a slow host.
  double slowdown() const {
    return Samples ? double(TotalNs) / double(Samples) / NominalNs : 1.0;
  }
  /// The engine's steady-state work slows more than the kernel when the
  /// host slows: over three sets of ten runs per workload, raw rates
  /// tracked slowdown^1.3-1.5, and dividing by slowdown^1.4 left quartile
  /// spreads of 0.01-0.07 where plain division left 0.03-0.14. (The
  /// short cold set-up is not steady-state work; it tracked plain
  /// slowdown best and is divided by that.) On a steady host the
  /// slowdown is constant, so either divisor is a constant factor.
  static constexpr double Exponent = 1.4;
  double calibrated(uint64_t Ns) const {
    return double(Ns) / std::pow(slowdown(), Exponent);
  }
  void reset() { TotalNs = Samples = 0; }

private:
  static constexpr uint32_t None = ~uint32_t(0);

  std::string_view tok(uint32_t I) const {
    return std::string_view(Text + Toks[2 * I], Toks[2 * I + 1]);
  }

  void kernel() {
    // Scan into (start, length) tokens.
    uint32_t N = 0;
    for (size_t I = 0; I < TextLen;) {
      unsigned char C = Text[I];
      if (std::isspace(C)) {
        ++I;
        continue;
      }
      size_t J = I + 1;
      if (std::isalnum(C) || C == '_')
        while (J < TextLen &&
               (std::isalnum((unsigned char)Text[J]) || Text[J] == '_'))
          ++J;
      Toks[2 * N] = uint32_t(I);
      Toks[2 * N + 1] = uint32_t(J - I);
      ++N;
      I = J;
    }
    // Intern: open addressing over token indices, FNV-1a hashing.
    std::fill(Table, Table + Slots, None);
    size_t Distinct = 0;
    for (uint32_t I = 0; I != N; ++I) {
      std::string_view T = tok(I);
      uint64_t H = 1469598103934665603ULL;
      for (char C : T)
        H = (H ^ (unsigned char)C) * 1099511628211ULL;
      for (size_t Slot = H & (Slots - 1);; Slot = (Slot + 1) & (Slots - 1)) {
        if (Table[Slot] == None) {
          Table[Slot] = I;
          ++Distinct;
          break;
        }
        if (tok(Table[Slot]) == T)
          break;
      }
    }
    // Tree: node I hangs under an earlier node picked by hashing.
    std::fill(FirstKid, FirstKid + N, None);
    for (uint32_t I = 1; I < N; ++I) {
      uint32_t P = uint32_t((uint64_t(I) * 2654435761u) % I);
      NextKid[I] = FirstKid[P];
      FirstKid[P] = I;
    }
    // Print depth first.
    size_t OutLen = 0, Depth = 0;
    if (N)
      Stack[Depth++] = 0;
    while (Depth) {
      uint32_t Node = Stack[--Depth];
      std::string_view T = tok(Node);
      std::memcpy(Out + OutLen, T.data(), T.size());
      std::memcpy(Out + OutLen + T.size(), "_node ", 6);
      OutLen += T.size() + 6;
      for (uint32_t K = FirstKid[Node]; K != None; K = NextKid[K])
        Stack[Depth++] = K;
    }
    Sink = OutLen + Distinct;
  }

  size_t TextLen = 0, Slots = 0, OutCap = 0, Bytes = 0;
  uint32_t *Toks = nullptr, *Table = nullptr, *FirstKid = nullptr,
           *NextKid = nullptr, *Stack = nullptr;
  char *Text = nullptr, *Out = nullptr;
  uint64_t TotalNs = 0, Samples = 0;
  volatile size_t Sink = 0;
};

//===----------------------------------------------------------------------===//
// Engines
//===----------------------------------------------------------------------===//

/// An engine with the base library loaded and its checkpoint: every unit
/// expands from that checkpoint, exactly as a fresh msqc run would.
struct LoadedEngine {
  std::unique_ptr<msq::Engine> E;
  msq::Engine::SessionCheckpoint CP;
};

bool loadEngine(LoadedEngine &L) {
  L.E = std::make_unique<msq::Engine>();
  if (!loadLibrary(*L.E, LibState{}))
    return false;
  L.CP = L.E->checkpoint();
  return true;
}

msq::SourceUnit sourceOf(const Unit &U) { return {U.Name, U.Source, U.Base}; }

/// Units expanded per engine before a fresh one is built (untimed). The
/// arena only grows, so this bounds both what a unit's expansion works in
/// and the process's memory.
constexpr size_t UnitsPerEngine = 8;

/// Destroys a retired engine (or incremental driver) and hands its memory
/// back to the system, as the end of an msqc process would, so that the
/// next one faults its arena in afresh. Without the trim, whether it does
/// or reuses the freed heap varies between processes (minor faults per
/// cold-expand unit ranged from 2 to 63 between runs of one seed), and
/// the figures follow that draw rather than the program.
template <class T> void retire(std::unique_ptr<T> &P) {
  P.reset();
  malloc_trim(0);
}

/// Rebuilds \p L when unit \p Index starts a new group.
bool engineFor(LoadedEngine &L, size_t Index) {
  if (Index % UnitsPerEngine != 0)
    return true;
  if (L.E)
    retire(L.E);
  return loadEngine(L);
}

msq::ExpandResult expandApi(LoadedEngine &L, const msq::SourceUnit &U) {
  L.E->restoreCheckpoint(L.CP);
  return L.E->expandUnrecorded(U);
}

//===----------------------------------------------------------------------===//
// cold-expand and meta-heavy
//===----------------------------------------------------------------------===//

/// Per-layer totals of the staged path.
struct Stages {
  uint64_t LexNs = 0, ParseNs = 0, ExpandNs = 0, PrintNs = 0;
  uint64_t ReadNs = 0, SPrintNs = 0;
  uint64_t CTokens = 0, Nodes = 0;
  uint64_t Steps = 0, Gensyms = 0, Produced = 0;
  uint64_t OutBytes = 0, SReadBytes = 0, SOutBytes = 0;
  uint64_t Invocations = 0;
};

/// The engine's expansion split into its public stages (lex -> parse ->
/// expand -> print, or sexpr read -> expand -> sexpr print), each one a
/// span. Mirrors Engine::expandUnrecorded with the engine's options, so
/// the result must be byte-equal to it.
bool stagedExpand(LoadedEngine &L, const Unit &U, Tracer &T, uint32_t Op,
                  uint32_t Parent, Stages &S, std::string &Out) {
  msq::Engine &E = *L.E;
  E.restoreCheckpoint(L.CP);
  msq::CompilationContext &CC = E.context();
  msq::Interpreter &I = E.interpreter();
  const msq::Engine::Options &O = E.options();
  unsigned Errors = CC.Diags.errorCount();
  bool Sexpr = U.Base == "sexpr";
  const msq::SyntaxBase &SB =
      Sexpr ? msq::sexprSyntaxBase() : msq::cSyntaxBase();
  I.beginUnit(O.MaxMetaSteps, O.UnitTimeoutMillis, U.Name);
  uint32_t Buf = E.sourceManager().addBuffer(U.Name, U.Source);
  msq::SyntaxBase::ParseOptions PO;
  PO.UseCompiledPatterns = O.UseCompiledPatterns;

  msq::TranslationUnit *TU = nullptr;
  if (Sexpr) {
    Timed R(T, "sexpr.read", Parent, Op);
    TU = SB.parseUnit(CC, Buf, PO, nullptr);
    S.ReadNs += R.stop();
    S.SReadBytes += U.Source.size();
  } else {
    Timed Lx(T, "lexer", Parent, Op);
    msq::Lexer Lex(Buf, CC.SM.bufferContents(Buf), CC.Interner, CC.Diags);
    std::vector<msq::Token> Toks = Lex.lexAll();
    S.LexNs += Lx.stop();
    S.CTokens += Toks.size();
    Timed P(T, "parser", Parent, Op);
    TU = SB.parseUnitFromTokens(CC, std::move(Toks), PO);
    S.ParseNs += P.stop();
  }
  if (!TU || CC.Diags.errorCount() != Errors)
    return false;
  S.Nodes += msq::countNodes(TU);

  size_t Steps0 = I.stepsExecuted(), Gensyms0 = I.gensymCount();
  msq::Expander::Options EO;
  EO.MaxExpansionDepth = O.MaxExpansionDepth;
  EO.CollectProfile = O.CollectProfile;
  Timed X(T, "expand", Parent, Op);
  msq::Expander Exp(CC, I, EO);
  msq::TranslationUnit *Expanded = Exp.expandTranslationUnit(TU);
  S.ExpandNs += X.stop();
  S.Steps += I.stepsExecuted() - Steps0;
  S.Gensyms += I.gensymCount() - Gensyms0;
  S.Produced += Exp.stats().NodesProduced;
  S.Invocations += U.Invocations;
  CC.Diags.setProvenanceFrame(0);
  if (CC.Diags.errorCount() != Errors)
    return false;

  msq::PrintOptions PrO;
  PrO.AllowPlaceholders = false;
  Timed P(T, Sexpr ? "sexpr.print" : "printer", Parent, Op);
  Out = SB.print(Expanded, PrO);
  (Sexpr ? S.SPrintNs : S.PrintNs) += P.stop();
  (Sexpr ? S.SOutBytes : S.OutBytes) += Out.size();
  return true;
}

/// Expands every unit once (untimed) and checks it; returns the outputs
/// the timed phase is byte-compared against.
std::vector<std::string> referencePass(const std::vector<Unit> &Units,
                                       Result &Res) {
  std::vector<std::string> Ref;
  LoadedEngine L;
  for (size_t I = 0; I != Units.size(); ++I) {
    const Unit &U = Units[I];
    if (!engineFor(L, I)) {
      Res.fail("library load failed");
      break;
    }
    msq::ExpandResult R = expandApi(L, sourceOf(U));
    std::string Twin;
    if (!U.Twin.empty()) {
      msq::ExpandResult TR = expandApi(L, {U.Name + ".twin.c", U.Twin, ""});
      if (!TR.Success)
        Res.fail(U.Name + " (C twin): " + TR.DiagnosticsText);
      Twin = TR.Output;
    }
    std::string Why;
    if (!R.Success)
      Res.fail(U.Name + ": " + R.DiagnosticsText);
    else if (!checkExpanded(U, R.Output, Twin, Why))
      Res.fail(Why);
    Ref.push_back(std::move(R.Output));
  }
  return Ref;
}

//===----------------------------------------------------------------------===//
// Edit rounds (warm-edit, and the driver layer of every traced run)
//===----------------------------------------------------------------------===//

enum class EditKind { Body, Pattern, AddRemove, MetaSeed, Whitespace, Unit };
constexpr unsigned NumEditKinds = 6;
constexpr unsigned RoundsPerBlock = 48;

struct Edit {
  EditKind K;
  unsigned UnitIndex = 0;
};

/// The seeded edit sequence of one block: every edit kind the same
/// number of times, in seeded order, and unit edits spread over distinct
/// units. Every block replays it from the base library, so blocks are
/// interchangeable.
std::vector<Edit> editSequence(uint64_t Seed, size_t NumUnits) {
  Rng R(Seed * 7919 + 11);
  std::vector<Edit> Out;
  for (unsigned I = 0; I != RoundsPerBlock; ++I)
    Out.push_back({EditKind(I % NumEditKinds)});
  for (size_t I = Out.size(); I > 1; --I)
    std::swap(Out[I - 1], Out[R.below(unsigned(I))]);
  std::vector<unsigned> Order(NumUnits);
  for (unsigned I = 0; I != NumUnits; ++I)
    Order[I] = I;
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[R.below(unsigned(I))]);
  unsigned Next = 0;
  for (Edit &E : Out)
    if (E.K == EditKind::Unit)
      E.UnitIndex = Order[Next++ % NumUnits];
  return Out;
}

/// True when an edit can change what \p U expands to, or when the
/// driver cannot tell that it does not. A pattern-level edit (a pattern
/// changed, a macro added or removed) dirties units whose source tokens
/// mention the macro; the S-expression base has no token layer, so the
/// driver re-expands all of its units from scratch.
bool reaches(const Edit &E, const Unit &U, unsigned Index) {
  if ((E.K == EditKind::Pattern || E.K == EditKind::AddRemove) &&
      U.Base == "sexpr")
    return true;
  switch (E.K) {
  case EditKind::Body:
    return U.Uses.count("guarded");
  case EditKind::Pattern:
    return U.Uses.count("probe");
  case EditKind::AddRemove:
    return U.Uses.count("spare");
  case EditKind::MetaSeed:
    return U.Uses.count("seeded");
  case EditKind::Whitespace:
    return false;
  case EditKind::Unit:
    return Index == E.UnitIndex;
  }
  return true;
}

struct DriverTotals {
  uint64_t Rounds = 0, SetLibraryNs = 0, SetLibraryCalls = 0, RunNs = 0;
  uint64_t Paths[4] = {0, 0, 0, 0}; // clean, tree, token, cold
  uint64_t TokenHits = 0, TreeHits = 0;
  uint64_t Blocks = 0;
};

/// Runs one block of edit rounds on a fresh incremental driver. Only
/// setLibrary and run are timed; priming, reference expansions and
/// checks are not. Returns the timed ns.
class EditSession {
public:
  EditSession(const std::vector<Unit> &Units, uint64_t Seed)
      : Units(Units), Edits(editSequence(Seed, Units.size())) {}

  /// Builds a fresh driver on the base library and primes it with one
  /// cold pass over every unit. checkPrime() checks that pass; it is
  /// separate so that the check stays out of the timed set-up.
  void prime() {
    State = LibState{};
    EditedUnit.assign(Units.size(), false);
    if (D)
      retire(D);
    D = std::make_unique<msq::IncrementalDriver>();
    D->setLibrary(libraryUnits(State));
    Primed = D->run(currentUnits());
  }
  bool checkPrime(Result &Res) { return checkRound(Primed, nullptr, Res); }

  /// Samples \p Cal (when given) before every fourth round.
  uint64_t block(Tracer &T, uint32_t &Op, DriverTotals &Tot, Result &Res,
                 Calibration *Cal = nullptr) {
    uint64_t Busy = 0;
    msq::SubUnitCacheStats Before = D->subUnitStats();
    for (size_t I = 0; I != Edits.size(); ++I) {
      const Edit &E = Edits[I];
      if (Cal && I % 4 == 0)
        Cal->sample();
      bool LibraryChanged = apply(E);
      std::vector<msq::SourceUnit> Lib;
      if (LibraryChanged)
        Lib = libraryUnits(State);
      std::vector<msq::SourceUnit> Srcs = currentUnits();
      ++Op;
      Timed Round(T, "driver.round", 0, Op);
      if (LibraryChanged) {
        Timed SL(T, "driver.set_library", Round.Id, Op);
        D->setLibrary(std::move(Lib));
        Tot.SetLibraryNs += SL.stop();
        ++Tot.SetLibraryCalls;
      }
      Timed Run(T, "driver.run", Round.Id, Op);
      msq::IncrementalResult R = D->run(Srcs);
      Tot.RunNs += Run.stop();
      Busy += Round.stop();
      ++Tot.Rounds;
      ++Res.Attempted;
      if (!checkRound(R, &E, Res))
        ++Res.Failed;
      Tot.Paths[0] += R.CleanReplays;
      Tot.Paths[1] += R.TreeReuses;
      Tot.Paths[2] += R.TokenReuses;
      Tot.Paths[3] += R.ColdExpansions;
    }
    const msq::SubUnitCacheStats &After = D->subUnitStats();
    Tot.TokenHits += After.TokenHits - Before.TokenHits;
    Tot.TreeHits += After.TreeHits - Before.TreeHits;
    ++Tot.Blocks;
    return Busy;
  }

private:
  /// Applies one edit; true when it changed the library.
  bool apply(const Edit &E) {
    switch (E.K) {
    case EditKind::Body:
      State.Guarded ^= 1;
      return true;
    case EditKind::Pattern:
      State.Probe ^= 1;
      return true;
    case EditKind::AddRemove:
      State.Spare = !State.Spare;
      return true;
    case EditKind::MetaSeed:
      State.Seed ^= 1;
      return true;
    case EditKind::Whitespace:
      State.Spacing ^= 1;
      return true;
    case EditKind::Unit:
      EditedUnit[E.UnitIndex] = !EditedUnit[E.UnitIndex];
      return false;
    }
    return false;
  }

  std::vector<msq::SourceUnit> currentUnits() const {
    std::vector<msq::SourceUnit> Out;
    for (size_t I = 0; I != Units.size(); ++I)
      Out.push_back({Units[I].Name, toggleUnitEdit(Units[I], EditedUnit[I]),
                     Units[I].Base});
    return Out;
  }

  /// Every output byte-equal to a fresh engine's; units the edit cannot
  /// reach replayed without re-expansion; meta-global mutators never
  /// replayed. References are memoized per (library state, unit bytes).
  bool checkRound(const msq::IncrementalResult &R, const Edit *E,
                  Result &Res) {
    if (R.Results.size() != Units.size()) {
      Res.fail("driver returned the wrong number of results");
      return false;
    }
    bool Ok = true;
    std::vector<msq::SourceUnit> Srcs = currentUnits();
    for (size_t I = 0; I != Units.size(); ++I) {
      std::string Key = State.key() + "|" + std::to_string(I) +
                        (EditedUnit[I] ? "e" : "");
      auto It = Refs.find(Key);
      if (It == Refs.end()) {
        std::string Out;
        if (!freshExpansion(State, Srcs[I], Out)) {
          Res.fail(Units[I].Name + ": fresh-engine expansion failed");
          return false;
        }
        It = Refs.emplace(Key, std::move(Out)).first;
      }
      const msq::ExpandResult &X = R.Results[I];
      msq::IncrementalPath P = R.Outcomes[I].Path;
      if (!X.Success || X.Output != It->second) {
        Res.fail(Units[I].Name + ": incremental output differs from a "
                                 "fresh-engine expansion (state " +
                 State.key() + ")");
        Ok = false;
      } else if (E && !reaches(*E, Units[I], unsigned(I)) &&
                 !Units[I].MutatesGlobals &&
                 P != msq::IncrementalPath::CleanReplay) {
        Res.fail(Units[I].Name + ": re-expanded (" +
                 msq::incrementalPathName(P) +
                 ") although the edit cannot reach it");
        Ok = false;
      } else if (Units[I].MutatesGlobals &&
                 P == msq::IncrementalPath::CleanReplay) {
        Res.fail(Units[I].Name + ": meta-global mutator was replayed");
        Ok = false;
      }
    }
    return Ok;
  }

  const std::vector<Unit> &Units;
  std::vector<Edit> Edits;
  LibState State;
  std::vector<bool> EditedUnit;
  std::unique_ptr<msq::IncrementalDriver> D;
  msq::IncrementalResult Primed;
  std::map<std::string, std::string> Refs;
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string Spans;
};

std::vector<Unit> corpusFor(const Args &A) {
  if (A.Workload == "cold-expand")
    return coldCorpus(A.Seed, 48);
  if (A.Workload == "meta-heavy")
    return metaCorpus(A.Seed, 48);
  return warmCorpus(A.Seed, 20);
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t I = std::min(V.size() - 1, size_t(Q * double(V.size())));
  return V[I];
}

/// The throughput metrics every workload reports. A round is one re-run of
/// the whole unit set: after one edit on warm-edit, from scratch on the
/// cold workloads.
void addRates(Result &Res, uint64_t Units, uint64_t Rounds, uint64_t BusyNs,
              const Calibration &Cal) {
  double Calibrated = Cal.calibrated(BusyNs);
  Res.add("units_per_s", double(Units) / (Calibrated / 1e9), "units/s");
  Res.add("edit_ms", Calibrated / 1e6 / double(Rounds), "ms");
  std::fprintf(stderr, "raw: %.6g units/s, %.6g ms per round; host slowdown %.4f\n",
               double(Units) / (double(BusyNs) / 1e9),
               double(BusyNs) / 1e6 / double(Rounds), Cal.slowdown());
}

/// Untraced cold-expand / meta-heavy: whole passes over the corpus, each
/// from a fresh engine, until the time is up.
void runExpand(const Args &A, const std::vector<Unit> &Units,
               Calibration &Cal, Result &Res) {
  std::vector<std::string> Ref = referencePass(Units, Res);
  if (Ref.size() != Units.size())
    return;
  uint64_t Busy = 0, Passes = 0;
  Cal.reset();
  uint64_t Deadline = nowNs() + uint64_t(A.Seconds * 1e9);
  LoadedEngine Pass;
  while (nowNs() < Deadline) {
    for (size_t I = 0; I != Units.size(); ++I) {
      if (I % UnitsPerEngine == 0)
        Cal.sample();
      if (!engineFor(Pass, I)) {
        Res.fail("library load failed");
        return;
      }
      msq::SourceUnit Src = sourceOf(Units[I]);
      uint64_t T0 = nowNs();
      msq::ExpandResult R = expandApi(Pass, Src);
      Busy += nowNs() - T0;
      ++Res.Attempted;
      if (!R.Success || R.Output != Ref[I])
        ++Res.Failed;
    }
    ++Passes;
  }
  addRates(Res, Res.Attempted, Passes, Busy, Cal);
}

/// Untraced warm-edit: blocks of seeded edit rounds until the time is up.
void runWarm(const Args &A, EditSession &Session, uint64_t Units,
             Calibration &Cal, Result &Res) {
  Tracer Off(false);
  uint32_t Op = 0;
  // Warm-up: one untimed block, which also fills the reference memo.
  DriverTotals WarmTot;
  Result Warm;
  Session.block(Off, Op, WarmTot, Warm);
  if (!Warm.Correct || Warm.Failed)
    Res.fail("warm-up block failed its checks");
  DriverTotals Tot;
  Cal.reset();
  uint64_t Busy = 0, Deadline = nowNs() + uint64_t(A.Seconds * 1e9);
  while (nowNs() < Deadline) {
    Session.prime();
    if (!Session.checkPrime(Res))
      return;
    Busy += Session.block(Off, Op, Tot, Res, &Cal);
  }
  addRates(Res, Tot.Rounds * Units, Tot.Rounds, Busy, Cal);
}

/// The traced run: per-layer metrics of the workload's own units.
void runTraced(const Args &A, const std::vector<Unit> &Units, Result &Res) {
  Tracer T(true);
  uint32_t Op = 0;
  uint64_t Start = nowNs(), Total = uint64_t(A.Seconds * 1e9);

  // Staged layers, interleaved per unit with the engine path they must
  // match byte for byte. Half of the time.
  Stages S, Pass0;
  std::vector<double> ApiMs;
  uint64_t ApiNs = 0, Passes = 0;
  LoadedEngine Pass;
  do {
    for (size_t I = 0; I != Units.size(); ++I) {
      const Unit &U = Units[I];
      if (!engineFor(Pass, I)) {
        Res.fail("library load failed");
        return;
      }
      ++Op;
      msq::SourceUnit Src = sourceOf(U);
      msq::ExpandResult R;
      std::string Out;
      bool Ok = true;
      // Alternate which path sees the unit first.
      for (unsigned Turn = 0; Turn != 2; ++Turn) {
        if ((Turn + Op) % 2) {
          Timed Api(T, "api.unit", 0, Op);
          R = expandApi(Pass, Src);
          uint64_t ApiD = Api.stop();
          ApiNs += ApiD;
          ApiMs.push_back(double(ApiD) / 1e6);
        } else {
          Timed St(T, "staged.unit", 0, Op);
          Ok = stagedExpand(Pass, U, T, Op, St.Id, S, Out);
          St.stop();
        }
      }
      ++Res.Attempted;
      if (!Ok || !R.Success || Out != R.Output) {
        ++Res.Failed;
        Res.fail(U.Name + ": staged path differs from expandUnrecorded");
      }
    }
    if (++Passes == 1)
      Pass0 = S;
  } while (nowNs() - Start < Total / 2);

  // Library load and fingerprints. A tenth of the time.
  uint64_t LoadNs = 0, Loads = 0, FpNs = 0;
  std::vector<std::string> LibText;
  for (const msq::SourceUnit &LU : libraryUnits(LibState{}))
    LibText.push_back(LU.Source);
  uint64_t LibStart = nowNs();
  do {
    LoadedEngine Fresh;
    ++Op;
    Timed Ld(T, "meta.library_load", 0, Op);
    bool Ok = loadEngine(Fresh);
    LoadNs += Ld.stop();
    if (!Ok) {
      Res.fail("library load failed");
      return;
    }
    Timed Fp(T, "cache.fingerprint", 0, Op);
    bool Stable = true;
    std::string Digest = Fresh.E->stateFingerprint(&Stable);
    msq::DefinitionFingerprints Defs =
        Fresh.E->definitionFingerprints(LibText);
    FpNs += Fp.stop();
    if (Digest.empty() || Defs.MacroFull.empty())
      Res.fail("empty library fingerprint");
    ++Loads;
  } while (nowNs() - LibStart < Total / 10);

  // Incremental driver over (up to) the first 20 units. The rest of the
  // time, in whole blocks.
  std::vector<Unit> DriverUnits(Units.begin(),
                                Units.begin() + std::min<size_t>(20, Units.size()));
  EditSession Session(DriverUnits, A.Seed);
  DriverTotals Tot;
  Result DriverRes;
  do {
    Session.prime();
    if (!Session.checkPrime(DriverRes))
      break;
    Session.block(T, Op, Tot, DriverRes);
  } while (nowNs() - Start < Total);
  if (!DriverRes.Correct || DriverRes.Failed)
    Res.fail("incremental driver check failed in the traced run");

  double Units_ = double(ApiMs.size());
  double StagedSum = double(S.LexNs + S.ParseNs + S.ExpandNs + S.PrintNs +
                            S.ReadNs + S.SPrintNs);
  Res.add("lexer.ns_per_token", double(S.LexNs) / double(S.CTokens), "ns");
  Res.add("lexer.tokens", double(Pass0.CTokens), "count");
  Res.add("parser.ns_per_token", double(S.ParseNs) / double(S.CTokens), "ns");
  Res.add("parser.nodes", double(Pass0.Nodes), "count");
  Res.add("meta.library_load_ms", double(LoadNs) / 1e6 / double(Loads), "ms");
  Res.add("expand.us_per_invocation",
          double(S.ExpandNs) / 1e3 / double(S.Invocations), "us");
  Res.add("expand.invocations", double(Pass0.Invocations), "count");
  Res.add("quasi.nodes_produced", double(Pass0.Produced), "count");
  Res.add("expand.gensyms", double(Pass0.Gensyms), "count");
  Res.add("interp.meta_steps", double(Pass0.Steps), "count");
  Res.add("interp.ns_per_step",
          S.Steps ? double(S.ExpandNs) / double(S.Steps) : 0.0, "ns");
  Res.add("printer.ns_per_byte", double(S.PrintNs) / double(S.OutBytes), "ns");
  Res.add("printer.output_bytes", double(Pass0.OutBytes), "bytes");
  Res.add("sexpr.read_ns_per_byte", double(S.ReadNs) / double(S.SReadBytes),
          "ns");
  Res.add("sexpr.print_ns_per_byte", double(S.SPrintNs) / double(S.SOutBytes),
          "ns");
  Res.add("api.unit_ms.p50", quantile(ApiMs, 0.50), "ms");
  Res.add("api.unit_ms.p99", quantile(ApiMs, 0.99), "ms");
  Res.add("api.unattributed_ms", (double(ApiNs) - StagedSum) / 1e6 / Units_,
          "ms");
  Res.add("cache.fingerprint_us", double(FpNs) / 1e3 / double(Loads), "us");
  double Blocks = double(std::max<uint64_t>(Tot.Blocks, 1));
  Res.add("driver.set_library_ms",
          double(Tot.SetLibraryNs) / 1e6 /
              double(std::max<uint64_t>(Tot.SetLibraryCalls, 1)),
          "ms");
  Res.add("driver.run_ms",
          double(Tot.RunNs) / 1e6 / double(std::max<uint64_t>(Tot.Rounds, 1)),
          "ms");
  static const char *PathNames[] = {"clean", "tree", "token", "cold"};
  for (unsigned P = 0; P != 4; ++P)
    Res.add(std::string("driver.paths.") + PathNames[P],
            double(Tot.Paths[P]) / Blocks, "count");
  Res.add("cache.token_hits", double(Tot.TokenHits) / Blocks, "count");
  Res.add("cache.tree_hits", double(Tot.TreeHits) / Blocks, "count");
  // The rate lost to tracing: spans recorded times the cost of recording
  // one, as a share of the traced run's time.
  uint64_t TracedNs = nowNs() - Start;
  size_t Spans = T.size();
  Tracer Probe(true);
  uint64_t P0 = nowNs();
  for (unsigned I = 0; I != 100000; ++I)
    Probe.close(Probe.open("probe", 0, I));
  double NsPerSpan = double(nowNs() - P0) / 100000.0;
  Res.add("trace.overhead", double(Spans) * NsPerSpan / double(TracedNs),
          "fraction");

  if (!A.Spans.empty() && !T.write(A.Spans))
    std::fprintf(stderr, "warning: cannot write spans to %s\n",
                 A.Spans.c_str());
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    char *End = nullptr;
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (K == "--seconds")
      A.Seconds = std::strtod(V.c_str(), &End);
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--spans")
      A.Spans = V;
    else
      return false;
    if (End && *End)
      return false;
  }
  if (Argc % 2 != 1)
    return false;
  return (A.Workload == "cold-expand" || A.Workload == "meta-heavy" ||
          A.Workload == "warm-edit") &&
         A.Seconds > 0 && A.Seconds <= 600;
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Start = nowNs();
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: msq_perfbench --workload cold-expand|meta-heavy|"
                 "warm-edit --seed N --seconds S --trace 0|1 [--spans FILE]\n");
    return 2;
  }
  uint64_t GenStart = nowNs();
  std::vector<Unit> Units = corpusFor(A);
  uint64_t GenNs = nowNs() - GenStart;
  Result Res;

  // One cold set-up, timed from the start of main and excluding the
  // corpus generator: engine construction and library load, and for
  // warm-edit the incremental driver's priming pass as well. It is
  // divided by the kernel's plain slowdown (see Calibration::Exponent),
  // sampled right after it, so in the same phase of the host.
  LoadedEngine L;
  std::unique_ptr<EditSession> Session;
  bool SetupOk = true;
  if (A.Workload == "warm-edit") {
    Session = std::make_unique<EditSession>(Units, A.Seed);
    Session->prime();
  } else {
    SetupOk = loadEngine(L);
  }
  uint64_t SetupNs = nowNs() - Start - GenNs;
  Calibration Cal;
  for (unsigned I = 0; I != 8; ++I)
    Cal.sample();
  double SetupS = double(SetupNs) / Cal.slowdown() / 1e9;
  std::fprintf(stderr, "raw set-up: %.6g s; host slowdown %.4f\n",
               double(SetupNs) / 1e9, Cal.slowdown());
  if (Session)
    SetupOk = Session->checkPrime(Res);
  if (!SetupOk || !Res.Correct) {
    std::fprintf(stderr, "set-up failed\n");
    return 1;
  }

  if (A.Trace)
    runTraced(A, Units, Res);
  else if (A.Workload == "warm-edit")
    runWarm(A, *Session, Units.size(), Cal, Res);
  else
    runExpand(A, Units, Cal, Res);

  if (!A.Trace) {
    Res.add("setup_s", SetupS, "s");
    Res.add("peak_rss_mib", peakRssMiB(), "MiB");
  }
  std::fprintf(stderr, "%s seed %llu: %.2f s in all\n", A.Workload.c_str(),
               (unsigned long long)A.Seed, double(nowNs() - Start) / 1e9);
  printResult(Res);
  return 0;
}
