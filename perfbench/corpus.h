//===----------------------------------------------------------------------===//
//
// Seeded workload generator for the expansion benchmark. Everything a
// workload feeds the engine is produced here from one seed: the macro
// library (as editable variants), the translation units, and for each
// unit the independent expectations its output is checked against.
//
// The generator is self-contained on purpose: it shares no code with the
// test suite, so a change to a test cannot change a workload.
//
//===----------------------------------------------------------------------===//

#ifndef MSQ_PERFBENCH_CORPUS_H
#define MSQ_PERFBENCH_CORPUS_H

#include "api/Msq.h"

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/// Small deterministic generator (splitmix64): the same seed gives the
/// same corpus on every standard library.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  unsigned below(unsigned N) { return unsigned(next() % N); }
  /// Uniform in [Lo, Hi].
  int range(int Lo, int Hi) { return Lo + int(below(unsigned(Hi - Lo + 1))); }
  bool chance(unsigned Percent) { return below(100) < Percent; }

private:
  uint64_t State;
};

/// One generated translation unit.
struct Unit {
  std::string Name;
  std::string Source;
  /// "" for C, "sexpr" for the S-expression base.
  std::string Base;
  /// Hand-expanded plain C. For an S-expression unit this is the
  /// expansion of its C twin. Identifiers the expansion introduces are
  /// spelled __fresh_N; the check accepts any consistent renaming.
  std::string Expected;
  /// S-expression units only: the same program written in C.
  std::string Twin;
  /// Macro invocation sites in the source, counted while generating.
  size_t Invocations = 0;
  /// Names of the library macros the unit invokes.
  std::set<std::string> Uses;
  /// The unit writes metadcl globals (on_msg), so the incremental driver
  /// can never replay it.
  bool MutatesGlobals = false;
};

/// The editable state of the benchmark's macro library. Every field is a
/// small toggle; LibState{} is the base library the cold workloads use.
struct LibState {
  int Guarded = 0;   ///< body variant of `guarded` (0 or 1)
  int Probe = 0;     ///< pattern variant of `probe` (0 or 1)
  bool Spare = true; ///< `spare` defined or removed
  int Seed = 0;      ///< index of the metadcl seed value (0 or 1)
  int Spacing = 0;   ///< whitespace-only variant of logging.c (0 or 1)

  std::string key() const;
};

/// The seed_base value a LibState::Seed index selects.
int seedValue(int SeedIndex);

/// The library as the incremental driver takes it: the standard library
/// first (the same text Engine::loadStandardLibrary expands), then the
/// benchmark's own library buffers.
std::vector<msq::SourceUnit> libraryUnits(const LibState &S);

/// Loads \p S into a fresh engine the way msqc -stdlib -l ... does.
/// Returns false if any library buffer failed.
bool loadLibrary(msq::Engine &E, const LibState &S);

/// cold-expand: C units of ordinary functions interleaved with dense
/// invocations; every SexprEvery-th unit is written in the S-expression
/// base instead.
std::vector<Unit> coldCorpus(uint64_t Seed, unsigned Count);

/// meta-heavy: a few invocations per unit, each running a substantial
/// meta-program (compile-time tables, list recursion, metadcl dispatch).
std::vector<Unit> metaCorpus(uint64_t Seed, unsigned Count);

/// warm-edit: a mixed unit set that also invokes the edit targets
/// (`probe`, `spare`, `seeded`) and includes metadcl mutators.
std::vector<Unit> warmCorpus(uint64_t Seed, unsigned Count);

/// One unit-source edit: toggles a trailing comment (changes the bytes,
/// not the program).
std::string toggleUnitEdit(const Unit &U, bool Edited);

constexpr unsigned SexprEvery = 8;

} // namespace perfbench

#endif // MSQ_PERFBENCH_CORPUS_H
