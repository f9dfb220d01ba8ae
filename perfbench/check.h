//===----------------------------------------------------------------------===//
//
// Output checks for the expansion benchmark. They run outside every timed
// phase and judge the engine's output against computations made apart
// from the code under measurement: the generator's hand expansion, a
// macro-free re-parse, and the C twin of each S-expression unit.
//
//===----------------------------------------------------------------------===//

#ifndef MSQ_PERFBENCH_CHECK_H
#define MSQ_PERFBENCH_CHECK_H

#include "corpus.h"

#include <string>

namespace perfbench {

/// Checks one expanded unit of the cold-expand or meta-heavy corpus.
/// \p Output is the engine's output for U.Source; \p TwinOutput (sexpr
/// units only) is the output for U.Twin under the same library. On
/// failure \p Why says what differed.
bool checkExpanded(const Unit &U, const std::string &Output,
                   const std::string &TwinOutput, std::string &Why);

/// Output of a fresh engine for (library \p S, unit source): the
/// reference a warm-edit round is compared against. False when the
/// library or the unit failed to expand.
bool freshExpansion(const LibState &S, const msq::SourceUnit &U,
                    std::string &Output);

} // namespace perfbench

#endif // MSQ_PERFBENCH_CHECK_H
