// Quality references quoted in the README (see reference.cpp).
#pragma once

#include <cstdint>

namespace isexbench {

/// Prints MI's gap to ExactExplorer on suite blocks of at most 24 ops and
/// the MI-vs-SI mean reduction on paper_sweep, for workload seed `seed`.
void print_quality_reference(std::uint64_t seed);

}  // namespace isexbench
