// Shared machinery for the figure-regeneration harnesses.
//
// Exploration is by far the expensive step and is independent of the
// selection constraints (area budget / #ISEs), so each harness explores a
// (benchmark, flavor, machine, algorithm) combination once and replays
// selection + replacement per constraint point — exactly how the paper
// sweeps Figs 5.2.1–5.2.3 from one set of explored candidates.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "bench_suite/kernels.hpp"
#include "flow/design_flow.hpp"

namespace isex::benchx {

/// The six machine configurations of §5.1.
std::vector<sched::MachineConfig> paper_machines();

/// Candidates explored for one program on one machine with one algorithm.
struct ExploredProgram {
  flow::ProfiledProgram program;
  std::vector<std::size_t> hot_blocks;
  std::vector<flow::PortfolioCatalogEntry> catalog;
};

/// Runs the design flow once (default constraints) and keeps its hot blocks
/// and explorations as the catalog.  `params` tweaks the explorer
/// (perf_runtime uses it to A/B the schedule cache); the default reproduces
/// the paper settings.
ExploredProgram explore_program(bench_suite::Benchmark benchmark,
                                bench_suite::OptLevel level,
                                const sched::MachineConfig& machine,
                                flow::Algorithm algorithm, int repeats,
                                std::uint64_t seed,
                                const core::ExplorerParams& params = {});

/// Selection + replacement outcome for one constraint point.
struct Outcome {
  std::uint64_t base_time = 0;
  std::uint64_t final_time = 0;
  double reduction = 0.0;
  double area = 0.0;
  int ise_types = 0;
};

Outcome evaluate(const ExploredProgram& explored,
                 const flow::SelectionConstraints& constraints,
                 const sched::MachineConfig& machine);

/// Repeats used by the harnesses (paper: 5; override with ISEX_BENCH_REPEATS
/// to trade fidelity for speed).
int bench_repeats();

const char* algorithm_tag(flow::Algorithm algorithm);

/// Explores one (benchmark, flavor) per entry of `benchmarks`, all as one
/// parallel batch on the default pool.  Each flow owns its Rng(seed), so
/// the output is identical to calling explore_program in a loop.
std::vector<ExploredProgram> explore_programs(
    const std::vector<bench_suite::Benchmark>& benchmarks,
    bench_suite::OptLevel level, const sched::MachineConfig& machine,
    flow::Algorithm algorithm, int repeats, std::uint64_t seed);

/// Prints the default pool's RuntimeStats (jobs, steals, cache hit rate,
/// stage wall times); every sweep harness calls this before exiting.  With
/// ISEX_METRICS_OUT / ISEX_TRACE_OUT set it also writes a Prometheus
/// snapshot / Chrome trace to those paths (see docs/OBSERVABILITY.md).
void print_runtime_stats(std::ostream& out);

}  // namespace isex::benchx
