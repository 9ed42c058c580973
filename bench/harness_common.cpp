#include "harness_common.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <ostream>

#include "flow/replacement.hpp"
#include "runtime/job_graph.hpp"
#include "runtime/runtime_stats.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace isex::benchx {
namespace {

/// ISEX_TRACE_OUT=file.json turns the global tracer on before main() runs,
/// so every harness captures stage/explorer spans without code changes; the
/// file is written by print_runtime_stats (which every sweep calls last).
[[maybe_unused]] const bool g_tracer_armed = [] {
  if (std::getenv("ISEX_TRACE_OUT") == nullptr) return false;
  trace::Tracer::global().set_enabled(true);
  return true;
}();

}  // namespace

std::vector<sched::MachineConfig> paper_machines() {
  return {
      sched::MachineConfig::make(2, {4, 2}),
      sched::MachineConfig::make(2, {6, 3}),
      sched::MachineConfig::make(3, {6, 3}),
      sched::MachineConfig::make(3, {8, 4}),
      sched::MachineConfig::make(4, {8, 4}),
      sched::MachineConfig::make(4, {10, 5}),
  };
}

ExploredProgram explore_program(bench_suite::Benchmark benchmark,
                                bench_suite::OptLevel level,
                                const sched::MachineConfig& machine,
                                flow::Algorithm algorithm, int repeats,
                                std::uint64_t seed,
                                const core::ExplorerParams& params) {
  ExploredProgram out;
  out.program = bench_suite::make_program(benchmark, level);

  flow::FlowConfig config;
  config.machine = machine;
  config.params = params;
  config.algorithm = algorithm;
  config.repeats = repeats;
  config.seed = seed;
  flow::FlowResult result = flow::run_design_flow(
      out.program, hw::HwLibrary::paper_default(), config);
  out.hot_blocks = std::move(result.hot_blocks);
  out.catalog =
      flow::build_catalog(out.program, out.hot_blocks, result.explorations);
  return out;
}

std::vector<ExploredProgram> explore_programs(
    const std::vector<bench_suite::Benchmark>& benchmarks,
    bench_suite::OptLevel level, const sched::MachineConfig& machine,
    flow::Algorithm algorithm, int repeats, std::uint64_t seed) {
  const runtime::StageTimer timer("explore");
  return runtime::parallel_map(
      runtime::ThreadPool::default_pool(), benchmarks,
      [&](const bench_suite::Benchmark benchmark) {
        // Nested fan-out: the flow's exploration batch runs inline on this
        // worker.
        return explore_program(benchmark, level, machine, algorithm, repeats,
                               seed);
      });
}

Outcome evaluate(const ExploredProgram& explored,
                 const flow::SelectionConstraints& constraints,
                 const sched::MachineConfig& machine) {
  const flow::SelectionResult selection = flow::program_selection(
      flow::select_portfolio_ises(explored.catalog, constraints), 0);
  const flow::ReplacementResult replaced =
      flow::apply_selection(explored.program, selection, machine);
  Outcome o;
  o.base_time = replaced.base_time;
  o.final_time = replaced.final_time;
  o.reduction = replaced.reduction();
  o.area = selection.total_area;
  o.ise_types = selection.num_types;
  return o;
}

int bench_repeats() {
  if (const char* env = std::getenv("ISEX_BENCH_REPEATS")) {
    const int v = std::atoi(env);
    if (v >= 1) return v;
  }
  return 5;  // §5.1: exploration repeated 5 times per basic block
}

const char* algorithm_tag(flow::Algorithm algorithm) {
  return algorithm == flow::Algorithm::kMultiIssue ? "MI" : "SI";
}

void print_runtime_stats(std::ostream& out) {
  const runtime::RuntimeStats stats =
      runtime::collect_runtime_stats(runtime::ThreadPool::default_pool());
  out << '\n';
  stats.print(out);

  // Optional file sinks, so any harness doubles as an observability probe:
  //   ISEX_METRICS_OUT=file.prom  Prometheus snapshot of the registry
  //   ISEX_TRACE_OUT=file.json    Chrome trace (tracer armed at startup)
  if (const char* path = std::getenv("ISEX_METRICS_OUT")) {
    stats.publish(trace::MetricsRegistry::global());
    std::ofstream file(path);
    if (file)
      trace::MetricsRegistry::global().write_prometheus(file);
    else
      std::cerr << "cannot write " << path << "\n";
  }
  if (const char* path = std::getenv("ISEX_TRACE_OUT")) {
    std::ofstream file(path);
    if (file)
      trace::Tracer::global().write_chrome_trace(file);
    else
      std::cerr << "cannot write " << path << "\n";
  }
}

}  // namespace isex::benchx
