// isexbench — runs the isex end-to-end benchmark.
//
//   isexbench --workload <paper_sweep|large_blocks|portfolio_cached|service_mix>
//             --seed N --seconds S --trace 0|1
//
// Builds the workload's inputs from the seed, runs whole passes of its
// operations through the public entry points (flow::run_design_flow,
// flow::run_portfolio_flow, the isex_serve wire protocol) until S seconds
// have been measured, then checks every output with the independent
// checker (checker.hpp) and prints one JSON line: correct, attempted,
// failed and the metrics.  --trace 0 prints the end-to-end metrics, with
// tracing off; --trace 1 runs the same passes untraced and then traced and
// prints the per-layer metrics reduced from the spans (spans.hpp).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checker.hpp"
#include "inputs.hpp"
#include "isa/tac_parser.hpp"
#include "reference.hpp"
#include "runtime/eval_cache.hpp"
#include "runtime/thread_pool.hpp"
#include "server/protocol.hpp"
#include "service.hpp"
#include "spans.hpp"
#include "trace/trace.hpp"

namespace {

using namespace isexbench;
namespace flow = isex::flow;
namespace runtime = isex::runtime;
namespace trace = isex::trace;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string hex_digest(std::uint64_t d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(d));
  return buf;
}

double own_peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  return 0.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run reports.
struct Outcome {
  std::vector<std::string> problems;  // run-level check failures
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few failed operations
  std::vector<Metric> metrics;

  void fail_op(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string reference;  // "quality": print the README's quality references
};

// ---------------------------------------------------------------- timing --

// Runs `pass` in whole passes until `seconds` of them have been measured.
// Traced: untraced passes for half of `seconds`, then as many traced ones,
// so both halves do the same work and their ratio is the tracing overhead.
// `pass(traced)` returns the pass's measured wall in seconds; it checks its
// outputs after the clock stops.
struct PassPlan {
  std::vector<double> untraced_s;
  std::vector<double> traced_s;

  int traced() const { return static_cast<int>(traced_s.size()); }
  /// Operations per second of the fastest untraced pass.
  double rate(std::size_t ops_per_pass) const {
    return static_cast<double>(ops_per_pass) /
           *std::min_element(untraced_s.begin(), untraced_s.end());
  }
};

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return total;
}

// Latency samples of the untraced passes, one row per operation slot (a
// flow call, or a distinct server job).  The host this was tuned on slows
// its CPUs by up to a third for tens of seconds at a time, with nothing
// else of ours running; a slowdown only ever adds time.  So a slot's time
// is its fastest pass, and the run's figures are built from those.
struct SlotTimes {
  std::vector<std::vector<double>> ms;

  explicit SlotTimes(std::size_t slots) : ms(slots) {}
  double best(std::size_t slot) const {
    return ms[slot].empty() ? 0.0 : *std::min_element(ms[slot].begin(), ms[slot].end());
  }
  /// Geometric mean over the slots of each slot's fastest pass.  Not the
  /// median: slot times cluster (O0 vs O3 flows, kernel vs portfolio jobs)
  /// and a median that falls between two clusters jumps from one to the
  /// other when a few slots shift.
  double gmean() const {
    double log_sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < ms.size(); ++i)
      if (!ms[i].empty()) {
        log_sum += std::log(best(i));
        ++n;
      }
    return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
  }
  /// Flows per second of a pass in which every slot takes its fastest time.
  double rate(const std::vector<std::size_t>& flows_per_slot) const {
    double flows = 0.0;
    double ms_total = 0.0;
    for (std::size_t i = 0; i < ms.size(); ++i) {
      flows += static_cast<double>(flows_per_slot[i]);
      ms_total += best(i);
    }
    return flows / (ms_total * 1e-3);
  }
};

PassPlan run_passes(const Args& args, const std::function<double(bool)>& pass) {
  PassPlan plan;
  const double budget = args.trace ? args.seconds / 2.0 : args.seconds;
  do {
    plan.untraced_s.push_back(pass(false));
  } while (sum(plan.untraced_s) < budget);
  if (args.trace) {
    trace::Tracer::global().set_enabled(true);
    while (plan.traced_s.size() < plan.untraced_s.size()) plan.traced_s.push_back(pass(true));
    trace::Tracer::global().set_enabled(false);
  }
  for (std::size_t i = 0; i < plan.untraced_s.size(); ++i)
    std::fprintf(stderr, "isexbench: pass %zu: %.3f s\n", i + 1, plan.untraced_s[i]);
  return plan;
}

// ------------------------------------------------------ per-layer metrics --

// Per-layer counters gathered over the traced passes of one run.
struct Layers {
  SpanTotals spans;
  std::vector<double> stage_ratios;  // per in-process design flow
  double eval_lookups = 0.0;
  double eval_hits = 0.0;
  double pool_steals = 0.0;
  double portfolio_jobs = 0.0;
  double portfolio_deduped = 0.0;
  double portfolio_eval_lookups = 0.0;
  double portfolio_eval_hits = 0.0;
  double l1_accesses = 0.0;
  double l1_hits = 0.0;
};

void merge(SpanTotals& into, const SpanTotals& from) {
  for (const auto& [k, v] : from.total_s) into.total_s[k] += v;
  for (const auto& [k, v] : from.self_s) into.self_s[k] += v;
  for (const auto& [k, v] : from.busy_s) into.busy_s[k] += v;
  for (const auto& [k, v] : from.count) into.count[k] += v;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Stage spans: the design flow's, and the portfolio flow's "portfolio.*".
double stage_s(const SpanTotals& s, const std::string& flow_stage,
               const std::string& portfolio_stage) {
  return s.total("stage:" + flow_stage) + s.total("stage:portfolio." + portfolio_stage);
}

// Stage-sum tolerance: the stages of a design flow must cover its wall to
// within 5 % (what lies between stages is result moves and the pool hop).
constexpr double kStageSumTolerance = 0.05;

// `stage_roots_s`: the wall the flow stages should account for — the
// benchmark's spans around each flow call, or a server job's time after its
// queue wait.
void add_layer_metrics(Outcome& out, const Layers& l, const PassPlan& plan,
                       int pool_width, double stage_roots_s) {
  const double passes = std::max(1, plan.traced());
  const SpanTotals& s = l.spans;
  const double explore_cpu = s.busy("mi_explore");
  out.add("core.explore_cpu_s", explore_cpu / passes, "s");
  out.add("core.explore_calls", static_cast<double>(s.calls("mi_explore")) / passes, "count");
  out.add("core.rounds", static_cast<double>(s.calls("mi_explore.round")) / passes, "count");
  out.add("core.ant_iterations", static_cast<double>(s.calls("ant_walk")) / passes, "count");
  out.add("core.ant_walk_s", s.self("ant_walk") / passes, "s");
  out.add("core.round_update_s", s.self("mi_explore.round") / passes, "s");
  out.add("core.candidate_extract_s", s.self("extract_candidates") / passes, "s");
  out.add("core.candidate_eval_s", s.self("evaluate_candidates") / passes, "s");
  out.add("runtime.eval_lookups", l.eval_lookups / passes, "count");
  out.add("runtime.eval_hit_ratio", ratio(l.eval_hits, l.eval_lookups), "ratio");
  out.add("runtime.pool_busy_ratio",
          ratio(explore_cpu, sum(plan.traced_s) * std::max(1, pool_width)), "ratio");
  out.add("runtime.pool_steals", l.pool_steals / passes, "count");
  const double stages = s.total_prefix("stage:");
  out.add("flow.validate_s", stage_s(s, "validation", "validation") / passes, "s");
  out.add("flow.profile_s", stage_s(s, "profiling", "profiling") / passes, "s");
  out.add("flow.explore_s", stage_s(s, "exploration", "exploration") / passes, "s");
  out.add("flow.select_s", stage_s(s, "selection", "selection") / passes, "s");
  out.add("flow.replace_s", stage_s(s, "replacement", "replacement") / passes, "s");
  out.add("flow.stage_sum_ratio", ratio(stages, stage_roots_s), "ratio");
  out.add("flow.portfolio_jobs", l.portfolio_jobs / passes, "count");
  out.add("flow.portfolio_dedup_ratio", ratio(l.portfolio_deduped, l.portfolio_jobs), "ratio");
  out.add("flow.portfolio_eval_hit_ratio",
          ratio(l.portfolio_eval_hits, l.portfolio_eval_lookups), "ratio");
  out.add("mem.annotate_s", stage_s(s, "cache_model", "cache_model") / passes, "s");
  out.add("mem.l1_hit_ratio", ratio(l.l1_hits, l.l1_accesses), "ratio");
  out.add("trace.overhead_ratio", ratio(median(plan.traced_s), median(plan.untraced_s)), "ratio");

  int outside = 0;
  for (const double r : l.stage_ratios)
    if (r < 1.0 - kStageSumTolerance || r > 1.0 + kStageSumTolerance) ++outside;
  out.add("flow.stage_sum_outside", outside, "count");
  if (outside > 0)
    out.problems.push_back(std::to_string(outside) + " of " +
                           std::to_string(l.stage_ratios.size()) +
                           " design flows have stages that do not sum to their wall within 5 %");
}

// Server metrics, zero on the in-process workloads.
struct ServerLayers {
  double requests = 0.0, hits = 0.0, duplicates = 0.0;
  double queue_wait_p50_ms = 0.0, log_bytes = 0.0, warm_load_ms = 0.0;
  double hit_latency_p50_ms = 0.0, miss_latency_p90_ms = 0.0;
};

void add_server_metrics(Outcome& out, const ServerLayers& s, int passes) {
  const double n = std::max(1, passes);
  out.add("server.requests", s.requests / n, "count");
  out.add("server.hit_ratio", ratio(s.hits, s.requests), "ratio");
  out.add("server.duplicate_explorations", s.duplicates / n, "count");
  out.add("server.queue_wait_p50_ms", s.queue_wait_p50_ms, "ms");
  out.add("server.log_bytes", s.log_bytes / n, "bytes");
  out.add("server.warm_load_ms", s.warm_load_ms / n, "ms");
  out.add("server.hit_latency_p50_ms", s.hit_latency_p50_ms, "ms");
  out.add("server.miss_latency_p90_ms", s.miss_latency_p90_ms, "ms");
}


// Sets the default pool to one thread for `fn`, then back to the default.
template <typename Fn>
void at_one_thread(Fn fn) {
  runtime::ThreadPool::set_default_jobs(1);
  fn();
  runtime::ThreadPool::set_default_jobs(0);
}

// ----------------------------------------------------------- set-up --

// Set-up as a user pays it: build the workload's inputs from the seed
// (generation, TAC parsing) and start a fresh default thread pool.  Done
// `times` times; the median is reported.
template <typename Build>
auto timed_setup(int times, double& setup_s, Build build) {
  std::vector<double> samples;
  decltype(build()) inputs{};
  for (int i = 0; i < times; ++i) {
    const Clock::time_point t0 = Clock::now();
    inputs = build();
    runtime::ThreadPool::set_default_jobs(0);
    runtime::ThreadPool::default_pool();
    samples.push_back(seconds_since(t0));
  }
  setup_s = median(samples);
  return inputs;
}

// Mean of `reductions` as a percentage.
double mean_pct(const std::vector<double>& reductions) {
  return reductions.empty() ? 0.0
                            : 100.0 * sum(reductions) / static_cast<double>(reductions.size());
}

// ------------------------------------------------ paper_sweep, large_blocks --

// Records the per-layer counters of one traced in-process pass: its spans
// (drained from the tracer), and the deltas of the schedule cache and pool.
struct PassCounters {
  runtime::CacheStats cache = runtime::schedule_cache().stats();
  std::uint64_t steals = runtime::ThreadPool::default_pool().stats().steals;

  void collect(Layers& layers, const std::string& root) const {
    const std::vector<SpanEvent> spans = spans_of(trace::Tracer::global().drain());
    merge(layers.spans, reduce(spans));
    const std::vector<double> r = stage_sum_ratios(spans, root);
    layers.stage_ratios.insert(layers.stage_ratios.end(), r.begin(), r.end());
    const runtime::CacheStats now = runtime::schedule_cache().stats();
    layers.eval_hits += static_cast<double>(now.hits - cache.hits);
    layers.eval_lookups +=
        static_cast<double>(now.hits + now.misses - cache.hits - cache.misses);
    layers.pool_steals += static_cast<double>(
        runtime::ThreadPool::default_pool().stats().steals - steals);
  }
};

void run_flow_workload(const Args& args, const std::vector<FlowCase>& cases,
                       std::size_t determinism_cases, Outcome& out) {
  const isex::hw::HwLibrary library = isex::hw::HwLibrary::paper_default();
  SlotTimes latencies(cases.size());
  std::vector<std::uint64_t> digests;  // first pass; later passes must match
  std::vector<double> reductions;
  double peak_rss = 0.0;
  Layers layers;

  const PassPlan plan = run_passes(args, [&](bool traced) {
    runtime::schedule_cache().clear();
    const PassCounters counters;
    std::vector<std::optional<flow::FlowResult>> row;
    std::vector<std::string> errors(cases.size());
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Clock::time_point tc = Clock::now();
      try {
        const trace::Span span("bench.flow");
        row.emplace_back(flow::run_design_flow(cases[i].program, library, cases[i].config));
      } catch (const std::exception& e) {
        row.emplace_back();
        errors[i] = e.what();
      }
      if (!traced) latencies.ms[i].push_back(seconds_since(tc) * 1e3);
    }
    const double wall = seconds_since(t0);
    if (traced) counters.collect(layers, "bench.flow");
    if (!traced) peak_rss = std::max(peak_rss, own_peak_rss_mib());

    // Every output: the independent checks, and the first pass's digest (a
    // flow is a pure function of its inputs and seed).
    const bool first = digests.empty();
    for (std::size_t i = 0; i < cases.size(); ++i) {
      ++out.attempted;
      const std::optional<flow::FlowResult>& r = row[i];
      const std::uint64_t digest = r ? isex::server::flow_result_digest(*r) : 0;
      if (first) {
        digests.push_back(digest);
        if (r) reductions.push_back(r->reduction());
      }
      if (!r) {
        out.fail_op(cases[i].label + ": " + errors[i]);
        continue;
      }
      const Verdict verdict = check_flow(cases[i].program, cases[i].config, *r);
      if (!verdict.ok()) {
        out.fail_op(cases[i].label + ": " + verdict.errors.front());
      } else if (digest != digests[i]) {
        out.fail_op(cases[i].label + ": result differs between passes");
      }
    }
    return wall;
  });

  // docs/RUNTIME.md: results are identical at any thread count.
  at_one_thread([&] {
    for (std::size_t i = 0; i < determinism_cases && i < cases.size(); ++i) {
      flow::FlowConfig config = cases[i].config;
      config.jobs = 1;
      const flow::FlowResult r = flow::run_design_flow(cases[i].program, library, config);
      if (digests[i] != 0 && isex::server::flow_result_digest(r) != digests[i])
        out.problems.push_back(cases[i].label + ": digest at 1 thread differs from " +
                               std::to_string(runtime::ThreadPool::default_jobs()) +
                               " threads");
    }
  });

  if (args.trace) {
    add_layer_metrics(out, layers, plan, runtime::ThreadPool::default_pool().num_threads(),
                      layers.spans.total("bench.flow"));
    add_server_metrics(out, ServerLayers{}, plan.traced());
    return;
  }
  out.add("ops_per_s", latencies.rate(std::vector<std::size_t>(cases.size(), 1)), "1/s");
  out.add("cycle_reduction_pct", mean_pct(reductions), "%");
  out.add("explore_latency_gmean_ms", latencies.gmean(), "ms");
  out.add("peak_rss_mb", peak_rss, "MiB");
}

// --------------------------------------------------------- portfolio_cached --

void run_portfolio_workload(const Args& args, const std::vector<PortfolioCase>& cases,
                            Outcome& out) {
  const isex::hw::HwLibrary library = isex::hw::HwLibrary::paper_default();
  SlotTimes latencies(cases.size());
  std::vector<std::uint64_t> digests;
  double weighted = 0.0;
  double weights = 0.0;
  double peak_rss = 0.0;
  Layers layers;
  std::vector<std::size_t> flows_per_call;
  for (const PortfolioCase& c : cases) flows_per_call.push_back(c.entries.size());

  const PassPlan plan = run_passes(args, [&](bool traced) {
    runtime::schedule_cache().clear();
    const PassCounters counters;
    std::vector<std::optional<flow::PortfolioResult>> row;
    std::vector<std::string> errors(cases.size());
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Clock::time_point tc = Clock::now();
      try {
        const trace::Span span("bench.portfolio");
        row.emplace_back(flow::run_portfolio_flow(cases[i].entries, library, cases[i].config));
      } catch (const std::exception& e) {
        row.emplace_back();
        errors[i] = e.what();
      }
      if (!traced) latencies.ms[i].push_back(seconds_since(tc) * 1e3);
    }
    const double wall = seconds_since(t0);
    if (traced) {
      counters.collect(layers, "bench.portfolio");
      for (const std::optional<flow::PortfolioResult>& pr : row) {
        if (!pr) continue;
        const double lookups = static_cast<double>(pr->eval_cache_stats.hits +
                                                   pr->eval_cache_stats.misses);
        layers.eval_lookups += lookups;
        layers.eval_hits += static_cast<double>(pr->eval_cache_stats.hits);
        layers.portfolio_eval_lookups += lookups;
        layers.portfolio_eval_hits += static_cast<double>(pr->eval_cache_stats.hits);
        layers.portfolio_jobs += static_cast<double>(pr->total_jobs);
        layers.portfolio_deduped += static_cast<double>(pr->deduped_jobs);
        layers.l1_accesses += static_cast<double>(pr->cache_stats.accesses);
        layers.l1_hits += static_cast<double>(pr->cache_stats.l1_hits);
      }
    } else {
      peak_rss = std::max(peak_rss, own_peak_rss_mib());
    }

    const bool first = digests.empty();
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const PortfolioCase& c = cases[i];
      out.attempted += c.entries.size();
      const std::optional<flow::PortfolioResult>& r = row[i];
      const std::uint64_t digest = r ? isex::server::portfolio_result_digest(*r) : 0;
      if (first) digests.push_back(digest);
      if (!r) {
        for (std::size_t k = 0; k < c.entries.size(); ++k)
          out.fail_op(c.label + ": " + errors[i]);
        continue;
      }
      const std::vector<Verdict> verdicts = check_portfolio(c.entries, c.config, *r);
      for (std::size_t k = 0; k < c.entries.size(); ++k) {
        const std::string who = c.label + "/" + c.entries[k].program.name;
        if (!verdicts[k].ok()) {
          out.fail_op(who + ": " + verdicts[k].errors.front());
        } else if (digest != digests[i]) {
          out.fail_op(who + ": result differs between passes");
        } else if (first) {
          weighted += c.entries[k].weight * r->programs[k].reduction();
          weights += c.entries[k].weight;
        }
      }
    }
    return wall;
  });

  at_one_thread([&] {
    flow::PortfolioConfig config = cases.front().config;
    config.base.jobs = 1;
    const flow::PortfolioResult r =
        flow::run_portfolio_flow(cases.front().entries, library, config);
    if (digests[0] != 0 && isex::server::portfolio_result_digest(r) != digests[0])
      out.problems.push_back(cases.front().label +
                             ": portfolio digest at 1 thread differs from the pool's");
  });

  if (args.trace) {
    add_layer_metrics(out, layers, plan, runtime::ThreadPool::default_pool().num_threads(),
                      layers.spans.total("bench.portfolio"));
    add_server_metrics(out, ServerLayers{}, plan.traced());
    return;
  }
  out.add("ops_per_s", latencies.rate(flows_per_call), "1/s");
  out.add("cycle_reduction_pct", weights > 0.0 ? 100.0 * weighted / weights : 0.0, "%");
  out.add("explore_latency_gmean_ms", latencies.gmean(), "ms");
  out.add("peak_rss_mb", peak_rss, "MiB");
}

// -------------------------------------------------------------- service_mix --

// The in-process answer to one request: the digest run_design_flow (or
// run_portfolio_flow) gives for flow_config_for(request), and whether the
// independent checker accepts that result.
struct Reference {
  std::string digest;
  std::string error;  // empty when the in-process result passed every check
};

Reference reference_for(const ServiceJob& job, const isex::hw::HwLibrary& library,
                        bool one_thread) {
  Reference ref;
  isex::Expected<isex::server::JobRequest> parsed = isex::server::parse_job_request(job.line);
  if (!parsed) {
    ref.error = "request does not parse: " + parsed.error().to_string();
    return ref;
  }
  const isex::server::JobRequest& request = *parsed;
  const auto block_of = [](const std::string& tac) {
    isex::Expected<isex::isa::ParsedBlock> block = isex::isa::parse_tac_checked(tac);
    if (!block) throw std::runtime_error(block.error().to_string());
    return flow::ProfiledBlock{"kernel", std::move(block->graph), 1};
  };
  if (request.is_portfolio()) {
    std::vector<flow::PortfolioEntry> entries;
    for (const isex::server::PortfolioProgramSpec& spec : request.programs) {
      flow::PortfolioEntry entry;
      entry.program.name = spec.name;
      entry.program.blocks.push_back(block_of(spec.kernel));
      entry.weight = spec.weight;
      entries.push_back(std::move(entry));
    }
    flow::PortfolioConfig config = isex::server::portfolio_config_for(request);
    if (one_thread) config.base.jobs = 1;
    const flow::PortfolioResult r = flow::run_portfolio_flow(entries, library, config);
    ref.digest = hex_digest(isex::server::portfolio_result_digest(r));
    for (const Verdict& v : check_portfolio(entries, config, r))
      if (!v.ok() && ref.error.empty()) ref.error = v.errors.front();
    return ref;
  }
  flow::ProfiledProgram program;
  program.name = request.id.empty() ? "job" : request.id;
  program.blocks.push_back(block_of(request.kernel));
  flow::FlowConfig config = isex::server::flow_config_for(request);
  if (one_thread) config.jobs = 1;
  const flow::FlowResult r = flow::run_design_flow(program, library, config);
  ref.digest = hex_digest(isex::server::flow_result_digest(r));
  const Verdict v = check_flow(program, config, r);
  if (!v.ok()) ref.error = v.errors.front();
  return ref;
}

std::string exe_dir() {
  return std::filesystem::read_symlink("/proc/self/exe").parent_path().string();
}

void run_service_workload(const Args& args, Outcome& out, double& setup_s) {
  const std::string dir = exe_dir();
  const std::string serve = dir + "/isex_serve";
  // Closed loop: one client process, at most nproc connections.
  const int connections = static_cast<int>(
      std::max(1u, std::min(4u, std::thread::hardware_concurrency())));

  std::vector<ServiceJob> jobs;
  std::vector<std::size_t> order;
  {
    std::vector<double> samples;
    for (int i = 0; i < 7; ++i) {
      const Clock::time_point t0 = Clock::now();
      jobs = service_jobs(args.seed);
      order = service_order(jobs.size(), args.seed);
      const double build_s = seconds_since(t0);
      std::string tmp = dir + "/svc-XXXXXX";
      if (::mkdtemp(tmp.data()) == nullptr) throw std::runtime_error("mkdtemp failed");
      {
        ServerProcess server(serve, {"--port", "0", "--cache-file", tmp + "/cache.log"});
        samples.push_back(build_s + server.start_ms() * 1e-3);
        if (server.stop() != 0) out.problems.push_back("isex_serve did not exit 0 on drain");
      }
      std::filesystem::remove_all(tmp);
    }
    setup_s = median(samples);
  }

  std::vector<ServicePass> passes;
  const PassPlan plan = run_passes(args, [&](bool traced) {
    passes.push_back(run_service_pass(serve, dir, jobs, order, connections, traced));
    return passes.back().phase1_s + passes.back().phase2_s;
  });

  // In-process references, and the thread-count determinism of a sample.
  const isex::hw::HwLibrary library = isex::hw::HwLibrary::paper_default();
  std::vector<Reference> refs;
  for (const ServiceJob& job : jobs) refs.push_back(reference_for(job, library, false));
  at_one_thread([&] {
    for (std::size_t j = 0; j < 8 && j < jobs.size(); ++j)
      if (reference_for(jobs[j], library, true).digest != refs[j].digest)
        out.problems.push_back("job " + std::to_string(j) +
                               ": digest at 1 thread differs from the pool's");
  });

  std::vector<double> miss_ms, hit_ms, queue_ms, reductions;
  SlotTimes job_miss(jobs.size());  // untraced passes: first miss per job
  ServerLayers server;
  Layers layers;
  double stage_roots_s = 0.0;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const ServicePass& pass = passes[p];
    const bool traced = p >= plan.untraced_s.size();
    if (pass.exit1 != 0 || pass.exit2 != 0)
      out.problems.push_back("isex_serve did not exit 0 on drain");
    std::map<std::size_t, std::set<std::string>> miss_tails;
    std::size_t misses = 0;
    for (const Reply& r : pass.replies)
      if (r.phase == 1 && r.ok && !r.hit) {
        miss_tails[r.job].insert(r.tail);
        ++misses;
      }
    std::set<std::size_t> reduced, timed;
    for (const Reply& r : pass.replies) {
      ++out.attempted;
      const std::string who = "pass " + std::to_string(p) + " job " + std::to_string(r.job) +
                              " phase " + std::to_string(r.phase);
      const std::set<std::string>& tails = miss_tails[r.job];
      if (!r.ok) {
        out.fail_op(who + ": " + r.raw.substr(0, 200));
      } else if (r.digest != refs[r.job].digest) {
        out.fail_op(who + ": digest " + r.digest + ", in-process " + refs[r.job].digest);
      } else if (!refs[r.job].error.empty()) {
        out.fail_op(who + ": " + refs[r.job].error);
      } else if (r.phase == 2 && !r.hit) {
        out.fail_op(who + ": restart replay was not a cache hit");
      } else if (r.hit && tails.count(r.tail) == 0) {
        out.fail_op(who + ": hit body differs from the miss body");
      } else if (!jobs[r.job].portfolio && tails.size() > 1) {
        out.fail_op(who + ": misses of one kernel job answered differently");
      } else if (p == 0 && !jobs[r.job].portfolio && reduced.insert(r.job).second) {
        reductions.push_back(r.reduction);
      }
      if (traced) {
        (r.hit ? hit_ms : miss_ms).push_back(r.latency_ms);
        if (!r.hit) {
          const std::size_t at = r.raw.find("\"queue_wait_us\":");
          if (at != std::string::npos)
            queue_ms.push_back(std::atof(r.raw.c_str() + at + 16) * 1e-3);
        }
      } else if (!r.hit && timed.insert(r.job).second) {
        job_miss.ms[r.job].push_back(r.latency_ms);
      }
    }
    if (!traced) continue;
    server.requests += static_cast<double>(pass.replies.size());
    server.hits += static_cast<double>(pass.replies.size() - misses);
    server.duplicates += static_cast<double>(misses - miss_tails.size());
    server.log_bytes += static_cast<double>(pass.log_bytes);
    server.warm_load_ms += pass.warm_start_ms;
    layers.eval_lookups += pass.eval_lookups;
    layers.eval_hits += pass.eval_hits;
    layers.pool_steals += pass.pool_steals;
    const SpanTotals totals = reduce(pass.spans);
    merge(layers.spans, totals);
    stage_roots_s += totals.total_prefix("job:") - totals.total("job.queue_wait");
  }

  if (args.trace) {
    server.queue_wait_p50_ms = median(queue_ms);
    server.hit_latency_p50_ms = median(hit_ms);
    server.miss_latency_p90_ms = miss_ms.size() >= 100 ? percentile(miss_ms, 0.9) : median(miss_ms);
    add_layer_metrics(out, layers, plan, runtime::ThreadPool::default_jobs(), stage_roots_s);
    add_server_metrics(out, server, plan.traced());
    return;
  }
  long peak_kib = 0;
  for (const ServicePass& pass : passes) peak_kib = std::max(peak_kib, pass.peak_rss_kib);
  out.add("ops_per_s", plan.rate(passes.front().replies.size()), "1/s");
  out.add("cycle_reduction_pct", mean_pct(reductions), "%");
  out.add("explore_latency_gmean_ms", job_miss.gmean(), "ms");
  out.add("peak_rss_mb", static_cast<double>(peak_kib) / 1024.0, "MiB");
}

// ----------------------------------------------------------- entry point --

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "isexbench: %s\n"
               "usage: isexbench --workload <paper_sweep|large_blocks|portfolio_cached|"
               "service_mix> --seed N --seconds S --trace 0|1\n"
               "       isexbench --reference quality --seed N\n",
               error.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0 && args.seconds <= 3600.0))
        usage("--seconds takes a number in (0, 3600]");
    } else if (flag == "--reference") {
      if (value != "quality") usage("--reference takes 'quality'");
      args.reference = value;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty() && args.reference.empty()) usage("--workload is required");
  return args;
}

void print_result(const Outcome& out) {
  for (const std::string& p : out.problems) std::fprintf(stderr, "isexbench: CHECK FAILED: %s\n", p.c_str());
  for (const std::string& f : out.failures) std::fprintf(stderr, "isexbench: operation failed: %s\n", f.c_str());
  std::string json = "{\"correct\": ";
  json += out.problems.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.10g", out.metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + out.metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
            out.metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (!args.reference.empty()) {
    print_quality_reference(args.seed);
    return 0;
  }
  Outcome out;
  for (const std::string& wrong : self_test())
    out.problems.push_back("checker self-test: " + wrong);
  double setup_s = 0.0;
  try {
    if (args.workload == "paper_sweep") {
      const std::vector<FlowCase> cases =
          timed_setup(31, setup_s, [&] { return paper_sweep_cases(args.seed); });
      // 1-thread determinism: the 14 programs on the first machine.
      run_flow_workload(args, cases, 14, out);
    } else if (args.workload == "large_blocks") {
      const std::vector<FlowCase> cases =
          timed_setup(31, setup_s, [&] { return large_block_cases(args.seed); });
      // 1-thread determinism: a random DAG and the smallest chain.
      run_flow_workload(args, cases, 2, out);
    } else if (args.workload == "portfolio_cached") {
      const std::vector<PortfolioCase> cases =
          timed_setup(31, setup_s, [&] { return portfolio_cases(args.seed); });
      run_portfolio_workload(args, cases, out);
    } else if (args.workload == "service_mix") {
      run_service_workload(args, out, setup_s);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "isexbench: %s\n", e.what());
    return 1;
  }
  if (!args.trace) out.metrics.insert(out.metrics.begin(), Metric{"setup_s", setup_s, "s"});
  print_result(out);
  return 0;
}
