// The design flow's one implementation.  run_portfolio_flow runs the stages
// over a weighted manifest; run_design_flow runs the same stages over a
// one-entry, weight-1 manifest and returns that program's slice.
#include "flow/portfolio.hpp"

#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "flow/validate.hpp"
#include "runtime/hash.hpp"
#include "runtime/job_graph.hpp"
#include "runtime/runtime_stats.hpp"
#include "runtime/thread_pool.hpp"
#include "trace/metrics.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace isex::flow {

mem::CacheStats annotate_program(ProfiledProgram& program,
                                 const mem::CacheConfig& config) {
  mem::CacheStats stats;
  for (ProfiledBlock& block : program.blocks)
    stats.merge(mem::annotate_graph(block.graph, config));
  trace::MetricsRegistry& registry = trace::MetricsRegistry::global();
  registry.counter("isex_cache_accesses_total")
      .inc(static_cast<double>(stats.accesses));
  registry.counter("isex_cache_hits_total", {{"level", "l1"}})
      .inc(static_cast<double>(stats.l1_hits));
  registry.counter("isex_cache_hits_total", {{"level", "l2"}})
      .inc(static_cast<double>(stats.l2_hits));
  registry.counter("isex_cache_mem_accesses_total")
      .inc(static_cast<double>(stats.mem_accesses));
  registry.counter("isex_cache_annotated_nodes_total")
      .inc(static_cast<double>(stats.annotated_nodes));
  registry.gauge("isex_cache_last_l1_hit_rate").set(stats.l1_hit_rate());
  return stats;
}

namespace {

using KeyPair = std::pair<std::uint64_t, std::uint64_t>;

KeyPair key_pair(const runtime::Key128& key) { return {key.lo, key.hi}; }

/// One manifest row as the stages read it; the program is borrowed, so a
/// design flow never copies its input.
struct FlowInput {
  const ProfiledProgram* program = nullptr;
  double weight = 1.0;
};

/// What the shared stages produce.  The programs as the stages saw them
/// (cache-model annotated when one is set), the merged catalog and the hot
/// blocks' exact digests are kept for the portfolio's isomorphism telemetry.
struct FlowRun {
  PortfolioResult result;
  std::vector<ProfiledProgram> annotated;
  std::vector<const ProfiledProgram*> programs;
  std::vector<PortfolioCatalogEntry> catalog;
  std::vector<std::vector<KeyPair>> block_digests;
};

runtime::CacheStats stats_delta(const runtime::CacheStats& after,
                                const runtime::CacheStats& before) {
  runtime::CacheStats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.insertions = after.insertions - before.insertions;
  d.evictions = after.evictions - before.evictions;
  return d;
}

/// Exploration stage: every program's (hot block × repeat) jobs as one flat
/// pool batch, then best-of-repeats per (program, hot block).
///
/// Streams: every program derives its streams from a fresh Rng(seed) split
/// serially in (hot block, repeat) order — the order the serial best-of loop
/// used — so a program's explorations never depend on the rest of the
/// manifest or on the thread count.  Consequence: two jobs at the same
/// within-program index see the same stream, so when their blocks' exact
/// digests also match (common for shared kernels across manifest rows) the
/// jobs are identical end to end — explore once, hand the result to every
/// user (moved to the last one).  The dedup decision is made serially,
/// before the fan-out.
template <typename Explorer>
void explore_hot_blocks(const Explorer& explorer, const FlowConfig& config,
                        runtime::ThreadPool& pool, FlowRun& run) {
  using Clock = std::chrono::steady_clock;
  const auto plan_start = Clock::now();
  const std::vector<const ProfiledProgram*>& programs = run.programs;
  PortfolioResult& result = run.result;
  const auto per_block = static_cast<std::size_t>(config.repeats);
  std::vector<Rng> streams;
  std::vector<const dfg::Graph*> graphs;
  std::vector<std::size_t> users;
  std::vector<std::vector<std::size_t>> job_of(programs.size());
  run.block_digests.resize(programs.size());
  std::map<std::pair<std::size_t, KeyPair>, std::size_t> first_job;
  for (std::size_t p = 0; p < programs.size(); ++p) {
    const std::vector<std::size_t>& hot = result.programs[p].hot_blocks;
    Rng rng(config.seed);
    const std::vector<Rng> split = rng.split_n(hot.size() * per_block);
    for (const std::size_t bi : hot)
      run.block_digests[p].push_back(
          key_pair(runtime::graph_digest(programs[p]->blocks[bi].graph)));
    job_of[p].resize(split.size());
    for (std::size_t j = 0; j < split.size(); ++j) {
      const std::size_t hot_pos = j / per_block;
      const auto [it, inserted] = first_job.try_emplace(
          std::make_pair(j, run.block_digests[p][hot_pos]), streams.size());
      if (inserted) {
        graphs.push_back(&programs[p]->blocks[hot[hot_pos]].graph);
        streams.push_back(split[j]);
        users.push_back(0);
      } else {
        ++result.deduped_jobs;
      }
      job_of[p][j] = it->second;
      ++users[it->second];
    }
    result.total_jobs += split.size();
  }
  const auto plan_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           plan_start)
          .count());

  std::vector<core::ExplorationResult> unique = runtime::fanout_streams(
      pool, streams,
      [&](std::size_t i, Rng& stream) {
        return explorer.explore(*graphs[i], stream);
      },
      "flow.explore_hot_blocks", plan_ns);

  for (std::size_t p = 0; p < programs.size(); ++p) {
    PortfolioProgramResult& prog = result.programs[p];
    prog.explorations.reserve(prog.hot_blocks.size());
    for (std::size_t b = 0; b < prog.hot_blocks.size(); ++b) {
      std::vector<core::ExplorationResult> attempts;
      attempts.reserve(per_block);
      for (std::size_t r = 0; r < per_block; ++r) {
        const std::size_t u = job_of[p][b * per_block + r];
        if (--users[u] == 0)
          attempts.push_back(std::move(unique[u]));
        else
          attempts.push_back(unique[u]);
      }
      prog.explorations.push_back(
          core::MultiIssueExplorer::pick_best(std::move(attempts)));
    }
  }
}

/// The flow stages on validated input (Fig 3.1.1): cache-model annotation,
/// profiling + hot-block selection, exploration, weighted selection with
/// hardware sharing, replacement.  Every stage is a StageTimer — a
/// `stage:<name>` span when tracing — directly under the caller's span, and
/// nothing of substance runs between them, so the stages account for the
/// flow's wall clock.  Evaluations memoize through `cache`.
FlowRun run_stages(const std::vector<FlowInput>& inputs,
                   const hw::HwLibrary& library, const FlowConfig& config,
                   runtime::EvalCache& cache) {
  FlowRun run;
  PortfolioResult& result = run.result;
  result.programs.resize(inputs.size());
  std::vector<const ProfiledProgram*>& programs = run.programs;
  for (const FlowInput& input : inputs) programs.push_back(input.program);

  // 0. Memory-hierarchy annotation (docs/MEMORY.md).  Runs before profiling
  // so every stage downstream prices the same modeled load/store latencies,
  // and before the block digests are taken: annotated latencies are
  // scheduler input, so they are part of the dedup identity.  Inputs are
  // never mutated; with no cache model the legacy latencies stay.
  std::vector<ProfiledProgram>& annotated = run.annotated;
  if (config.cache) {
    const runtime::StageTimer timer("cache_model");
    annotated.reserve(inputs.size());
    for (std::size_t p = 0; p < inputs.size(); ++p) {
      annotated.push_back(*inputs[p].program);
      result.cache_stats.merge(
          annotate_program(annotated.back(), *config.cache));
      programs[p] = &annotated.back();
    }
    result.cache_modeled = true;
  }

  // 1. Profiling + hot-block selection, per program.
  {
    const runtime::StageTimer timer("profiling");
    for (std::size_t p = 0; p < inputs.size(); ++p) {
      PortfolioProgramResult& prog = result.programs[p];
      prog.name = programs[p]->name;
      prog.weight = inputs[p].weight;
      prog.hot_blocks =
          select_hot_blocks(profile_blocks(*programs[p], config.machine),
                            config.hot_coverage, config.max_hot_blocks);
    }
  }

  // 2. Exploration: the whole manifest as one pool batch.
  {
    const runtime::StageTimer timer("exploration");
    core::ExplorerParams params = config.params;
    params.eval_cache = &cache;
    isa::IsaFormat format;
    format.reg_file = config.machine.reg_file;
    format.max_ises = config.constraints.max_ises;

    std::unique_ptr<runtime::ThreadPool> private_pool;
    if (config.jobs > 0)
      private_pool = std::make_unique<runtime::ThreadPool>(config.jobs);
    runtime::ThreadPool& pool =
        private_pool ? *private_pool : runtime::ThreadPool::default_pool();

    const runtime::CacheStats before = cache.stats();
    if (config.algorithm == Algorithm::kMultiIssue) {
      const core::MultiIssueExplorer explorer(config.machine, format, library,
                                              params);
      explore_hot_blocks(explorer, config, pool, run);
    } else {
      const baseline::SingleIssueExplorer explorer(format, library, params);
      explore_hot_blocks(explorer, config, pool, run);
    }
    result.eval_cache_stats = stats_delta(cache.stats(), before);
  }

  // 3. Merging + weighted selection with hardware sharing over the merged
  // catalog, under the shared constraints.
  {
    const runtime::StageTimer timer("selection");
    for (std::size_t p = 0; p < inputs.size(); ++p) {
      const PortfolioProgramResult& prog = result.programs[p];
      for (PortfolioCatalogEntry& row :
           build_catalog(*programs[p], prog.hot_blocks, prog.explorations, p,
                         prog.weight))
        run.catalog.push_back(std::move(row));
    }
    result.selection = select_portfolio_ises(run.catalog, config.constraints);
  }

  // 4. Replacement and final scheduling, per program under its slice of the
  // selection.
  {
    const runtime::StageTimer timer("replacement");
    for (std::size_t p = 0; p < inputs.size(); ++p) {
      PortfolioProgramResult& prog = result.programs[p];
      prog.selection = program_selection(result.selection, p);
      prog.replacement = apply_selection(*programs[p], prog.selection,
                                         config.machine, config.replacement);
    }
  }
  return run;
}

/// Canonical-isomorphism telemetry: how much structure repeats across the
/// portfolio under node renumbering.  Detection only — exact digests stay
/// the cache currency (docs/PORTFOLIO.md).
void count_isomorphisms(FlowRun& run) {
  PortfolioResult& result = run.result;
  std::map<KeyPair, std::set<KeyPair>> canon_to_exact;
  std::map<KeyPair, std::size_t> canon_count;
  for (std::size_t p = 0; p < run.programs.size(); ++p) {
    const std::vector<std::size_t>& hot = result.programs[p].hot_blocks;
    for (std::size_t b = 0; b < hot.size(); ++b) {
      const KeyPair canon = key_pair(runtime::canonical_graph_digest(
          run.programs[p]->blocks[hot[b]].graph));
      canon_to_exact[canon].insert(run.block_digests[p][b]);
      ++canon_count[canon];
    }
  }
  for (const auto& [canon, count] : canon_count)
    if (count > 1 && canon_to_exact[canon].size() > 1)
      result.isomorphic_hot_blocks += count;

  std::vector<KeyPair> pattern_canon;
  pattern_canon.reserve(run.catalog.size());
  std::map<KeyPair, std::set<std::size_t>> pattern_programs;
  for (const PortfolioCatalogEntry& e : run.catalog) {
    pattern_canon.push_back(
        key_pair(runtime::canonical_graph_digest(e.entry.pattern)));
    pattern_programs[pattern_canon.back()].insert(e.program_index);
  }
  for (const KeyPair& canon : pattern_canon)
    if (pattern_programs[canon].size() > 1) ++result.isomorphic_candidates;
}

}  // namespace

FlowResult run_design_flow(const ProfiledProgram& program,
                           const hw::HwLibrary& library,
                           const FlowConfig& config) {
  Expected<FlowResult> result =
      run_design_flow_checked(program, library, config);
  if (!result) throw ValidationException(result.error());
  return std::move(result).value();
}

Expected<FlowResult> run_design_flow_checked(const ProfiledProgram& program,
                                             const hw::HwLibrary& library,
                                             const FlowConfig& config) {
  // Input boundary: reject malformed programs and configs before any stage
  // touches them — a validator-rejected input never reaches the explorer.
  {
    const runtime::StageTimer timer("validation");
    ValidationReport report = validate(config);
    report.merge(validate(program));
    if (!report.ok()) return report.first_error();
  }
  runtime::EvalCache& cache = config.params.eval_cache != nullptr
                                  ? *config.params.eval_cache
                                  : runtime::schedule_cache();
  FlowRun run = run_stages({FlowInput{&program, 1.0}}, library, config, cache);
  PortfolioProgramResult& own = run.result.programs.front();
  FlowResult result;
  result.replacement = std::move(own.replacement);
  result.selection = std::move(own.selection);
  result.hot_blocks = std::move(own.hot_blocks);
  result.explorations = std::move(own.explorations);
  result.cache_modeled = run.result.cache_modeled;
  result.cache_stats = run.result.cache_stats;
  return result;
}

PortfolioResult run_portfolio_flow(const std::vector<PortfolioEntry>& entries,
                                   const hw::HwLibrary& library,
                                   const PortfolioConfig& config) {
  Expected<PortfolioResult> result =
      run_portfolio_flow_checked(entries, library, config);
  if (!result) throw ValidationException(result.error());
  return std::move(result).value();
}

Expected<PortfolioResult> run_portfolio_flow_checked(
    const std::vector<PortfolioEntry>& entries, const hw::HwLibrary& library,
    const PortfolioConfig& config) {
  {
    const runtime::StageTimer timer("validation");
    ValidationReport report = validate(config.base);
    report.merge(validate(entries));
    if (!report.ok()) return report.first_error();
  }

  // Portfolio-scoped eval cache unless the caller supplied one: every
  // program's evaluations memoize through one instance, so identical
  // evaluations re-surfacing anywhere in the batch — across repeats,
  // rounds, blocks *and programs* — hit, and the reported dedup hit-rate is
  // attributable to this portfolio alone.
  std::unique_ptr<runtime::EvalCache> private_cache;
  runtime::EvalCache* cache = config.base.params.eval_cache;
  if (cache == nullptr) {
    private_cache = std::make_unique<runtime::EvalCache>();
    cache = private_cache.get();
  }

  std::vector<FlowInput> inputs;
  inputs.reserve(entries.size());
  for (const PortfolioEntry& entry : entries)
    inputs.push_back(FlowInput{&entry.program, entry.weight});
  FlowRun run = run_stages(inputs, library, config.base, *cache);
  count_isomorphisms(run);

  // Batch telemetry: the dedup hit-rate gauge plus per-program benefit.
  const PortfolioResult& result = run.result;
  trace::MetricsRegistry& registry = trace::MetricsRegistry::global();
  registry.counter("isex_portfolio_flows_total").inc();
  registry.counter("isex_portfolio_jobs_total")
      .inc(static_cast<double>(result.total_jobs));
  registry.counter("isex_portfolio_jobs_deduped_total")
      .inc(static_cast<double>(result.deduped_jobs));
  registry.gauge("isex_portfolio_dedup_hit_rate")
      .set(result.eval_cache_stats.hit_rate());
  for (const PortfolioProgramResult& prog : result.programs)
    registry
        .gauge("isex_portfolio_program_weighted_benefit",
               {{"program", prog.name}})
        .set(prog.weighted_benefit());

  return std::move(run.result);
}

}  // namespace isex::flow
