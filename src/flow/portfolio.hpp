// Batched portfolio design flow: one ISE set for N programs under a shared
// area budget (multi-application ASIP mode, Ragel et al. in PAPERS.md).
//
// run_portfolio_flow runs the design flow's stages (Fig 3.1.1) over a
// weighted manifest; run_design_flow is its one-entry, weight-1 case, and
// both run the same code (portfolio.cpp).  Against N independent flows,
// three things change, none of them the per-program exploration semantics:
//
//   * scheduling — every program's (hot block × repeat) exploration jobs are
//     flattened into ONE batch on the shared runtime pool, so a program with
//     a few small blocks no longer serializes the tail behind a big one.
//     Each program's RNG streams are split serially from its own
//     Rng(seed), so per-program exploration results are bit-identical to N
//     independent flows at any --jobs width.
//   * dedup — jobs whose (within-program job index, exact block digest) pair
//     repeats across programs have identical inputs AND identical RNG
//     streams, so they are explored once and the result is copied; below
//     that, every program's candidate/schedule evaluations share one
//     portfolio-scoped EvalCache (ExplorerParams::eval_cache), so identical
//     candidate evaluations re-surfacing anywhere in the batch hit instead
//     of re-scheduling.  The portfolio's dedup hit-rate is reported per run.
//     Unless base.params.eval_cache names a cache (the server points it at
//     the warm-started process cache), each call gets a private one.
//     Canonically isomorphic-but-renumbered blocks/candidates are *detected*
//     (canonical_graph_digest telemetry) but never share cached makespans:
//     the list scheduler breaks ties by node id, so only exact keys may
//     carry values (docs/PORTFOLIO.md).
//   * selection — the per-program catalogs merge into one weighted greedy
//     selection under the shared SelectionConstraints: rank by
//     benefit × weight, share ASFUs across programs via classify_merge, and
//     break ties by (weighted benefit desc, area asc, program/block/position
//     asc) — serial and index-ordered, bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "flow/design_flow.hpp"
#include "runtime/eval_cache.hpp"

namespace isex::flow {

/// One manifest row: a profiled program plus its execution-frequency weight
/// (relative share of deployed runtime; scales every block benefit in the
/// shared selection).
struct PortfolioEntry {
  ProfiledProgram program;
  double weight = 1.0;
};

struct PortfolioConfig {
  /// Shared per-program flow settings (machine, explorer params, repeats,
  /// seed, hot-block policy) and the *shared* selection constraints: the
  /// area budget / type budget apply to the whole portfolio, not per
  /// program.  base.params.eval_cache null (default) gives each call a
  /// private eval cache, which keeps the reported dedup hit-rate
  /// attributable to this portfolio alone.
  FlowConfig base;
};

/// Per-program slice of the portfolio outcome.
struct PortfolioProgramResult {
  std::string name;
  double weight = 1.0;
  std::vector<std::size_t> hot_blocks;
  /// Best-of-repeats exploration per hot block — bit-identical to what an
  /// independent run_design_flow(seed) would produce for this program.
  std::vector<core::ExplorationResult> explorations;
  /// This program's slice of the shared selection (type ids stay global).
  SelectionResult selection;
  ReplacementResult replacement;

  std::uint64_t base_time() const { return replacement.base_time; }
  std::uint64_t final_time() const { return replacement.final_time; }
  double reduction() const { return replacement.reduction(); }
  /// Raw cycles saved, before weighting.
  std::uint64_t cycles_saved() const {
    return replacement.base_time - replacement.final_time;
  }
  double weighted_benefit() const {
    return static_cast<double>(cycles_saved()) * weight;
  }
};

struct PortfolioResult {
  std::vector<PortfolioProgramResult> programs;
  PortfolioSelection selection;

  // --- batch-level telemetry ---
  /// Candidate/schedule evaluation dedup over the portfolio-scoped cache
  /// (delta over this run when an external cache was supplied).
  runtime::CacheStats eval_cache_stats;
  /// (hot block × repeat) jobs in the flat batch, before job-level dedup.
  std::uint64_t total_jobs = 0;
  /// Jobs skipped because an identical (index, block-digest) job already
  /// ran for an earlier program; their results were copied.
  std::uint64_t deduped_jobs = 0;
  /// Hot blocks that are canonically isomorphic to another portfolio hot
  /// block under node renumbering (detection only; exact keys differ).
  std::uint64_t isomorphic_hot_blocks = 0;
  /// Explored candidates whose pattern is canonically isomorphic to another
  /// program's candidate pattern.
  std::uint64_t isomorphic_candidates = 0;
  /// Memory-hierarchy model telemetry (FlowConfig::cache on base): true when
  /// the batch ran with annotated load/store latencies, plus the aggregate
  /// simulation counters across every program.
  bool cache_modeled = false;
  mem::CacheStats cache_stats;

  double total_area() const { return selection.total_area; }
  int num_ise_types() const { return selection.num_types; }
  double total_weighted_benefit() const {
    double sum = 0.0;
    for (const PortfolioProgramResult& p : programs)
      sum += p.weighted_benefit();
    return sum;
  }
};

/// Runs the portfolio flow.  Deterministic in config.base.seed; results are
/// never a function of the thread count.  Throws isex::ValidationException
/// on rejected input.
PortfolioResult run_portfolio_flow(const std::vector<PortfolioEntry>& entries,
                                   const hw::HwLibrary& library,
                                   const PortfolioConfig& config);

/// Non-throwing boundary (service and CLI callers).
Expected<PortfolioResult> run_portfolio_flow_checked(
    const std::vector<PortfolioEntry>& entries, const hw::HwLibrary& library,
    const PortfolioConfig& config);

}  // namespace isex::flow
