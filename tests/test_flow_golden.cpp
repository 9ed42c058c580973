// Golden flow-level digests: the design flow's and the portfolio flow's
// observable results (server::flow_result_digest / portfolio_result_digest)
// pinned over the suite programs, so a refactor of the flow stages that
// changes any hot block, selected ISE, ASFU type, area or replaced cycle
// count fails here.  The walk/explore goldens live in test_mi_explorer.cpp;
// these cover profiling, selection with hardware sharing, replacement and
// the cache model on top of them.
//
// Suites are named DesignFlow* / Portfolio* so the CI TSan job's regex picks
// them up.  On a deliberate result change, the failure message prints each
// new digest.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "bench_suite/kernels.hpp"
#include "flow/portfolio.hpp"
#include "server/protocol.hpp"

namespace isex {
namespace {

using bench_suite::Benchmark;
using bench_suite::OptLevel;

constexpr double kAreaBudget = 40000.0;

flow::FlowConfig golden_config(const sched::MachineConfig& machine) {
  flow::FlowConfig c;
  c.machine = machine;
  c.repeats = 3;
  c.seed = 7;
  c.constraints.area_budget = kAreaBudget;
  return c;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

/// Runs the flow on every (benchmark, level) pair and compares each digest
/// against `want`, in all_benchmarks() order with O0 before O3.
void expect_flow_digests(const std::vector<OptLevel>& levels,
                         const flow::FlowConfig& config,
                         const std::vector<std::uint64_t>& want) {
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();
  std::size_t i = 0;
  for (const OptLevel level : levels) {
    for (const Benchmark b : bench_suite::all_benchmarks()) {
      const flow::ProfiledProgram program =
          bench_suite::make_program(b, level);
      const std::uint64_t got = server::flow_result_digest(
          flow::run_design_flow(program, lib, config));
      ASSERT_LT(i, want.size()) << program.name << " got " << hex(got);
      EXPECT_EQ(hex(got), hex(want[i])) << program.name;
      ++i;
    }
  }
  EXPECT_EQ(i, want.size());
}

TEST(DesignFlowGolden, MultiIssueSuiteOn2Issue42) {
  expect_flow_digests(
      {OptLevel::kO0, OptLevel::kO3},
      golden_config(sched::MachineConfig::make(2, {4, 2})),
      {0x32f604982d6511bfULL, 0x0061a4fcae76be34ULL,
       0x585a5ff981f91786ULL, 0x760026d62d772d06ULL,
       0xdc4f4c8d86aad462ULL, 0x1983a5c25e0dcad8ULL,
       0x3d7ea2fe89dffaeeULL, 0x9e65afcc29c029afULL,
       0xcb68c602938437dbULL, 0x349e9cbc0825829dULL,
       0xa17637dd2b4bb30fULL, 0xeaf3b8d5e5b965b6ULL,
       0x0aab41383f87a592ULL, 0xa00b754457e43e3fULL});
}

TEST(DesignFlowGolden, MultiIssueSuiteOn4Issue105) {
  expect_flow_digests(
      {OptLevel::kO0, OptLevel::kO3},
      golden_config(sched::MachineConfig::make(4, {10, 5})),
      {0x2711d6b4673d0e86ULL, 0xee1e9f31596df753ULL,
       0x8f3dc1ae481017c1ULL, 0x760026d62d772d06ULL,
       0x74b2fa4daa706539ULL, 0x48b3e1f3a17a8795ULL,
       0x3d7ea2fe89dffaeeULL, 0x3d0ea2da6f81188dULL,
       0x018cd81760ae54b6ULL, 0x1d2196f0c3b391c0ULL,
       0x8caf5a84b81d704bULL, 0xc97fcb1a6941870aULL,
       0xbb56bdbaa81484f0ULL, 0x39a840295cb2a784ULL});
}

TEST(DesignFlowGolden, SingleIssueO3) {
  flow::FlowConfig c = golden_config(sched::MachineConfig::make(2, {4, 2}));
  c.algorithm = flow::Algorithm::kSingleIssue;
  expect_flow_digests(
      {OptLevel::kO3}, c,
      {0xd09f7a7ba23aa98cULL, 0xe98f0de087c62c1eULL,
       0x2ed075aeff7f2379ULL, 0x260f122b94e95dbeULL,
       0xf50cf0c1f99dcc84ULL, 0x0669834c3fcb3540ULL,
       0x521607197dd8a6f1ULL});
}

TEST(DesignFlowGolden, CacheModelO3) {
  flow::FlowConfig c = golden_config(sched::MachineConfig::make(2, {6, 3}));
  Expected<mem::CacheConfig> cache = mem::parse_cache_config(
      "l1_size=1k,l1_ways=2,l1_line=32,l1_hit=1,l2_size=16k,l2_ways=4,"
      "l2_line=64,l2_hit=6,mem=30");
  ASSERT_TRUE(cache.has_value());
  c.cache = *cache;
  expect_flow_digests(
      {OptLevel::kO3}, c,
      {0xe41bed5080863831ULL, 0x4a95063291d04ca7ULL,
       0xc7c854df7c77c5eaULL, 0x52bebd5c83eb07ceULL,
       0x2d312df64889db66ULL, 0xcd1f3e9f2bb747c8ULL,
       0x5a9b542d051ec64aULL});
}

TEST(PortfolioGolden, WeightedManifest) {
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();
  std::vector<flow::PortfolioEntry> entries;
  const std::tuple<Benchmark, OptLevel, double> rows[] = {
      {Benchmark::kCrc32, OptLevel::kO3, 3.0},
      {Benchmark::kBlowfish, OptLevel::kO3, 1.5},
      {Benchmark::kCrc32, OptLevel::kO3, 1.0}};
  for (const auto& [benchmark, level, weight] : rows) {
    flow::PortfolioEntry entry;
    entry.program = bench_suite::make_program(benchmark, level);
    entry.weight = weight;
    entries.push_back(std::move(entry));
  }
  flow::PortfolioConfig config;
  config.base = golden_config(sched::MachineConfig::make(3, {6, 3}));
  const flow::PortfolioResult r =
      flow::run_portfolio_flow(entries, lib, config);
  EXPECT_EQ(hex(server::portfolio_result_digest(r)),
            hex(0xfc68920222905f6fULL));
  EXPECT_EQ(r.isomorphic_hot_blocks, 0u);
  EXPECT_EQ(r.isomorphic_candidates, 6u);
}

}  // namespace
}  // namespace isex
