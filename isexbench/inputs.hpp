// Workload inputs of the isex end-to-end benchmark.
//
// Every input is a pure function of the workload seed: the same seed gives
// the same programs, manifests, request mix and flow seeds.  The program
// under test only ever sees what these builders return.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flow/design_flow.hpp"
#include "flow/portfolio.hpp"
#include "mem/cache_model.hpp"
#include "sched/machine_config.hpp"

namespace isexbench {

/// The six §5.1 machines: (4/2, 2IS), (6/3, 2IS), (6/3, 3IS), (8/4, 3IS),
/// (8/4, 4IS), (10/5, 4IS).
std::vector<isex::sched::MachineConfig> paper_machines();

/// Area budget (µm²) of every flow of paper_sweep, large_blocks and the
/// service requests.
inline constexpr double kAreaBudget = 40000.0;

/// Shared area budget of each 20-program portfolio_cached run (three single
/// budgets).  It still binds, but leaves room for more than the few
/// heaviest programs, so the weighted reduction does not hinge on which of
/// them a seed's explorations happen to favour.
inline constexpr double kPortfolioBudget = 120000.0;

/// Memory-hierarchy model of portfolio_cached and the service cache_config
/// jobs: 1 KiB 2-way L1 (32 B lines, 1 cycle), 16 KiB 4-way L2 (64 B
/// lines, 6 cycles), 30-cycle memory.  Small enough that the suite's
/// strided and table-driven accesses miss.
inline constexpr const char* kCacheSpec =
    "l1_size=1k,l1_ways=2,l1_line=32,l1_hit=1,l2_size=16k,l2_ways=4,"
    "l2_line=64,l2_hit=6,mem=30";
isex::mem::CacheConfig cache_config();

/// One named TAC block, as the suites define it.
struct TacBlock {
  std::string name;
  std::string tac;
  std::uint64_t exec_count = 1;
};

/// One named program of the suites, with the TAC of its blocks.
struct SuiteProgram {
  std::string name;  ///< e.g. "CRC32-O3"
  std::vector<TacBlock> blocks;
  bool extended = false;  ///< AES / SHA-256 / Sobel rather than MiBench
};

/// The 14 MiBench-style programs (7 × O0/O3), then the 6 extended ones
/// (AES, SHA-256, Sobel × O0/O3).
std::vector<SuiteProgram> suite_programs(bool with_extended);

/// Parses every block of `program` into a profiled program (throws on a
/// parse error: the suites are known-good input).
isex::flow::ProfiledProgram profile(const SuiteProgram& program);

/// Renamed copies of `tac` chained into one block: copy c defines v_c for
/// each v the block defines, and each live-in of copy c > 0 is, with
/// probability 3/4, replaced by a live-out of copy c − 1 (both drawn from
/// `link_seed`); the rest stay shared live-ins.  The result is one
/// dependence-bound block of copies × |tac| operations.
std::string chain_tac(const std::string& tac, int copies,
                      std::uint64_t link_seed);

/// A resource-bound random DAG in TAC: `ops` operations in layers of
/// `width`, each reading one or two values of the previous two layers or a
/// live-in.  Two of every three operations are loads, so the single memory
/// unit, not dependences, bounds the schedule, and no ISE (which may not
/// contain a load) can shorten it.
std::string random_dag_tac(int ops, int width, std::uint64_t seed);

/// One design flow of a workload: a program, its machine, its config.
struct FlowCase {
  std::string label;  ///< "<program>@<machine label>"
  isex::flow::ProfiledProgram program;
  isex::flow::FlowConfig config;
};

/// paper_sweep: 14 suite programs × 6 machines, MI, best of 5, budget
/// kAreaBudget, flow seed drawn from `seed`.
std::vector<FlowCase> paper_sweep_cases(std::uint64_t seed);

/// large_blocks: single-block programs of ~100–300 ops (chained suite hot
/// blocks plus resource-bound random DAGs) on the (6/3, 2IS) machine.  The
/// first two (a DAG and the smallest chain) are the cheapest with an ISE.
std::vector<FlowCase> large_block_cases(std::uint64_t seed);

/// One portfolio_cached run: the weighted 20-program manifest on one
/// machine, with the cache model on.
struct PortfolioCase {
  std::string label;
  std::vector<isex::flow::PortfolioEntry> entries;
  isex::flow::PortfolioConfig config;
};
std::vector<PortfolioCase> portfolio_cases(std::uint64_t seed);

/// service_mix: the distinct request lines of one pass (each is sent twice
/// in phase 1 and replayed once after the restart).
struct ServiceJob {
  std::string line;  ///< one JSON request, no newline
  bool portfolio = false;
};
std::vector<ServiceJob> service_jobs(std::uint64_t seed);

/// The order phase 1 sends the doubled job list in (indices into the
/// distinct list, each appearing twice).
std::vector<std::size_t> service_order(std::size_t distinct,
                                       std::uint64_t seed);

}  // namespace isexbench
