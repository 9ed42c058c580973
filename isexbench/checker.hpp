// Independent output checker of the isex benchmark.
//
// Every rule here is computed from the graphs, schedules and results alone,
// with this file's own opcode table, port counting and reachability walk:
// it calls none of the program's validators, analyses or schedule
// predicates, so a bug shared by the program and its own helpers still
// shows.  The rules are properties the method must have, not a stored copy
// of today's output:
//   * schedule legality of every original and rewritten block (dependences
//     against node latency; per-cycle issue width, register read/write
//     ports and FU counts; makespan = reported cycles; cycles ≥
//     ⌈nodes / issue width⌉);
//   * operation conservation (label multisets, ISE members counted);
//   * ISE legality of every selected ISE in its commit context (convex,
//     ISE-eligible opcodes only, IN/OUT within the ports and equal to the
//     reported counts), selected as a per-block commit-order prefix;
//   * budgets (area, distinct types) and time sums;
//   * no block slower than its original under the MI explorer.
#pragma once

#include <string>
#include <vector>

#include "flow/design_flow.hpp"
#include "flow/portfolio.hpp"
#include "sched/schedule.hpp"

namespace isexbench {

/// Violations found for one operation; empty means every rule held.
struct Verdict {
  std::vector<std::string> errors;
  void fail(std::string what) { errors.push_back(std::move(what)); }
  bool ok() const { return errors.empty(); }
};

/// Schedule legality of `schedule` for `graph` on `machine`.
void check_schedule(const isex::dfg::Graph& graph,
                    const isex::sched::MachineConfig& machine,
                    const isex::sched::Schedule& schedule,
                    const std::string& where, Verdict& verdict);

/// True when no path leaves `members` and re-enters it through a node
/// outside it (the checker's own forward walk).
bool convex(const isex::dfg::Graph& graph, const isex::dfg::NodeSet& members);

/// Checks one design flow.  `program` is the flow's input; `config` its
/// configuration (the cache model, when set, is re-applied to a copy so the
/// checker sees the latencies the flow priced).
Verdict check_flow(const isex::flow::ProfiledProgram& program,
                   const isex::flow::FlowConfig& config,
                   const isex::flow::FlowResult& result);

/// Checks one portfolio run; one verdict per program (a violated shared
/// budget fails every program).
std::vector<Verdict> check_portfolio(
    const std::vector<isex::flow::PortfolioEntry>& entries,
    const isex::flow::PortfolioConfig& config,
    const isex::flow::PortfolioResult& result);

/// Runs the checker on hand-built cases it must reject (a schedule that
/// oversubscribes register ports, a non-convex member set, a dependence
/// violation, a wrong makespan) and on legal ones it must accept.  Returns
/// the cases it got wrong; empty means the checker works.
std::vector<std::string> self_test();

}  // namespace isexbench
