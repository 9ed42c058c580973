#include "checker.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <set>

#include "sched/list_scheduler.hpp"

namespace isexbench {

namespace dfg = isex::dfg;
namespace flow = isex::flow;
namespace isa = isex::isa;
namespace sched = isex::sched;

namespace {

// The checker's own reading of the PISA subset (§5.1): functional unit,
// register sources, whether a result is written, and whether §4.2 lets the
// opcode into an ISE (no load, store or branch).
struct OpFacts {
  isa::FuClass fu = isa::FuClass::kAlu;
  int srcs = 2;
  bool dst = true;
  bool ise_ok = true;
};

OpFacts facts(isa::Opcode op) {
  using O = isa::Opcode;
  using F = isa::FuClass;
  switch (op) {
    case O::kMult: case O::kMultu: return {F::kMult, 2, true, true};
    case O::kDiv: case O::kDivu: return {F::kDiv, 2, true, true};
    case O::kLw: case O::kLh: case O::kLhu: case O::kLb: case O::kLbu:
      return {F::kMem, 1, true, false};
    case O::kSw: case O::kSh: case O::kSb: return {F::kMem, 2, false, false};
    case O::kBeq: case O::kBne: return {F::kBranch, 2, false, false};
    case O::kNop: return {F::kAlu, 0, false, false};
    case O::kLui: return {F::kAlu, 0, true, true};
    case O::kAddi: case O::kAddiu: case O::kAndi: case O::kOri:
    case O::kXori: case O::kSll: case O::kSrl: case O::kSra:
    case O::kSlti: case O::kSltiu: case O::kMov:
      return {F::kAlu, 1, true, true};
    default: return {F::kAlu, 2, true, true};
  }
}

int latency(const dfg::Node& n) {
  if (n.is_ise) return n.ise.latency_cycles;
  return n.mem_latency > 0 ? n.mem_latency : 1;
}

int reads(const dfg::Graph& g, dfg::NodeId v) {
  const dfg::Node& n = g.node(v);
  if (n.is_ise) return n.ise.num_inputs;
  const int operands = static_cast<int>(g.preds(v).size()) + g.extern_inputs(v);
  return std::min(operands, facts(n.opcode).srcs);
}

int writes(const dfg::Graph& g, dfg::NodeId v) {
  const dfg::Node& n = g.node(v);
  if (n.is_ise) return n.ise.num_outputs;
  return facts(n.opcode).dst ? 1 : 0;
}

std::string label_of(const dfg::Node& n) {
  return n.label.empty() ? std::string(isa::mnemonic(n.opcode)) : n.label;
}

// Makespan of a schedule as the checker computes it.
int makespan(const dfg::Graph& g, const sched::Schedule& s) {
  int end = 0;
  for (dfg::NodeId v = 0; v < g.num_nodes(); ++v)
    end = std::max(end, s.slot[v] + latency(g.node(v)));
  return end;
}

// Schedules `g` with the program's scheduler, checks the schedule, and
// returns the makespan the checker derives from it (-1 if illegal).
int checked_cycles(const dfg::Graph& g, const sched::MachineConfig& machine,
                   const std::string& where, Verdict& verdict) {
  const sched::Schedule s = sched::ListScheduler(machine).run(g);
  const std::size_t before = verdict.errors.size();
  check_schedule(g, machine, s, where, verdict);
  return verdict.errors.size() == before ? makespan(g, s) : -1;
}

// Label multiset of a block, each ISE counted by its member labels.
std::multiset<std::string> labels(const dfg::Graph& g) {
  std::multiset<std::string> out;
  for (dfg::NodeId v = 0; v < g.num_nodes(); ++v) {
    const dfg::Node& n = g.node(v);
    if (n.is_ise) {
      out.insert(n.ise.member_labels.begin(), n.ise.member_labels.end());
    } else {
      out.insert(label_of(n));
    }
  }
  return out;
}

// True when no path leaves the `member` nodes and re-enters them: walk
// forward from the members' outside successors through outside nodes only;
// reaching a member is a violation.  `succ` lists each node's successors.
bool convex_walk(const std::vector<std::vector<std::size_t>>& succ,
                 const std::vector<bool>& member) {
  std::vector<bool> seen(succ.size(), false);
  std::vector<std::size_t> stack;
  for (std::size_t v = 0; v < succ.size(); ++v)
    if (member[v])
      for (const std::size_t w : succ[v])
        if (!member[w] && !seen[w]) {
          seen[w] = true;
          stack.push_back(w);
        }
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    for (const std::size_t w : succ[u]) {
      if (member[w]) return false;
      if (!seen[w]) {
        seen[w] = true;
        stack.push_back(w);
      }
    }
  }
  return true;
}

// Selected ISEs of one block, checked in their commit context: the block
// with every earlier selected ISE of it collapsed into one unit.
void check_block_ises(const dfg::Graph& block,
                      std::vector<const flow::SelectedIse*> own,
                      const isa::RegisterFileConfig& ports,
                      const std::string& where, Verdict& verdict) {
  std::sort(own.begin(), own.end(), [](const auto* a, const auto* b) {
    return a->entry.position < b->entry.position;
  });
  const std::size_t n = block.num_nodes();
  std::vector<std::size_t> unit(n);
  for (std::size_t v = 0; v < n; ++v) unit[v] = v;
  std::vector<bool> taken(n, false);

  for (std::size_t k = 0; k < own.size(); ++k) {
    const flow::SelectedIse& sel = *own[k];
    const std::string at = where + " ise#" + std::to_string(sel.entry.position);
    if (sel.entry.position != k)
      verdict.fail(at + ": selection is not a commit-order prefix of the block");
    const dfg::NodeSet& members = sel.entry.ise.original_nodes;
    if (members.universe() != n) {
      verdict.fail(at + ": member set is over another graph");
      return;
    }
    std::vector<dfg::NodeId> list;
    members.for_each([&](dfg::NodeId v) { list.push_back(v); });
    if (list.size() < 2) verdict.fail(at + ": fewer than two members");
    for (const dfg::NodeId v : list) {
      if (taken[v]) verdict.fail(at + ": member already in an earlier ISE");
      if (block.node(v).is_ise || !facts(block.node(v).opcode).ise_ok)
        verdict.fail(at + ": member '" + label_of(block.node(v)) +
                     "' is a load, store, branch or nop");
    }

    // Convexity on the unit graph.
    std::vector<std::vector<std::size_t>> succ(n);
    for (dfg::NodeId u = 0; u < n; ++u)
      for (const dfg::NodeId w : block.succs(u))
        if (unit[u] != unit[w]) succ[unit[u]].push_back(unit[w]);
    std::vector<bool> member(n, false);
    for (const dfg::NodeId v : list) member[v] = true;
    if (!convex_walk(succ, member)) verdict.fail(at + ": not convex in its home block");

    // IN: distinct live-in values plus distinct outside producer units.
    // OUT: members whose value is live-out or read outside the set.
    std::set<int> values;
    std::set<std::size_t> producers;
    int out = 0;
    for (const dfg::NodeId v : list) {
      for (const int id : block.extern_input_ids(v)) values.insert(id);
      for (const dfg::NodeId p : block.preds(v))
        if (!members.contains(p)) producers.insert(unit[p]);
      bool escapes = block.live_out(v);
      for (const dfg::NodeId s : block.succs(v)) escapes = escapes || !members.contains(s);
      if (escapes) ++out;
    }
    const int in = static_cast<int>(values.size() + producers.size());
    if (in > ports.read_ports || out > ports.write_ports)
      verdict.fail(at + ": IN/OUT " + std::to_string(in) + "/" +
                   std::to_string(out) + " exceed ports " + ports.label());
    if (in != sel.entry.ise.in_count || out != sel.entry.ise.out_count)
      verdict.fail(at + ": IN/OUT " + std::to_string(in) + "/" +
                   std::to_string(out) + " but reported " +
                   std::to_string(sel.entry.ise.in_count) + "/" +
                   std::to_string(sel.entry.ise.out_count));

    for (const dfg::NodeId v : list) {
      taken[v] = true;
      unit[v] = list.front();
    }
  }
}

// Rules shared by a design flow and one portfolio program: schedules, time
// sums, conservation, ISE legality, no slowdown.
void check_program(const flow::ProfiledProgram& program,
                   const sched::MachineConfig& machine, bool mi,
                   const std::vector<std::size_t>& hot_blocks,
                   const flow::SelectionResult& selection,
                   const flow::ReplacementResult& replacement,
                   Verdict& verdict) {
  const std::size_t blocks = program.blocks.size();
  if (replacement.rewritten.size() != blocks || replacement.outcomes.size() != blocks) {
    verdict.fail(program.name + ": replacement does not cover every block");
    return;
  }
  std::uint64_t base_time = 0;
  std::uint64_t final_time = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const flow::ProfiledBlock& block = program.blocks[b];
    const flow::BlockOutcome& outcome = replacement.outcomes[b];
    const dfg::Graph& rewritten = replacement.rewritten[b];
    const std::string where = program.name + "/" + block.name;
    if (outcome.exec_count != block.exec_count)
      verdict.fail(where + ": execution count changed");
    const int base = checked_cycles(block.graph, machine, where + " (original)", verdict);
    const int final_cycles = checked_cycles(rewritten, machine, where + " (rewritten)", verdict);
    if (base != outcome.base_cycles || final_cycles != outcome.final_cycles)
      verdict.fail(where + ": reported cycles " + std::to_string(outcome.base_cycles) +
                   "->" + std::to_string(outcome.final_cycles) + ", checker " +
                   std::to_string(base) + "->" + std::to_string(final_cycles));
    if (mi && outcome.final_cycles > outcome.base_cycles)
      verdict.fail(where + ": slower after ISE replacement under MI");
    if (labels(block.graph) != labels(rewritten))
      verdict.fail(where + ": rewritten block does not conserve the operations");
    base_time += block.exec_count * static_cast<std::uint64_t>(std::max(base, 0));
    final_time += block.exec_count * static_cast<std::uint64_t>(std::max(final_cycles, 0));

    std::vector<const flow::SelectedIse*> own;
    for (const flow::SelectedIse& sel : selection.selected)
      if (sel.entry.block_index == b) own.push_back(&sel);
    if (!own.empty() &&
        std::find(hot_blocks.begin(), hot_blocks.end(), b) == hot_blocks.end())
      verdict.fail(where + ": ISE selected in a block that was not explored");
    check_block_ises(block.graph, std::move(own), machine.reg_file, where, verdict);
  }
  for (const flow::SelectedIse& sel : selection.selected)
    if (sel.entry.block_index >= blocks)
      verdict.fail(program.name + ": ISE selected in a block that does not exist");
  if (base_time != replacement.base_time || final_time != replacement.final_time)
    verdict.fail(program.name + ": time sums " + std::to_string(replacement.base_time) +
                 "/" + std::to_string(replacement.final_time) + ", checker " +
                 std::to_string(base_time) + "/" + std::to_string(final_time));
}

void check_budget(double total_area, int num_types, const std::set<int>& types,
                  const flow::SelectionConstraints& constraints,
                  Verdict& verdict) {
  if (total_area > constraints.area_budget * (1.0 + 1e-9))
    verdict.fail("selected area " + std::to_string(total_area) + " over budget " +
                 std::to_string(constraints.area_budget));
  if (num_types > constraints.max_ises)
    verdict.fail(std::to_string(num_types) + " ISE types over budget " +
                 std::to_string(constraints.max_ises));
  if (static_cast<int>(types.size()) != num_types)
    verdict.fail("reported " + std::to_string(num_types) + " ISE types, selection has " +
                 std::to_string(types.size()));
}

flow::ProfiledProgram as_priced(const flow::ProfiledProgram& program,
                                const flow::FlowConfig& config) {
  flow::ProfiledProgram copy = program;
  if (config.cache) flow::annotate_program(copy, *config.cache);
  return copy;
}

}  // namespace

void check_schedule(const dfg::Graph& g, const sched::MachineConfig& machine,
                    const sched::Schedule& s, const std::string& where,
                    Verdict& verdict) {
  const std::size_t n = g.num_nodes();
  if (s.slot.size() != n) {
    verdict.fail(where + ": schedule does not place every node");
    return;
  }
  int last = 0;
  for (dfg::NodeId v = 0; v < n; ++v) {
    if (s.slot[v] < 0) {
      verdict.fail(where + ": node placed before cycle 0");
      return;
    }
    last = std::max(last, s.slot[v]);
  }
  for (dfg::NodeId u = 0; u < n; ++u)
    for (const dfg::NodeId v : g.succs(u))
      if (s.slot[v] < s.slot[u] + latency(g.node(u)))
        verdict.fail(where + ": node " + std::to_string(v) + " issues at " +
                     std::to_string(s.slot[v]) + " before its operand from node " +
                     std::to_string(u) + " is ready");

  struct Use {
    int issue = 0, reads = 0, writes = 0;
    std::array<int, sched::kNumFuClasses> fu{};
  };
  std::vector<Use> use(n == 0 ? 0 : static_cast<std::size_t>(last) + 1);
  for (dfg::NodeId v = 0; v < n; ++v) {
    Use& u = use[static_cast<std::size_t>(s.slot[v])];
    ++u.issue;
    u.reads += reads(g, v);
    u.writes += writes(g, v);
    if (!g.node(v).is_ise) ++u.fu[static_cast<std::size_t>(facts(g.node(v).opcode).fu)];
  }
  for (std::size_t c = 0; c < use.size(); ++c) {
    const Use& u = use[c];
    const std::string at = where + " cycle " + std::to_string(c);
    if (u.issue > machine.issue_width) verdict.fail(at + ": issue width exceeded");
    if (u.reads > machine.reg_file.read_ports) verdict.fail(at + ": register read ports exceeded");
    if (u.writes > machine.reg_file.write_ports) verdict.fail(at + ": register write ports exceeded");
    for (std::size_t f = 0; f < sched::kNumFuClasses; ++f)
      if (u.fu[f] > machine.fu_counts[f])
        verdict.fail(at + ": functional unit class " + std::to_string(f) + " oversubscribed");
  }
  if (n > 0 && makespan(g, s) != s.cycles)
    verdict.fail(where + ": makespan " + std::to_string(makespan(g, s)) +
                 " but schedule reports " + std::to_string(s.cycles));
  const int floor = static_cast<int>((n + static_cast<std::size_t>(machine.issue_width) - 1) /
                                     static_cast<std::size_t>(machine.issue_width));
  if (s.cycles < floor)
    verdict.fail(where + ": " + std::to_string(s.cycles) + " cycles is below ceil(nodes / issue width)");
}

bool convex(const dfg::Graph& g, const dfg::NodeSet& members) {
  std::vector<std::vector<std::size_t>> succ(g.num_nodes());
  std::vector<bool> member(g.num_nodes(), false);
  for (dfg::NodeId v = 0; v < g.num_nodes(); ++v) {
    succ[v].assign(g.succs(v).begin(), g.succs(v).end());
    member[v] = members.contains(v);
  }
  return convex_walk(succ, member);
}

Verdict check_flow(const flow::ProfiledProgram& program,
                   const flow::FlowConfig& config,
                   const flow::FlowResult& result) {
  Verdict verdict;
  const flow::ProfiledProgram priced = as_priced(program, config);
  check_program(priced, config.machine,
                config.algorithm == flow::Algorithm::kMultiIssue,
                result.hot_blocks, result.selection, result.replacement, verdict);
  std::set<int> types;
  for (const flow::SelectedIse& sel : result.selection.selected) types.insert(sel.type_id);
  check_budget(result.selection.total_area, result.selection.num_types, types,
               config.constraints, verdict);
  return verdict;
}

std::vector<Verdict> check_portfolio(const std::vector<flow::PortfolioEntry>& entries,
                                     const flow::PortfolioConfig& config,
                                     const flow::PortfolioResult& result) {
  std::vector<Verdict> verdicts(entries.size());
  Verdict shared;
  std::set<int> types;
  for (const flow::PortfolioSelectedIse& sel : result.selection.selected)
    types.insert(sel.type_id);
  check_budget(result.selection.total_area, result.selection.num_types, types,
               config.base.constraints, shared);
  if (result.programs.size() != entries.size())
    shared.fail("portfolio result does not cover every program");
  for (std::size_t p = 0; p < entries.size(); ++p) {
    verdicts[p] = shared;
    if (p >= result.programs.size()) continue;
    const flow::PortfolioProgramResult& r = result.programs[p];
    const flow::ProfiledProgram priced = as_priced(entries[p].program, config.base);
    check_program(priced, config.base.machine,
                  config.base.algorithm == flow::Algorithm::kMultiIssue,
                  r.hot_blocks, r.selection, r.replacement, verdicts[p]);
  }
  return verdicts;
}

std::vector<std::string> self_test() {
  std::vector<std::string> wrong;
  const auto expect = [&](bool rejected, bool should_reject, const std::string& name) {
    if (rejected != should_reject)
      wrong.push_back(name + (should_reject ? ": accepted, must be rejected"
                                            : ": rejected, must be accepted"));
  };
  const auto rejects = [](const dfg::Graph& g, const sched::MachineConfig& m,
                          const sched::Schedule& s, const std::string& needle) {
    Verdict v;
    check_schedule(g, m, s, "self-test", v);
    for (const std::string& e : v.errors)
      if (needle.empty() || e.find(needle) != std::string::npos) return true;
    return false;
  };

  // Three independent two-operand adds issued in one cycle of a 4-issue,
  // 4/2-port machine need six reads and three writes.
  const sched::MachineConfig wide = sched::MachineConfig::make(4, {4, 2});
  dfg::Graph adds;
  for (const char* label : {"a0", "a1", "a2"}) {
    const dfg::NodeId v = adds.add_node(isa::Opcode::kAddu, label);
    adds.set_extern_inputs(v, 2);
  }
  sched::Schedule together{{0, 0, 0}, 1};
  expect(rejects(adds, wide, together, "read ports"), true, "oversubscribed read ports");
  expect(rejects(adds, wide, together, "write ports"), true, "oversubscribed write ports");
  expect(rejects(adds, wide, sched::ListScheduler(wide).run(adds), ""), false,
         "list schedule of three adds");

  // Two multiplies in one cycle with one multiplier.
  dfg::Graph mults;
  for (const char* label : {"m0", "m1"}) {
    const dfg::NodeId v = mults.add_node(isa::Opcode::kMult, label);
    mults.set_extern_inputs(v, 1);
  }
  expect(rejects(mults, wide, sched::Schedule{{0, 0}, 1}, "functional unit"), true,
         "two multiplies on one multiplier");

  // a -> b -> c plus a -> c: {a, c} is not convex (the path through b
  // leaves and re-enters it); a consumer issued with its producer breaks a
  // dependence; a wrong makespan is caught.
  dfg::Graph chain;
  const dfg::NodeId a = chain.add_node(isa::Opcode::kXor, "a");
  const dfg::NodeId b = chain.add_node(isa::Opcode::kSrl, "b");
  const dfg::NodeId c = chain.add_node(isa::Opcode::kAnd, "c");
  chain.set_extern_inputs(a, 2);
  chain.add_edge(a, b);
  chain.add_edge(b, c);
  chain.add_edge(a, c);
  expect(!convex(chain, dfg::NodeSet::of(3, {a, c})), true, "non-convex {a, c}");
  expect(!convex(chain, dfg::NodeSet::of(3, {a, b, c})), false, "convex {a, b, c}");
  expect(!convex(chain, dfg::NodeSet::of(3, {b, c})), false, "convex {b, c}");
  const sched::MachineConfig narrow = sched::MachineConfig::make(2, {4, 2});
  expect(rejects(chain, narrow, sched::Schedule{{0, 0, 1}, 2}, "before its operand"), true,
         "dependence violation");
  expect(rejects(chain, narrow, sched::Schedule{{0, 1, 2}, 4}, "makespan"), true,
         "wrong makespan");
  expect(rejects(chain, narrow, sched::Schedule{{0, 1, 2}, 3}, ""), false,
         "legal chain schedule");
  return wrong;
}

}  // namespace isexbench
