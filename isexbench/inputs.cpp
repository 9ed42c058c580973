#include "inputs.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "bench_suite/extended.hpp"
#include "bench_suite/kernels.hpp"
#include "isa/tac_parser.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace isexbench {

using isex::Rng;
namespace flow = isex::flow;
namespace sched = isex::sched;
namespace suite = isex::bench_suite;

namespace {

// Seed streams: one per use, so adding a use never shifts another's values.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + stream;
  return isex::splitmix64(state);
}

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// One TAC statement split into its parts: "dest = op a, b", "sw [p], v" or
// "live_out a, b".  Comments and blank lines are dropped.
struct Stmt {
  std::string dest;                  // empty for stores and live_out
  std::string op;                    // mnemonic, or "live_out"
  std::vector<std::string> operands;  // raw operand text ("x", "4", "[p]")
};

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

std::vector<Stmt> split_tac(const std::string& tac) {
  std::vector<Stmt> out;
  std::istringstream in(tac);
  std::string line;
  while (std::getline(in, line)) {
    if (const std::size_t hash = line.find('#'); hash != std::string::npos)
      line.resize(hash);
    line = trim(line);
    if (line.empty()) continue;
    Stmt st;
    std::string rest;
    if (const std::size_t eq = line.find('='); eq != std::string::npos) {
      st.dest = trim(line.substr(0, eq));
      rest = trim(line.substr(eq + 1));
    } else {
      rest = line;
    }
    const std::size_t sp = rest.find_first_of(" \t");
    st.op = rest.substr(0, sp);
    if (sp != std::string::npos) {
      std::string args = rest.substr(sp + 1);
      std::size_t start = 0;
      while (start <= args.size()) {
        const std::size_t comma = args.find(',', start);
        const std::string arg = trim(args.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start));
        if (!arg.empty()) st.operands.push_back(arg);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    }
    out.push_back(std::move(st));
  }
  return out;
}

// Identifier inside an operand ("x" or "[x]"); empty for a literal.
std::string operand_var(const std::string& operand) {
  std::string s = operand;
  if (!s.empty() && s.front() == '[') s = s.substr(1, s.size() - 2);
  s = trim(s);
  return !s.empty() && is_ident_start(s.front()) ? s : std::string();
}

std::string rename_operand(const std::string& operand,
                           const std::map<std::string, std::string>& names) {
  const std::string var = operand_var(operand);
  if (var.empty()) return operand;
  const auto it = names.find(var);
  const std::string mapped = it == names.end() ? var : it->second;
  return operand.front() == '[' ? "[" + mapped + "]" : mapped;
}

std::string render(const Stmt& st) {
  std::string line = "  ";
  if (!st.dest.empty()) line += st.dest + " = ";
  line += st.op;
  for (std::size_t i = 0; i < st.operands.size(); ++i)
    line += (i == 0 ? " " : ", ") + st.operands[i];
  return line + "\n";
}

flow::ProfiledProgram single_block_program(const std::string& name,
                                           const std::string& tac) {
  flow::ProfiledProgram program;
  program.name = name;
  program.blocks.push_back(
      flow::ProfiledBlock{"kernel", isex::isa::parse_tac(tac).graph, 1});
  return program;
}

// `prefix` followed by `i` ("k12").
std::string numbered(const char* prefix, std::size_t i) {
  std::string s(prefix);
  s += std::to_string(i);
  return s;
}

std::string json_request(const std::string& id, const std::string& body) {
  return "{\"id\":\"" + id + "\"," + body + "}";
}

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

isex::mem::CacheConfig cache_config() {
  isex::Expected<isex::mem::CacheConfig> parsed =
      isex::mem::parse_cache_config(kCacheSpec);
  if (!parsed) throw std::runtime_error(parsed.error().to_string());
  return *parsed;
}

std::vector<SuiteProgram> suite_programs(bool with_extended) {
  std::vector<SuiteProgram> out;
  for (const suite::OptLevel level : {suite::OptLevel::kO0, suite::OptLevel::kO3}) {
    for (const suite::Benchmark b : suite::all_benchmarks()) {
      SuiteProgram p;
      p.name = std::string(suite::name(b)) + "-" + std::string(suite::name(level));
      for (const suite::KernelBlockDef& def : suite::kernel_blocks(b, level))
        p.blocks.push_back(TacBlock{def.name, std::string(def.tac), def.exec_count});
      out.push_back(std::move(p));
    }
  }
  if (!with_extended) return out;
  for (const suite::OptLevel level : {suite::OptLevel::kO0, suite::OptLevel::kO3}) {
    for (const suite::ExtraBenchmark b : suite::all_extra_benchmarks()) {
      SuiteProgram p;
      p.name = std::string(suite::name(b)) + "-" + std::string(suite::name(level));
      p.extended = true;
      for (const suite::KernelBlockDef& def : suite::extra_kernel_blocks(b, level))
        p.blocks.push_back(TacBlock{def.name, std::string(def.tac), def.exec_count});
      out.push_back(std::move(p));
    }
  }
  return out;
}

flow::ProfiledProgram profile(const SuiteProgram& program) {
  flow::ProfiledProgram out;
  out.name = program.name;
  for (const TacBlock& block : program.blocks) {
    out.blocks.push_back(flow::ProfiledBlock{
        block.name, isex::isa::parse_tac(block.tac).graph, block.exec_count});
  }
  return out;
}

std::string chain_tac(const std::string& tac, int copies,
                      std::uint64_t link_seed) {
  const std::vector<Stmt> stmts = split_tac(tac);
  std::set<std::string> defined;
  std::vector<std::string> live_ins;  // first-use order
  std::vector<std::string> outs;      // explicit live_out list
  std::set<std::string> consumed;
  for (const Stmt& st : stmts) {
    if (st.op == "live_out") {
      for (const std::string& v : st.operands) outs.push_back(v);
      continue;
    }
    for (const std::string& operand : st.operands) {
      const std::string var = operand_var(operand);
      if (var.empty()) continue;
      consumed.insert(var);
      if (defined.count(var) == 0 &&
          std::find(live_ins.begin(), live_ins.end(), var) == live_ins.end())
        live_ins.push_back(var);
    }
    if (!st.dest.empty()) defined.insert(st.dest);
  }
  if (outs.empty()) {
    for (const Stmt& st : stmts)
      if (!st.dest.empty() && consumed.count(st.dest) == 0) outs.push_back(st.dest);
  }
  if (outs.empty()) throw std::runtime_error("chain_tac: block has no live-out");

  Rng rng(link_seed);
  std::string out;
  std::vector<std::string> last_outs;
  for (int c = 0; c < copies; ++c) {
    std::map<std::string, std::string> names;
    for (const std::string& v : defined) names[v] = v + "_c" + std::to_string(c);
    if (c > 0) {
      for (const std::string& v : live_ins) {
        if (rng.next_below(4) != 0)
          names[v] = last_outs[rng.next_below(
              static_cast<std::uint32_t>(last_outs.size()))];
      }
    }
    for (const Stmt& st : stmts) {
      if (st.op == "live_out") continue;
      Stmt renamed = st;
      if (!renamed.dest.empty()) renamed.dest = names.at(st.dest);
      for (std::string& operand : renamed.operands)
        operand = rename_operand(operand, names);
      out += render(renamed);
    }
    last_outs.clear();
    for (const std::string& v : outs) last_outs.push_back(names.at(v));
  }
  out += "  live_out";
  for (std::size_t i = 0; i < last_outs.size(); ++i)
    out += (i == 0 ? " " : ", ") + last_outs[i];
  return out + "\n";
}

std::string random_dag_tac(int ops, int width, std::uint64_t seed) {
  static constexpr const char* kAlu[] = {"addu", "xor", "and", "or",
                                         "subu", "sltu", "sll", "srl"};
  Rng rng(seed);
  std::string out;
  std::vector<std::vector<std::string>> layers;
  int made = 0;
  for (int layer = 0; made < ops; ++layer) {
    std::vector<std::string> names;
    const auto pick = [&]() -> std::string {
      // A value of the previous two layers, or a live-in.
      const std::size_t depth = std::min<std::size_t>(layers.size(), 2);
      if (depth == 0 || rng.next_below(5) == 0)
        return numbered("in", rng.next_below(12));
      const std::vector<std::string>& from =
          layers[layers.size() - 1 - rng.next_below(static_cast<std::uint32_t>(depth))];
      return from[rng.next_below(static_cast<std::uint32_t>(from.size()))];
    };
    for (int i = 0; i < width && made < ops; ++i, ++made) {
      const std::string dest = numbered("v", static_cast<std::size_t>(made));
      if (i % 3 != 2) {
        out += "  " + dest + " = lw [" + pick() + "]\n";
      } else if (layer % 2 == 1 && i == 2) {
        out += "  " + dest + " = mult " + pick() + ", " + pick() + "\n";
      } else if (rng.next_below(3) == 0) {
        out += "  " + dest + " = addiu " + pick() + ", " +
               std::to_string(1 + rng.next_below(255)) + "\n";
      } else {
        std::string a = pick();
        std::string b = pick();
        if (a == b) b = numbered("in", rng.next_below(12));
        out += "  " + dest + " = " + kAlu[rng.next_below(8)] + " " + a + ", " + b + "\n";
      }
      names.push_back(dest);
    }
    layers.push_back(std::move(names));
  }
  return out;
}

std::vector<FlowCase> paper_sweep_cases(std::uint64_t seed) {
  const std::uint64_t flow_seed = derive(seed, 1);
  std::vector<FlowCase> out;
  for (const sched::MachineConfig& machine : paper_machines()) {
    for (const SuiteProgram& p : suite_programs(false)) {
      FlowCase c;
      c.label = p.name + "@" + machine.label();
      c.program = profile(p);
      c.config.machine = machine;
      c.config.repeats = 5;
      c.config.seed = flow_seed;
      c.config.constraints.area_budget = kAreaBudget;
      out.push_back(std::move(c));
    }
  }
  return out;
}

std::vector<FlowCase> large_block_cases(std::uint64_t seed) {
  const sched::MachineConfig machine = sched::MachineConfig::make(2, {6, 3});
  const std::uint64_t flow_seed = derive(seed, 2);
  std::vector<FlowCase> out;
  const auto add = [&](const std::string& name, const std::string& tac) {
    FlowCase c;
    c.label = name + "@" + machine.label();
    c.program = single_block_program(name, tac);
    c.config.machine = machine;
    c.config.repeats = 5;
    c.config.seed = flow_seed;
    c.config.constraints.area_budget = kAreaBudget;
    out.push_back(std::move(c));
  };
  // Resource-bound DAGs (exploration ends after one round) around the
  // chains, which come in increasing size.  Their edges come from fixed
  // streams: with edges drawn from the workload seed, one seed in five gave
  // a DAG on which one ISE paid a cycle, and that flow took twice as long.
  add("dag160w8", random_dag_tac(160, 8, derive(0, 3)));
  // Chain recipe: (program, copies of its hottest O3 block), linked by a
  // fixed stream so every seed explores the same chains; the workload seed
  // draws the flow seed.
  struct Chain {
    suite::Benchmark benchmark;
    int copies;
  };
  static constexpr Chain kChains[] = {
      {suite::Benchmark::kAdpcm, 4},     // 26 ops × 4 = 104
      {suite::Benchmark::kDijkstra, 6},  // 18 ops × 6 = 108
      {suite::Benchmark::kCrc32, 4},     // 34 ops × 4 = 136
  };
  for (const Chain& chain : kChains) {
    const suite::KernelBlockDef hot =
        suite::kernel_blocks(chain.benchmark, suite::OptLevel::kO3).front();
    add(std::string(suite::name(chain.benchmark)) + "-O3." + hot.name + "x" +
            std::to_string(chain.copies),
        chain_tac(std::string(hot.tac), chain.copies,
                  derive(0, 100 + static_cast<std::uint64_t>(chain.benchmark))));
  }
  add("dag280w8", random_dag_tac(280, 8, derive(0, 4)));
  return out;
}

std::vector<PortfolioCase> portfolio_cases(std::uint64_t seed) {
  // Weights: the O3 build of a program is deployed 3× as often as its O0
  // build, and the extended kernels half as often as the MiBench ones.
  const std::vector<SuiteProgram> programs = suite_programs(true);
  const std::uint64_t flow_seed = derive(seed, 4);
  std::vector<PortfolioCase> out;
  for (const sched::MachineConfig& machine : paper_machines()) {
    PortfolioCase c;
    c.label = "portfolio20@" + machine.label();
    for (const SuiteProgram& p : programs) {
      flow::PortfolioEntry entry;
      entry.program = profile(p);
      const bool o3 = p.name.size() > 2 && p.name.compare(p.name.size() - 2, 2, "O3") == 0;
      entry.weight = (o3 ? 3.0 : 1.0) * (p.extended ? 0.5 : 1.0);
      c.entries.push_back(std::move(entry));
    }
    c.config.base.machine = machine;
    c.config.base.repeats = 5;
    c.config.base.seed = flow_seed;
    c.config.base.constraints.area_budget = kPortfolioBudget;
    c.config.base.cache = cache_config();
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<ServiceJob> service_jobs(std::uint64_t seed) {
  // Distinct hot blocks of all 20 programs (identical TAC shared by two
  // flavours is one kernel), as kernel jobs on two machines; then cache_config
  // variants of the first eight and four small portfolio manifests.
  std::vector<std::string> kernels;
  for (const SuiteProgram& p : suite_programs(true)) {
    for (const TacBlock& b : p.blocks) {
      if (isex::isa::parse_tac(b.tac).graph.num_nodes() < 4) continue;
      if (std::find(kernels.begin(), kernels.end(), b.tac) == kernels.end())
        kernels.push_back(b.tac);
    }
  }
  const auto seed_field = [&](std::size_t i) {
    return ",\"seed\":" + std::to_string(derive(seed, 1000 + i) % 1000000);
  };
  const auto kernel_field = [](const std::string& tac) {
    return "\"kernel\":\"" + isex::trace::json_escape(tac) + "\"";
  };
  struct Port {
    int issue, read, write;
  };
  static constexpr Port kMachines[] = {{2, 4, 2}, {4, 8, 4}};
  std::vector<ServiceJob> jobs;
  for (std::size_t m = 0; m < std::size(kMachines); ++m) {
    const Port& port = kMachines[m];
    const std::string machine = ",\"issue\":" + std::to_string(port.issue) +
                                ",\"read_ports\":" + std::to_string(port.read) +
                                ",\"write_ports\":" + std::to_string(port.write);
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      const std::size_t i = jobs.size();
      jobs.push_back(ServiceJob{
          json_request(numbered("k", i),
                       kernel_field(kernels[k]) + machine + seed_field(i) +
                           ",\"area_budget\":40000"),
          false});
    }
  }
  for (std::size_t k = 0; k < 8 && k < kernels.size(); ++k) {
    const std::size_t i = jobs.size();
    jobs.push_back(ServiceJob{
        json_request(numbered("c", i),
                     kernel_field(kernels[k]) + seed_field(i) +
                         ",\"cache_config\":\"" + kCacheSpec + "\""),
        false});
  }
  for (std::size_t m = 0; m < 4; ++m) {
    const std::size_t i = jobs.size();
    std::string programs = "\"programs\":[";
    for (std::size_t j = 0; j < 3; ++j) {
      const std::size_t k = (m * 7 + j * 3) % kernels.size();
      if (j > 0) programs += ',';
      programs += "{\"name\":\"p" + std::to_string(j) + "\"," +
                  kernel_field(kernels[k]) + ",\"weight\":" +
                  std::to_string(j + 1) + "}";
    }
    programs += "]";
    jobs.push_back(ServiceJob{
        json_request(numbered("p", i),
                     programs + seed_field(i) + ",\"area_budget\":40000"),
        true});
  }
  return jobs;
}

std::vector<std::size_t> service_order(std::size_t distinct,
                                       std::uint64_t seed) {
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < distinct; ++i) {
    order.push_back(i);
    order.push_back(i);
  }
  Rng rng(derive(seed, 5));
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.next_below(static_cast<std::uint32_t>(i))]);
  return order;
}

}  // namespace isexbench
