// Quality references of the README, made anew by
//
//   python3 isexbench/run.py --reference quality --seed 7
//
// 1. MI's gap to the exhaustive ExactExplorer on every suite block of at
//    most 24 operations, on the six §5.1 machines.  ExactExplorer runs the
//    MI round loop over the exhaustive candidate set; it is greedy across
//    rounds, so it is a yardstick, not an optimum, and MI may beat it.
// 2. MI against the single-issue (SI) baseline on paper_sweep: mean cycle
//    reduction of the 84 flows under each explorer.
#include "reference.hpp"

#include <cstdio>

#include "baseline/exact_enumerator.hpp"
#include "inputs.hpp"
#include "isa/tac_parser.hpp"
#include "util/rng.hpp"

namespace isexbench {

namespace flow = isex::flow;

void print_quality_reference(std::uint64_t seed) {
  const isex::hw::HwLibrary library = isex::hw::HwLibrary::paper_default();

  int blocks = 0, mi_better = 0, equal = 0, exact_better = 0;
  double gap_sum = 0.0;
  for (const isex::sched::MachineConfig& machine : paper_machines()) {
    isex::isa::IsaFormat format;
    format.reg_file = machine.reg_file;
    const isex::core::MultiIssueExplorer mi(machine, format, library);
    const isex::baseline::ExactExplorer exact(machine, format, library);
    for (const SuiteProgram& program : suite_programs(true)) {
      for (const TacBlock& block : program.blocks) {
        const isex::dfg::Graph graph = isex::isa::parse_tac(block.tac).graph;
        if (graph.num_nodes() > 24) continue;
        isex::Rng rng(seed);
        const int mi_cycles = mi.explore_best_of(graph, 5, rng).final_cycles;
        const int exact_cycles = exact.explore(graph).final_cycles;
        ++blocks;
        gap_sum += static_cast<double>(mi_cycles - exact_cycles) / exact_cycles;
        if (mi_cycles < exact_cycles) {
          ++mi_better;
          std::printf("MI beats exact: %s/%s on %s: %d vs %d cycles\n",
                      program.name.c_str(), block.name.c_str(),
                      machine.label().c_str(), mi_cycles, exact_cycles);
        } else if (mi_cycles == exact_cycles) {
          ++equal;
        } else {
          ++exact_better;
        }
      }
    }
  }
  std::printf("MI vs ExactExplorer, %d (block, machine) pairs of <= 24 ops: "
              "mean gap %+.3f %% of exact cycles; MI better %d, equal %d, worse %d\n",
              blocks, 100.0 * gap_sum / blocks, mi_better, equal, exact_better);

  double mi_sum = 0.0, si_sum = 0.0;
  int flows = 0;
  for (FlowCase& c : paper_sweep_cases(seed)) {
    mi_sum += flow::run_design_flow(c.program, library, c.config).reduction();
    c.config.algorithm = flow::Algorithm::kSingleIssue;
    si_sum += flow::run_design_flow(c.program, library, c.config).reduction();
    ++flows;
  }
  std::printf("paper_sweep (%d flows, seed %llu): mean cycle reduction MI %.2f %%, SI %.2f %%\n",
              flows, static_cast<unsigned long long>(seed), 100.0 * mi_sum / flows,
              100.0 * si_sum / flows);
}

}  // namespace isexbench
