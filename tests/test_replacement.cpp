#include "flow/replacement.hpp"

#include <gtest/gtest.h>

#include "core/mi_explorer.hpp"
#include "flow/selection.hpp"
#include "sched/list_scheduler.hpp"
#include "test_util.hpp"

namespace isex::flow {
namespace {

class ReplacementTest : public ::testing::Test {
 protected:
  /// Explores `program`'s block 0 and selects everything affordable.
  SelectionResult explore_and_select(const ProfiledProgram& program) {
    isa::IsaFormat format;
    format.reg_file = machine_.reg_file;
    const core::MultiIssueExplorer explorer(machine_, format, lib_);
    Rng rng(17);
    std::vector<core::ExplorationResult> results;
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < program.blocks.size(); ++i) {
      indices.push_back(i);
      results.push_back(
          explorer.explore_best_of(program.blocks[i].graph, 3, rng));
    }
    return program_selection(
        select_portfolio_ises(build_catalog(program, indices, results),
                              SelectionConstraints{}),
        0);
  }

  sched::MachineConfig machine_ = sched::MachineConfig::make(2, {6, 3});
  hw::HwLibrary lib_ = hw::HwLibrary::paper_default();
};

TEST_F(ReplacementTest, EmptySelectionLeavesProgramUnchanged) {
  ProfiledProgram p;
  p.blocks.push_back({"b", testing::make_chain(5), 10});
  const ReplacementResult r =
      apply_selection(p, SelectionResult{}, machine_);
  EXPECT_EQ(r.base_time, r.final_time);
  EXPECT_EQ(r.outcomes[0].ise_uses, 0);
  EXPECT_DOUBLE_EQ(r.reduction(), 0.0);
}

TEST_F(ReplacementTest, HomeBlockIsesApplied) {
  ProfiledProgram p;
  p.blocks.push_back({"chain", testing::make_chain(6, isa::Opcode::kAnd), 100});
  const SelectionResult sel = explore_and_select(p);
  ASSERT_FALSE(sel.selected.empty());
  const ReplacementResult r = apply_selection(p, sel, machine_);
  EXPECT_LT(r.final_time, r.base_time);
  EXPECT_GT(r.outcomes[0].ise_uses, 0);
  EXPECT_GT(r.reduction(), 0.0);
}

TEST_F(ReplacementTest, CrossBlockMatchingReusesPattern) {
  // Two identical blocks, only the hot one explored; cross-block matching
  // should still speed up the clone.
  ProfiledProgram p;
  p.blocks.push_back({"hot", testing::make_chain(6, isa::Opcode::kAnd), 1000});
  p.blocks.push_back({"clone", testing::make_chain(6, isa::Opcode::kAnd), 1});

  // Explore only block 0.
  isa::IsaFormat format;
  format.reg_file = machine_.reg_file;
  const core::MultiIssueExplorer explorer(machine_, format, lib_);
  Rng rng(23);
  std::vector<core::ExplorationResult> results{
      explorer.explore_best_of(p.blocks[0].graph, 3, rng)};
  const SelectionResult sel = program_selection(
      select_portfolio_ises(build_catalog(p, {0}, results),
                            SelectionConstraints{}),
      0);
  ASSERT_FALSE(sel.selected.empty());

  ReplacementOptions with;
  with.cross_block_matching = true;
  const ReplacementResult cross = apply_selection(p, sel, machine_, with);
  ReplacementOptions without;
  without.cross_block_matching = false;
  const ReplacementResult home = apply_selection(p, sel, machine_, without);

  EXPECT_LE(cross.outcomes[1].final_cycles, home.outcomes[1].final_cycles);
  EXPECT_GT(cross.outcomes[1].ise_uses, 0);
  EXPECT_EQ(home.outcomes[1].ise_uses, 0);
}

TEST_F(ReplacementTest, TimesAggregateOverCounts) {
  ProfiledProgram p;
  p.blocks.push_back({"a", testing::make_chain(4), 10});
  p.blocks.push_back({"b", testing::make_chain(4), 5});
  const ReplacementResult r =
      apply_selection(p, SelectionResult{}, machine_);
  const sched::ListScheduler sched(machine_);
  const auto expected = static_cast<std::uint64_t>(
      sched.cycles(p.blocks[0].graph) * 10 + sched.cycles(p.blocks[1].graph) * 5);
  EXPECT_EQ(r.base_time, expected);
}

TEST_F(ReplacementTest, RewrittenGraphsStayValid) {
  ProfiledProgram p;
  p.blocks.push_back({"chain", testing::make_chain(8, isa::Opcode::kXor), 100});
  const SelectionResult sel = explore_and_select(p);
  const ReplacementResult r = apply_selection(p, sel, machine_);
  for (const dfg::Graph& g : r.rewritten) {
    EXPECT_TRUE(g.is_acyclic());
    const sched::ListScheduler sched(machine_);
    const sched::Schedule s = sched.run(g);
    EXPECT_TRUE(respects_dependences(g, s));
  }
}

TEST_F(ReplacementTest, CrossMatchOnlyKeptWhenFaster) {
  // A wide, ILP-rich block the ISE can't help: matching must not slow it.
  ProfiledProgram p;
  p.blocks.push_back({"hot", testing::make_chain(6, isa::Opcode::kAnd), 1000});
  p.blocks.push_back({"wide", testing::make_parallel_pairs(3, isa::Opcode::kAnd), 1});
  const SelectionResult sel = explore_and_select(p);
  const ReplacementResult r = apply_selection(p, sel, machine_);
  EXPECT_LE(r.outcomes[1].final_cycles, r.outcomes[1].base_cycles);
}

}  // namespace
}  // namespace isex::flow
