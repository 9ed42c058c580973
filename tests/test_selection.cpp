#include "flow/selection.hpp"

#include <gtest/gtest.h>

#include "flow/program.hpp"
#include "test_util.hpp"

namespace isex::flow {
namespace {

/// Builds a weight-1 catalog row of program 0 (the design flow's case) with
/// a chain pattern of `len` nodes of `op`.
PortfolioCatalogEntry entry(std::size_t block, std::size_t pos, int gain,
                            std::uint64_t count, double area,
                            std::size_t len = 3,
                            isa::Opcode op = isa::Opcode::kXor) {
  PortfolioCatalogEntry row;
  IseCatalogEntry& e = row.entry;
  e.block_index = block;
  e.position = pos;
  e.pattern = testing::make_chain(len, op);
  e.ise.gain_cycles = gain;
  e.ise.eval.area = area;
  e.ise.eval.latency_cycles = 1;
  e.benefit = static_cast<std::uint64_t>(gain) * count;
  row.weighted_benefit = static_cast<double>(e.benefit);
  return row;
}

TEST(Selection, EmptyCatalog) {
  const PortfolioSelection r =
      select_portfolio_ises({}, SelectionConstraints{});
  EXPECT_TRUE(r.selected.empty());
  EXPECT_EQ(r.num_types, 0);
}

TEST(Selection, PicksHighestBenefitFirst) {
  std::vector<PortfolioCatalogEntry> catalog;
  catalog.push_back(entry(0, 0, 2, 10, 100.0, 3, isa::Opcode::kXor));
  catalog.push_back(entry(1, 0, 5, 10, 100.0, 3, isa::Opcode::kAnd));
  SelectionConstraints c;
  c.max_ises = 1;
  const PortfolioSelection r = select_portfolio_ises(catalog, c);
  ASSERT_EQ(r.selected.size(), 1u);
  EXPECT_EQ(r.selected[0].entry.block_index, 1u);
}

TEST(Selection, AreaBudgetBinds) {
  std::vector<PortfolioCatalogEntry> catalog;
  catalog.push_back(entry(0, 0, 5, 10, 900.0, 3, isa::Opcode::kXor));
  catalog.push_back(entry(1, 0, 4, 10, 900.0, 3, isa::Opcode::kAnd));
  SelectionConstraints c;
  c.area_budget = 1000.0;
  const PortfolioSelection r = select_portfolio_ises(catalog, c);
  ASSERT_EQ(r.selected.size(), 1u);
  EXPECT_DOUBLE_EQ(r.total_area, 900.0);
}

TEST(Selection, IdenticalPatternsShareHardware) {
  std::vector<PortfolioCatalogEntry> catalog;
  catalog.push_back(entry(0, 0, 5, 10, 900.0));
  catalog.push_back(entry(1, 0, 4, 10, 900.0));  // same xor 3-chain
  SelectionConstraints c;
  c.area_budget = 1000.0;  // only one ASFU affordable
  const PortfolioSelection r = select_portfolio_ises(catalog, c);
  ASSERT_EQ(r.selected.size(), 2u);
  EXPECT_EQ(r.num_types, 1);
  EXPECT_DOUBLE_EQ(r.total_area, 900.0);
  EXPECT_TRUE(r.selected[1].hardware_shared);
  EXPECT_EQ(r.selected[0].type_id, r.selected[1].type_id);
}

TEST(Selection, SubgraphMergesIntoSelectedType) {
  std::vector<PortfolioCatalogEntry> catalog;
  catalog.push_back(entry(0, 0, 5, 10, 900.0, 4));  // 4-chain first
  catalog.push_back(entry(1, 0, 4, 10, 600.0, 2));  // 2-chain merges in
  SelectionConstraints c;
  const PortfolioSelection r = select_portfolio_ises(catalog, c);
  ASSERT_EQ(r.selected.size(), 2u);
  EXPECT_EQ(r.num_types, 1);
  EXPECT_DOUBLE_EQ(r.total_area, 900.0);
}

TEST(Selection, PrefixOrderWithinBlock) {
  // Block 0's second ISE has huge benefit but must wait for the first.
  std::vector<PortfolioCatalogEntry> catalog;
  catalog.push_back(entry(0, 0, 1, 10, 100.0, 3, isa::Opcode::kXor));
  catalog.push_back(entry(0, 1, 50, 10, 100.0, 3, isa::Opcode::kAnd));
  const PortfolioSelection r =
      select_portfolio_ises(catalog, SelectionConstraints{});
  ASSERT_EQ(r.selected.size(), 2u);
  EXPECT_EQ(r.selected[0].entry.position, 0u);
  EXPECT_EQ(r.selected[1].entry.position, 1u);
}

TEST(Selection, UnaffordableHeadRetiresBlock) {
  std::vector<PortfolioCatalogEntry> catalog;
  catalog.push_back(entry(0, 0, 5, 10, 5000.0, 3, isa::Opcode::kXor));
  catalog.push_back(entry(0, 1, 4, 10, 10.0, 3, isa::Opcode::kAnd));
  catalog.push_back(entry(1, 0, 1, 10, 10.0, 3, isa::Opcode::kOr));
  SelectionConstraints c;
  c.area_budget = 100.0;
  const PortfolioSelection r = select_portfolio_ises(catalog, c);
  // Block 0 head too big -> whole block skipped; block 1 selected.
  ASSERT_EQ(r.selected.size(), 1u);
  EXPECT_EQ(r.selected[0].entry.block_index, 1u);
}

TEST(Selection, MaxIseTypesBinds) {
  std::vector<PortfolioCatalogEntry> catalog;
  catalog.push_back(entry(0, 0, 5, 10, 10.0, 3, isa::Opcode::kXor));
  catalog.push_back(entry(1, 0, 4, 10, 10.0, 3, isa::Opcode::kAnd));
  catalog.push_back(entry(2, 0, 3, 10, 10.0, 3, isa::Opcode::kOr));
  SelectionConstraints c;
  c.max_ises = 2;
  const PortfolioSelection r = select_portfolio_ises(catalog, c);
  EXPECT_EQ(r.num_types, 2);
  EXPECT_EQ(r.selected.size(), 2u);
}

TEST(Selection, SharedIseBypassesTypeLimit) {
  std::vector<PortfolioCatalogEntry> catalog;
  catalog.push_back(entry(0, 0, 5, 10, 10.0));
  catalog.push_back(entry(1, 0, 4, 10, 10.0));  // identical: shares
  catalog.push_back(entry(2, 0, 3, 10, 10.0, 3, isa::Opcode::kAnd));
  SelectionConstraints c;
  c.max_ises = 1;
  const PortfolioSelection r = select_portfolio_ises(catalog, c);
  EXPECT_EQ(r.num_types, 1);
  EXPECT_EQ(r.selected.size(), 2u);  // both xor chains, not the and chain
}

TEST(Selection, ZeroBenefitEntriesIgnored) {
  std::vector<PortfolioCatalogEntry> catalog;
  catalog.push_back(entry(0, 0, 0, 10, 10.0));
  const PortfolioSelection r =
      select_portfolio_ises(catalog, SelectionConstraints{});
  EXPECT_TRUE(r.selected.empty());
}

TEST(Selection, BlockHasQuery) {
  std::vector<PortfolioCatalogEntry> catalog;
  catalog.push_back(entry(3, 0, 5, 10, 10.0));
  const SelectionResult r = program_selection(
      select_portfolio_ises(catalog, SelectionConstraints{}), 0);
  EXPECT_TRUE(r.block_has(3));
  EXPECT_FALSE(r.block_has(0));
}

TEST(Selection, ProgramSliceChargesOnlyThePayer) {
  // Program 1 pays for the xor ASFU; program 0's identical chain shares it.
  std::vector<PortfolioCatalogEntry> catalog;
  catalog.push_back(entry(0, 0, 4, 10, 900.0));
  catalog.push_back(entry(0, 0, 5, 10, 900.0));
  catalog[1].program_index = 1;
  const PortfolioSelection shared =
      select_portfolio_ises(catalog, SelectionConstraints{});
  ASSERT_EQ(shared.selected.size(), 2u);
  const SelectionResult payer = program_selection(shared, 1);
  const SelectionResult sharer = program_selection(shared, 0);
  EXPECT_DOUBLE_EQ(payer.total_area, 900.0);
  EXPECT_DOUBLE_EQ(sharer.total_area, 0.0);
  EXPECT_EQ(payer.num_types, 1);
  EXPECT_EQ(sharer.num_types, 1);
  ASSERT_EQ(sharer.selected.size(), 1u);
  EXPECT_TRUE(sharer.selected[0].hardware_shared);
  EXPECT_EQ(sharer.selected[0].type_id, payer.selected[0].type_id);
}

}  // namespace
}  // namespace isex::flow
