// ISE selection with hardware sharing (design-flow stage, Fig 3.1.1).
//
// Greedy, as in the paper's evaluation (§5.1): rank explored candidates by
// program-level benefit (per-block cycle gain × block execution count, times
// the program's weight in a multi-program manifest) and select as many as
// the constraints admit — total ASFU silicon area and the ISA-format opcode
// budget (number of distinct ISE *types*).  Hardware sharing and merging
// reduce both bills: a candidate isomorphic to (or a subgraph of) an
// already-selected type reuses that ASFU for free, whichever program paid
// for it.
//
// Candidates within one block must be selected in commit order — each
// gain_cycles was measured with the previous ISEs already in place — so
// selection walks per-block prefixes.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/mi_explorer.hpp"
#include "dfg/graph.hpp"
#include "flow/program.hpp"

namespace isex::flow {

/// One explored candidate, flattened out of its block's ExplorationResult.
struct IseCatalogEntry {
  std::size_t block_index = 0;
  /// Commit order within the block (0 = first ISE explored there).
  std::size_t position = 0;
  core::ExploredIse ise;
  /// Pattern graph (induced subgraph of the block over the members).
  dfg::Graph pattern;
  /// gain_cycles × block execution count.
  std::uint64_t benefit = 0;
};

struct SelectionConstraints {
  /// Total extra silicon area allowed, µm².
  double area_budget = std::numeric_limits<double>::infinity();
  /// Distinct ISE types (free opcodes).
  int max_ises = 32;
};

struct SelectedIse {
  IseCatalogEntry entry;
  /// Equivalence class (ASFU) identifier.
  int type_id = 0;
  /// True when this selection reuses an earlier selection's ASFU.
  bool hardware_shared = false;
};

struct SelectionResult {
  std::vector<SelectedIse> selected;
  double total_area = 0.0;
  int num_types = 0;

  bool block_has(std::size_t block_index) const;
};

/// Catalog row of one program in a weighted manifest (a design flow is the
/// one-program, weight-1 case).
struct PortfolioCatalogEntry {
  std::size_t program_index = 0;
  double weight = 1.0;
  IseCatalogEntry entry;
  /// entry.benefit × weight.
  double weighted_benefit = 0.0;
};

/// One selected ISE in manifest coordinates.
struct PortfolioSelectedIse {
  std::size_t program_index = 0;
  IseCatalogEntry entry;
  /// ASFU equivalence class, global across the manifest.
  int type_id = 0;
  /// True when this selection reuses an ASFU selected earlier — possibly by
  /// a *different* program (cross-program hardware sharing).
  bool hardware_shared = false;
  double weighted_benefit = 0.0;
};

struct PortfolioSelection {
  std::vector<PortfolioSelectedIse> selected;
  double total_area = 0.0;
  int num_types = 0;
};

/// Flattens per-block exploration results into program `program_index`'s
/// catalog rows, grouped by block in commit-position order.
std::vector<PortfolioCatalogEntry> build_catalog(
    const ProfiledProgram& program,
    const std::vector<std::size_t>& block_indices,
    const std::vector<core::ExplorationResult>& results,
    std::size_t program_index = 0, double weight = 1.0);

/// Deterministic weighted greedy selection under `constraints`, with ASFU
/// sharing across blocks and programs.  Catalog entries must be grouped per
/// (program, block) in commit-position order (build order guarantees it).
PortfolioSelection select_portfolio_ises(
    const std::vector<PortfolioCatalogEntry>& catalog,
    const SelectionConstraints& constraints);

/// Program `program_index`'s slice of a shared selection: its selections in
/// order (type ids stay global), the area of the ASFUs it paid for, and the
/// number of distinct ASFUs it uses.
SelectionResult program_selection(const PortfolioSelection& selection,
                                  std::size_t program_index);

}  // namespace isex::flow
