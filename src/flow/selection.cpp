#include "flow/selection.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "flow/merging.hpp"
#include "util/assert.hpp"

namespace isex::flow {

bool SelectionResult::block_has(std::size_t block_index) const {
  return std::any_of(selected.begin(), selected.end(),
                     [&](const SelectedIse& s) {
                       return s.entry.block_index == block_index;
                     });
}

std::vector<PortfolioCatalogEntry> build_catalog(
    const ProfiledProgram& program,
    const std::vector<std::size_t>& block_indices,
    const std::vector<core::ExplorationResult>& results,
    std::size_t program_index, double weight) {
  ISEX_ASSERT(block_indices.size() == results.size());
  std::vector<PortfolioCatalogEntry> catalog;
  for (std::size_t i = 0; i < block_indices.size(); ++i) {
    const std::size_t bi = block_indices[i];
    const ProfiledBlock& block = program.blocks[bi];
    for (std::size_t k = 0; k < results[i].ises.size(); ++k) {
      const core::ExploredIse& ise = results[i].ises[k];
      PortfolioCatalogEntry row;
      row.program_index = program_index;
      row.weight = weight;
      IseCatalogEntry& entry = row.entry;
      entry.block_index = bi;
      entry.position = k;
      entry.ise = ise;
      entry.pattern = induced_subgraph(block.graph, ise.original_nodes);
      entry.benefit = static_cast<std::uint64_t>(
                          std::max(0, ise.gain_cycles)) *
                      block.exec_count;
      row.weighted_benefit = static_cast<double>(entry.benefit) * weight;
      catalog.push_back(std::move(row));
    }
  }
  return catalog;
}

PortfolioSelection select_portfolio_ises(
    const std::vector<PortfolioCatalogEntry>& catalog,
    const SelectionConstraints& constraints) {
  PortfolioSelection result;

  // Prefix cursor / retirement flag per (program, block): a block's
  // gain_cycles were measured with its earlier commits in place, so its
  // candidates stay in commit order; an unaffordable head retires the block.
  using BlockKey = std::pair<std::size_t, std::size_t>;
  std::map<BlockKey, std::size_t> next_position;
  std::map<BlockKey, bool> block_done;
  for (const PortfolioCatalogEntry& e : catalog) {
    const BlockKey key{e.program_index, e.entry.block_index};
    next_position.try_emplace(key, 0);
    block_done.try_emplace(key, false);
  }

  // Representative pattern per selected type for sharing/merging checks.
  std::vector<const dfg::Graph*> type_patterns;

  for (;;) {
    // Head scan: highest weighted benefit; ties prefer the smaller ASFU,
    // then the lowest (program, block, position).  The scan runs in catalog
    // order — grouped by (program, block) ascending, positions ascending —
    // and replaces the incumbent only on strict improvement, so full ties
    // resolve to the earliest entry (selection is serial; the order is
    // pinned for the determinism contract).
    const PortfolioCatalogEntry* best = nullptr;
    for (const PortfolioCatalogEntry& e : catalog) {
      const BlockKey key{e.program_index, e.entry.block_index};
      if (block_done[key]) continue;
      if (e.entry.position != next_position[key]) continue;
      if (!(e.weighted_benefit > 0.0)) continue;
      if (best == nullptr || e.weighted_benefit > best->weighted_benefit ||
          (e.weighted_benefit == best->weighted_benefit &&
           e.entry.ise.eval.area < best->entry.ise.eval.area)) {
        best = &e;
      }
    }
    if (best == nullptr) break;

    // Sharing/merging: a pattern isomorphic to (or a subgraph of) any
    // selected type's pattern reuses that ASFU for free, no matter which
    // program first paid for it.
    int share_type = -1;
    for (std::size_t t = 0; t < type_patterns.size() && share_type < 0; ++t) {
      const MergeRelation rel =
          classify_merge(best->entry.pattern, *type_patterns[t]);
      if (rel == MergeRelation::kEqual || rel == MergeRelation::kIntoOther)
        share_type = static_cast<int>(t);
    }

    const double charge = share_type >= 0 ? 0.0 : best->entry.ise.eval.area;
    const bool needs_new_type = share_type < 0;
    const bool area_ok = result.total_area + charge <= constraints.area_budget;
    const bool type_ok =
        !needs_new_type || result.num_types < constraints.max_ises;

    const BlockKey key{best->program_index, best->entry.block_index};
    if (!area_ok || !type_ok) {
      // The head is unaffordable; later candidates of this block are gated
      // on it, so retire the whole block.
      block_done[key] = true;
      continue;
    }

    PortfolioSelectedIse sel;
    sel.program_index = best->program_index;
    sel.entry = best->entry;
    sel.weighted_benefit = best->weighted_benefit;
    if (needs_new_type) {
      sel.type_id = result.num_types++;
      type_patterns.push_back(&best->entry.pattern);
      result.total_area += charge;
    } else {
      sel.type_id = share_type;
      sel.hardware_shared = true;
    }
    result.selected.push_back(std::move(sel));
    next_position[key] += 1;
  }
  return result;
}

SelectionResult program_selection(const PortfolioSelection& selection,
                                  std::size_t program_index) {
  // Every type is created by exactly one unshared selection, so summing the
  // unshared selections' areas charges each ASFU to the program that paid.
  SelectionResult slice;
  std::set<int> used_types;
  for (const PortfolioSelectedIse& sel : selection.selected) {
    if (sel.program_index != program_index) continue;
    if (!sel.hardware_shared) slice.total_area += sel.entry.ise.eval.area;
    used_types.insert(sel.type_id);
    slice.selected.push_back(
        SelectedIse{sel.entry, sel.type_id, sel.hardware_shared});
  }
  slice.num_types = static_cast<int>(used_types.size());
  return slice;
}

}  // namespace isex::flow
