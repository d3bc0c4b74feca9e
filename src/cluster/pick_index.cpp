#include "cluster/pick_index.hpp"

#include <algorithm>
#include <bit>

#include "cluster/catalog.hpp"
#include "common/check.hpp"
#include "core/catalog_graphs.hpp"

namespace prvm {

void PickIndex::reset(std::shared_ptr<const ScoreTableSet> tables, const Catalog& catalog,
                      std::size_t pm_count) {
  PRVM_REQUIRE(tables != nullptr, "attaching a pick index needs score tables");
  PRVM_REQUIRE(tables->pm_type_count() == catalog.pm_types().size(),
               "score tables cover a different PM type set than the catalog");
  PRVM_REQUIRE(pm_count < kNoPm, "fleet too large for the pick index");
  // The per-level change mask in update() holds one bit per VM type.
  PRVM_REQUIRE(catalog.vm_types().size() <= 64, "pick index supports at most 64 VM types");
  tables_ = std::move(tables);
  leaves_ = pm_count;
  vm_types_ = catalog.vm_types().size();
  rows_.assign(catalog.pm_types().size() * vm_types_, nullptr);
  for (std::size_t t = 0; t < catalog.pm_types().size(); ++t) {
    for (std::size_t v = 0; v < vm_types_; ++v) {
      const auto slot = tables_->demand_slot(t, v);
      if (slot.has_value()) rows_[t * vm_types_ + v] = tables_->table(t).best_row(*slot).data();
    }
  }
  nodes_.assign(2 * leaves_ * vm_types_, Entry{});
}

void PickIndex::clear() { std::fill(nodes_.begin(), nodes_.end(), Entry{}); }

void PickIndex::set_leaves(std::size_t i, std::size_t pm_type, ProfileKey key, bool used,
                           std::uint64_t seq) {
  Entry* leaf = &nodes_[(leaves_ + i) * vm_types_];
  if (!used) {
    std::fill(leaf, leaf + vm_types_, Entry{});
    return;
  }
  // One hash probe per PM; every VM type then reads its row directly.
  const auto node = tables_->table(pm_type).node_of(key);
  PRVM_CHECK(node.has_value(), "live profile missing from score table");
  const ScoreTable::BestEntry* const* rows = &rows_[pm_type * vm_types_];
  for (std::size_t v = 0; v < vm_types_; ++v) {
    const ScoreTable::BestEntry* row = rows[v];
    if (row == nullptr || row[*node].successor == ScoreTable::kNoFit) {
      leaf[v] = Entry{};
    } else {
      leaf[v] = Entry{seq, row[*node].score, static_cast<std::uint32_t>(i)};
    }
  }
}

void PickIndex::rebuild() {
  for (std::size_t k = leaves_; k-- > 1;) {
    const Entry* left = &nodes_[2 * k * vm_types_];
    const Entry* right = left + vm_types_;
    Entry* parent = &nodes_[k * vm_types_];
    for (std::size_t v = 0; v < vm_types_; ++v) parent[v] = better(left[v], right[v]);
  }
}

void PickIndex::update(std::size_t i, std::size_t pm_type, ProfileKey key, bool used,
                       std::uint64_t seq) {
  set_leaves(i, pm_type, key, used, seq);
  // Walk the path upwards, dropping each VM type whose node came out
  // unchanged: its ancestors depend only on it and untouched siblings.
  std::uint64_t live = vm_types_ == 64 ? ~std::uint64_t{0}
                                       : (std::uint64_t{1} << vm_types_) - 1;
  for (std::size_t k = (leaves_ + i) >> 1; k >= 1 && live != 0; k >>= 1) {
    const Entry* left = &nodes_[2 * k * vm_types_];
    const Entry* right = left + vm_types_;
    Entry* parent = &nodes_[k * vm_types_];
    for (std::uint64_t rest = live; rest != 0; rest &= rest - 1) {
      const auto v = static_cast<std::size_t>(std::countr_zero(rest));
      const Entry& winner = better(left[v], right[v]);
      if (winner == parent[v]) {
        live &= ~(std::uint64_t{1} << v);
      } else {
        parent[v] = winner;
      }
    }
  }
}

void PickIndex::check_tree() const {
  PRVM_CHECK(nodes_.size() == 2 * leaves_ * vm_types_, "pick tree storage has the wrong size");
  for (std::size_t k = 1; k < leaves_; ++k) {
    for (std::size_t v = 0; v < vm_types_; ++v) {
      const Entry& left = nodes_[2 * k * vm_types_ + v];
      const Entry& right = nodes_[(2 * k + 1) * vm_types_ + v];
      PRVM_CHECK(nodes_[k * vm_types_ + v] == better(left, right),
                 "pick tree node is not the winner of its children");
    }
  }
}

}  // namespace prvm
