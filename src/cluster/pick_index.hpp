// Algorithm 2's pick as a data structure: one winner (tournament) tree per
// VM type over every PM of a datacenter.
//
// Leaf (PM i, VM type v) is empty when PM i is unused or v has no fit on
// its current profile; otherwise it holds the best-successor score of
// placing v there (ScoreTable::best_row) and the PM's activation sequence.
// An internal node holds the better of its two children: higher score wins,
// and on equal scores the lower activation sequence — the earlier PM in
// used_PM_list order — wins. That order is total over used PMs, so the root
// of tree v is exactly the PM the literal linear scan of Algorithm 2 picks
// for v, and reading it is O(1).
//
// The trees are stored interleaved, node-major: entry (node k, VM type v)
// lives at nodes_[k * V + v], so refreshing one PM walks a single path of
// contiguous V-entry rows. The shape is the implicit heap over 2N - 1 nodes
// (leaves at [N, 2N), root at 1); since the comparison is a total order,
// the root is the argmax for any N, power of two or not. A PM refresh is
// O(V log N), and each VM type leaves the upward walk as soon as its node
// comes out unchanged.
//
// The index is owned by Datacenter (a value member, so copies and
// move-assignments carry it) and maintained on every place()/remove() once
// a ScoreTableSet is attached; see Datacenter::attach_pick_index.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "core/score_table.hpp"
#include "profile/profile.hpp"

namespace prvm {

class Catalog;
class ScoreTableSet;

class PickIndex {
 public:
  static constexpr std::uint32_t kNoPm = 0xFFFFFFFFu;

  /// One tree node: the winning leaf of its subtree. 16 bytes; an empty
  /// subtree has pm == kNoPm and loses to every real entry.
  struct Entry {
    std::uint64_t seq = std::numeric_limits<std::uint64_t>::max();
    float score = -std::numeric_limits<float>::infinity();
    std::uint32_t pm = kNoPm;

    bool empty() const { return pm == kNoPm; }
    bool operator==(const Entry&) const = default;
  };

  bool attached() const { return tables_ != nullptr; }

  /// The score tables the trees are keyed on; null when unattached.
  const ScoreTableSet* tables() const { return tables_.get(); }

  /// Binds the index to `tables` over a fleet of `pm_count` PMs of
  /// `catalog`, with every leaf empty. Reuses the node storage when the
  /// shape is unchanged. Callers then set_leaves() every used PM and
  /// rebuild().
  void reset(std::shared_ptr<const ScoreTableSet> tables, const Catalog& catalog,
             std::size_t pm_count);

  /// Empties every leaf and internal node (the fleet went idle).
  void clear();

  /// Writes PM `i`'s V leaves: empty when `used` is false, else keyed on
  /// the best successor of canonical profile `key` and sequence `seq`.
  /// Internal nodes are stale until rebuild() or a refresh of `i`.
  void set_leaves(std::size_t i, std::size_t pm_type, ProfileKey key, bool used,
                  std::uint64_t seq);

  /// Recomputes every internal node bottom-up: O(N V).
  void rebuild();

  /// set_leaves() plus the refresh of PM `i`'s leaf-to-root path.
  void update(std::size_t i, std::size_t pm_type, ProfileKey key, bool used,
              std::uint64_t seq);

  /// The winner for VM type `vm_type` (empty when no used PM fits it).
  const Entry& top(std::size_t vm_type) const {
    PRVM_REQUIRE(vm_type < vm_types_, "VM type index out of range");
    return nodes_[vm_types_ + vm_type];
  }

  /// The leaf of PM `i` for VM type `vm_type`.
  const Entry& leaf(std::size_t i, std::size_t vm_type) const {
    return nodes_[(leaves_ + i) * vm_types_ + vm_type];
  }

  /// Node storage, exposed so tests can assert it never reallocates.
  const std::vector<Entry>& nodes() const { return nodes_; }

  /// Verifies every internal node against its children. Throws on violation.
  void check_tree() const;

 private:
  /// The better of two entries under the pick order (higher score, then
  /// lower activation sequence).
  static const Entry& better(const Entry& a, const Entry& b) {
    return (a.score > b.score || (a.score == b.score && a.seq < b.seq)) ? a : b;
  }

  std::shared_ptr<const ScoreTableSet> tables_;
  std::size_t leaves_ = 0;    ///< N: the fleet size
  std::size_t vm_types_ = 0;  ///< V: the catalog's VM types
  /// best_row of (PM type t, VM type v) at [t * V + v]; null when v never
  /// fits t. Points into *tables_, which the index keeps alive.
  std::vector<const ScoreTable::BestEntry*> rows_;
  std::vector<Entry> nodes_;  ///< [node * V + vm_type], nodes 1 .. 2N - 1
};

}  // namespace prvm
