// The datacenter allocation ledger.
//
// Tracks, for every PM, the concrete per-core / per-disk / memory usage in
// quantized levels and which VM occupies which dimensions — the x/y/z
// assignment variables of the paper's §IV formulation in executable form.
// All placement algorithms mutate a Datacenter through place()/remove(),
// which enforce capacity and anti-collocation invariants on every call.
//
// Alongside the per-PM ledger the datacenter incrementally maintains a
// placement index in struct-of-arrays form: per PM type, parallel arrays of
// bucket canonical key, head PM, member count and a packed per-bucket
// residual-capacity summary (one u64, see resmask below), plus an intrusive
// doubly-linked membership list threaded through per-PM next/prev arrays.
// PageRankVM's indexed scan sweeps the contiguous key/residual arrays —
// evaluating each *distinct* live profile once, prefiltered by a branchless
// feasibility mask — instead of pointer-chasing per-bucket vectors. An
// activation sequence number per used PM (Algorithm 2's used_PM_list order)
// and a bitmap free-list of unused PMs round out the index; all maintenance
// is O(1) per mutation and allocation-free at steady state.
//
// Once a ScoreTableSet is attached (attach_pick_index), the datacenter also
// keeps a PickIndex: one winner tree per VM type over all PMs whose root is
// Algorithm 2's pick. place()/remove() refresh the changed PM's V leaf paths
// (O(V log N)); an unattached datacenter pays nothing, so WAL replay and
// deserialize() stay as cheap as the ledger itself.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "cluster/catalog.hpp"
#include "cluster/pick_index.hpp"
#include "common/flat_map.hpp"
#include "profile/permutation.hpp"

namespace prvm {

/// Index of a PM within a Datacenter.
using PmIndex = std::size_t;

/// Packed per-group residual-capacity summaries: up to four dimension groups
/// at 15 bits each (values clamp at 0x7FFF; groups past the fourth are
/// ignored). `may_fit(free, need)` is a branchless SWAR comparison that is
/// *conservative*: false only when some group's total residual certainly
/// cannot absorb the demand's total for that group — anti-collocation can
/// still reject a bucket that passes, but a bucket that fails can never host
/// the VM, so filtering on it cannot change any placement decision.
namespace resmask {

inline constexpr std::uint64_t kHighBits = 0x8000'8000'8000'8000ULL;
inline constexpr int kFieldBits = 16;
inline constexpr std::uint64_t kFieldMax = 0x7FFF;

/// Per-group free capacity of `usage` (raw or canonical — residuals are
/// permutation-invariant within a group).
std::uint64_t pack_free(const ProfileShape& shape, const Profile& usage);

/// Per-group total demand of `demand`.
std::uint64_t pack_need(const ProfileShape& shape, const QuantizedDemand& demand);

/// True when every group's packed residual is >= the demand's packed total.
inline bool may_fit(std::uint64_t free, std::uint64_t need) {
  return (((free | kHighBits) - need) & kHighBits) == kHighBits;
}

}  // namespace resmask

class Datacenter {
 public:
  /// A VM placed on a PM together with its dimension assignments
  /// ((global dimension index, levels) pairs — its y/z variables).
  struct PlacedVm {
    Vm vm;
    std::vector<std::pair<int, int>> assignments;
  };

  struct PmState {
    std::size_t type_index = 0;
    Profile usage;            ///< raw per-dimension levels (not canonical)
    ProfileKey canonical_key; ///< cached canonical key of `usage`
    std::vector<PlacedVm> vms;

    bool used() const { return !vms.empty(); }
  };

  /// Sentinel terminating the intrusive bucket-membership lists.
  static constexpr PmIndex kNoPm = static_cast<PmIndex>(-1);

  /// Borrowed, allocation-free view of one bucket's member PMs (a walk of
  /// the intrusive list). Membership order is arbitrary (use
  /// activation_seq() to recover used-list order). Invalidated by the next
  /// place()/remove().
  class BucketView {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = PmIndex;
      using difference_type = std::ptrdiff_t;
      using pointer = const PmIndex*;
      using reference = PmIndex;
      PmIndex operator*() const { return cur_; }
      iterator& operator++() {
        cur_ = next_[cur_];
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        cur_ = next_[cur_];
        return old;
      }
      bool operator==(const iterator& o) const { return cur_ == o.cur_; }
      bool operator!=(const iterator& o) const { return cur_ != o.cur_; }

     private:
      friend class BucketView;
      iterator(PmIndex cur, const PmIndex* next) : cur_(cur), next_(next) {}
      PmIndex cur_;
      const PmIndex* next_;
    };

    BucketView() = default;
    iterator begin() const { return {head_, next_}; }
    iterator end() const { return {kNoPm, next_}; }
    std::uint32_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

   private:
    friend class Datacenter;
    BucketView(PmIndex head, std::uint32_t size, const PmIndex* next)
        : head_(head), size_(size), next_(next) {}
    PmIndex head_ = kNoPm;
    std::uint32_t size_ = 0;
    const PmIndex* next_ = nullptr;
  };

  /// Builds a datacenter of pm_types_of[i] typed PMs over a catalog. The
  /// catalog is copied so the datacenter is self-contained.
  Datacenter(Catalog catalog, std::vector<std::size_t> pm_types_of);

  const Catalog& catalog() const { return catalog_; }
  std::size_t pm_count() const { return pms_.size(); }
  const PmState& pm(PmIndex i) const { return pms_.at(i); }
  const ProfileShape& shape_of(PmIndex i) const { return catalog_.shape(pms_.at(i).type_index); }

  /// PMs currently hosting at least one VM, in activation order — the
  /// used_PM_list of Algorithm 2.
  const std::vector<PmIndex>& used_pms() const { return used_order_; }

  /// PMs hosting no VM, in index order — the unused_PM_list.
  std::vector<PmIndex> unused_pms() const;

  /// First unused PM with index >= `from`, or nullopt. Together with the
  /// maintained free-list bitmap this replaces scanning unused_pms().
  std::optional<PmIndex> next_unused(PmIndex from = 0) const;

  std::size_t used_count() const { return used_order_.size(); }

  /// Used PMs of PM type `pm_type`.
  std::size_t used_count_of_type(std::size_t pm_type) const {
    return index_.at(pm_type).used_count;
  }

  /// Number of distinct canonical profiles among used PMs of `pm_type`.
  std::size_t used_bucket_count(std::size_t pm_type) const {
    return index_.at(pm_type).keys.size();
  }

  /// The canonical keys of `pm_type`'s live buckets, one per bucket, in
  /// dense slot order — the indexed engine's candidate scan sweeps this
  /// contiguously. Parallel to bucket_residuals(). Invalidated by the next
  /// place()/remove().
  std::span<const ProfileKey> bucket_keys(std::size_t pm_type) const {
    const TypeIndex& ti = index_.at(pm_type);
    return {ti.keys.data(), ti.keys.size()};
  }

  /// Packed resmask::pack_free summaries parallel to bucket_keys().
  std::span<const std::uint64_t> bucket_residuals(std::size_t pm_type) const {
    const TypeIndex& ti = index_.at(pm_type);
    return {ti.residuals.data(), ti.residuals.size()};
  }

  /// Member view of the bucket at dense `slot` (parallel to bucket_keys()).
  BucketView bucket_at(std::size_t pm_type, std::size_t slot) const {
    const TypeIndex& ti = index_.at(pm_type);
    return BucketView{ti.heads.at(slot), ti.counts.at(slot), next_in_bucket_.data()};
  }

  /// The used PMs of type `pm_type` whose canonical profile is `key`; an
  /// empty view when there are none.
  BucketView used_bucket(std::size_t pm_type, ProfileKey key) const;

  /// Calls f(ProfileKey, BucketView) for every non-empty bucket of
  /// `pm_type`, in dense slot order.
  template <typename F>
  void for_each_used_bucket(std::size_t pm_type, F&& f) const {
    const TypeIndex& ti = index_.at(pm_type);
    for (std::size_t s = 0; s < ti.keys.size(); ++s) {
      f(ti.keys[s], BucketView{ti.heads[s], ti.counts[s], next_in_bucket_.data()});
    }
  }

  /// Strictly increasing number assigned each time a PM turns used; PMs
  /// earlier in used_pms() have smaller numbers. Only meaningful for used
  /// PMs (the tie-break key of the indexed Algorithm 2 scan).
  std::uint64_t activation_seq(PmIndex i) const { return activation_seq_.at(i); }

  /// The next activation sequence number that will be handed out. Restored
  /// by deserialize() so recovered ledgers keep numbering where they left
  /// off (bit-identical continuation after crash recovery).
  std::uint64_t activation_counter() const { return next_activation_; }

  /// Binds the pick index to `tables` and builds it from the current ledger
  /// (O(N V)); from then on every place()/remove() keeps it exact. Replaces
  /// any previous attachment. `tables` must cover this datacenter's catalog.
  void attach_pick_index(std::shared_ptr<const ScoreTableSet> tables);

  /// The per-VM-type winner trees (unattached until attach_pick_index()).
  const PickIndex& pick_index() const { return pick_; }

  /// True when VM type `vm_type` has at least one feasible anti-collocation
  /// placement on PM `i` right now.
  bool fits(PmIndex i, std::size_t vm_type) const;

  /// All distinct-by-canonical-outcome placements of VM type `vm_type` on
  /// PM `i` (Algorithm 2 line 6). Empty when the VM does not fit.
  std::vector<DemandPlacement> placements(PmIndex i, std::size_t vm_type) const;

  /// Places a VM with an explicit placement previously obtained from
  /// placements(). Validates capacity and anti-collocation.
  void place(PmIndex i, const Vm& vm, const DemandPlacement& placement);

  /// Places with the first feasible placement (used by baselines that do
  /// not score permutations). Throws if the VM does not fit.
  void place_first_fit(PmIndex i, const Vm& vm);

  /// Removes a VM and returns its record (for migration re-placement).
  PlacedVm remove(VmId vm);

  /// The PM currently hosting `vm`, if any.
  std::optional<PmIndex> pm_of(VmId vm) const;

  std::size_t vm_count() const { return vm_index_.size(); }

  /// Resets every PM to empty (keeps the catalog, PM fleet and any attached
  /// pick index, which goes empty with the fleet).
  void clear();

  /// Binary snapshot of the full ledger state: PM fleet, every placed VM
  /// with its dimension assignments, activation sequence numbers and the
  /// activation counter. The placement index (buckets, free-list bitmap) is
  /// derived state and is rebuilt exactly on deserialize(); the catalog is
  /// NOT serialized — the caller supplies an identical one to deserialize().
  void serialize(std::ostream& os) const;

  /// Rebuilds a datacenter from a serialize() stream. Placements are
  /// re-applied in activation order through the normal place() path, so
  /// every index invariant holds on the restored ledger and the activation
  /// sequence numbers / counter match the serialized original exactly. The
  /// result has no pick index attached. Throws on malformed input or a
  /// catalog mismatch.
  static Datacenter deserialize(Catalog catalog, std::istream& is);

  /// Verifies every placement-index invariant against the ledger (buckets
  /// partition the used PMs by canonical key, intrusive lists and counts
  /// agree, residual summaries match the keys, free-list matches, activation
  /// order matches used_pms()) and, when attached, the pick index (every
  /// leaf matches the ledger, every node the winner of its children, and
  /// each root the first best PM of a linear scan over used_pms()). Test
  /// hook; throws on violation.
  void check_index_invariants() const;

 private:
  /// Placement index of one PM type, struct-of-arrays: slot s of the dense
  /// bucket array is (keys[s], heads[s], counts[s], residuals[s]); members
  /// are threaded through next_in_bucket_/prev_in_bucket_. `slot_of` maps a
  /// canonical key to its slot; emptied buckets leave a kNoBucket tombstone
  /// *value* behind (the flat map never erases).
  struct TypeIndex {
    std::vector<ProfileKey> keys;
    std::vector<PmIndex> heads;
    std::vector<std::uint32_t> counts;
    std::vector<std::uint64_t> residuals;
    FlatMap64<std::uint32_t> slot_of;
    std::size_t used_count = 0;
  };
  static constexpr std::uint32_t kNoBucket = 0xFFFFFFFFu;

  void recompute_key(PmIndex i);
  void add_to_bucket(PmIndex i);
  void remove_from_bucket(PmIndex i);
  void mark_used(PmIndex i);
  void mark_unused(PmIndex i);
  void refresh_pick(PmIndex i);
  void check_pick_index() const;

  Catalog catalog_;
  std::vector<PmState> pms_;
  std::vector<PmIndex> used_order_;
  std::unordered_map<VmId, PmIndex> vm_index_;

  // Placement index (see class comment). A PM's dense slot is found through
  // slot_of by its canonical key (so swap-erasing a dead bucket only patches
  // one map entry, never the members of the moved bucket).
  std::vector<TypeIndex> index_;               // per PM type
  std::vector<PmIndex> next_in_bucket_;        // per PM: intrusive list links
  std::vector<PmIndex> prev_in_bucket_;
  std::vector<std::uint64_t> activation_seq_;  // per PM: valid while used
  std::vector<std::uint64_t> unused_bits_;     // bitmap, 1 = unused
  std::uint64_t next_activation_ = 0;

  PickIndex pick_;  // Algorithm 2's pick; maintained only while attached
};

}  // namespace prvm
