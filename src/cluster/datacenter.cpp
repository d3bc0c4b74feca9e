#include "cluster/datacenter.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <istream>
#include <ostream>

#include "common/check.hpp"
#include "core/catalog_graphs.hpp"

namespace prvm {

namespace resmask {

std::uint64_t pack_free(const ProfileShape& shape, const Profile& usage) {
  std::uint64_t packed = 0;
  const std::size_t groups = std::min<std::size_t>(shape.group_count(), 4);
  for (std::size_t g = 0; g < groups; ++g) {
    const DimensionGroup& group = shape.groups()[g];
    const int offset = shape.group_offset(g);
    std::uint64_t free = 0;
    for (int d = 0; d < group.count; ++d) {
      free += static_cast<std::uint64_t>(group.capacity - usage.level(offset + d));
    }
    packed |= std::min(free, kFieldMax) << (kFieldBits * g);
  }
  return packed;
}

std::uint64_t pack_need(const ProfileShape& shape, const QuantizedDemand& demand) {
  std::uint64_t packed = 0;
  const std::size_t groups = std::min<std::size_t>(shape.group_count(), 4);
  for (std::size_t g = 0; g < groups; ++g) {
    std::uint64_t need = 0;
    if (g < demand.group_items.size()) {
      for (int item : demand.group_items[g]) need += static_cast<std::uint64_t>(item);
    }
    // A demand a single PM of this shape could never absorb would make the
    // packed field meaningless; such demands are rejected at catalog build.
    packed |= std::min(need, kFieldMax) << (kFieldBits * g);
  }
  return packed;
}

}  // namespace resmask

Datacenter::Datacenter(Catalog catalog, std::vector<std::size_t> pm_types_of)
    : catalog_(std::move(catalog)) {
  PRVM_REQUIRE(!pm_types_of.empty(), "datacenter needs at least one PM");
  pms_.reserve(pm_types_of.size());
  for (std::size_t type : pm_types_of) {
    PRVM_REQUIRE(type < catalog_.pm_types().size(), "PM type index out of range");
    const ProfileShape& shape = catalog_.shape(type);
    const Profile zero = Profile::zero(shape);
    pms_.push_back(PmState{type, zero, zero.pack(shape), {}});
  }
  index_.resize(catalog_.pm_types().size());
  next_in_bucket_.assign(pms_.size(), kNoPm);
  prev_in_bucket_.assign(pms_.size(), kNoPm);
  activation_seq_.assign(pms_.size(), 0);
  unused_bits_.assign((pms_.size() + 63) / 64, ~std::uint64_t{0});
}

std::vector<PmIndex> Datacenter::unused_pms() const {
  std::vector<PmIndex> result;
  result.reserve(pms_.size() - used_order_.size());
  for (auto i = next_unused(0); i.has_value(); i = next_unused(*i + 1)) {
    result.push_back(*i);
  }
  return result;
}

std::optional<PmIndex> Datacenter::next_unused(PmIndex from) const {
  for (std::size_t w = from / 64; w < unused_bits_.size(); ++w) {
    std::uint64_t word = unused_bits_[w];
    if (w == from / 64) word &= ~std::uint64_t{0} << (from % 64);
    if (word == 0) continue;
    const PmIndex i = w * 64 + static_cast<PmIndex>(std::countr_zero(word));
    if (i >= pms_.size()) break;  // padding bits of the last word
    return i;
  }
  return std::nullopt;
}

Datacenter::BucketView Datacenter::used_bucket(std::size_t pm_type, ProfileKey key) const {
  const TypeIndex& ti = index_.at(pm_type);
  const std::uint32_t* slot = ti.slot_of.find(key);
  if (slot == nullptr || *slot == kNoBucket) return BucketView{};
  return BucketView{ti.heads[*slot], ti.counts[*slot], next_in_bucket_.data()};
}

bool Datacenter::fits(PmIndex i, std::size_t vm_type) const {
  const PmState& pm = pms_.at(i);
  const auto& demand = catalog_.demand(pm.type_index, vm_type);
  if (!demand.has_value()) return false;
  return demand_fits(catalog_.shape(pm.type_index), pm.usage, *demand);
}

std::vector<DemandPlacement> Datacenter::placements(PmIndex i, std::size_t vm_type) const {
  const PmState& pm = pms_.at(i);
  const auto& demand = catalog_.demand(pm.type_index, vm_type);
  if (!demand.has_value()) return {};
  return enumerate_placements(catalog_.shape(pm.type_index), pm.usage, *demand);
}

void Datacenter::add_to_bucket(PmIndex i) {
  TypeIndex& ti = index_[pms_[i].type_index];
  auto [slot, inserted] = ti.slot_of.try_emplace(pms_[i].canonical_key, kNoBucket);
  if (slot == kNoBucket) {
    slot = static_cast<std::uint32_t>(ti.keys.size());
    ti.keys.push_back(pms_[i].canonical_key);
    ti.heads.push_back(kNoPm);
    ti.counts.push_back(0);
    // All members of a bucket share the canonical key, hence the residual
    // summary; raw usage works because group residuals are permutation-
    // invariant.
    ti.residuals.push_back(
        resmask::pack_free(catalog_.shape(pms_[i].type_index), pms_[i].usage));
  }
  const PmIndex head = ti.heads[slot];
  next_in_bucket_[i] = head;
  prev_in_bucket_[i] = kNoPm;
  if (head != kNoPm) prev_in_bucket_[head] = i;
  ti.heads[slot] = i;
  ++ti.counts[slot];
}

void Datacenter::remove_from_bucket(PmIndex i) {
  // Must run before canonical_key is updated: the key locates the bucket.
  TypeIndex& ti = index_[pms_[i].type_index];
  std::uint32_t* slot = ti.slot_of.find(pms_[i].canonical_key);
  PRVM_CHECK(slot != nullptr && *slot != kNoBucket, "bucket index out of sync");
  const PmIndex prev = prev_in_bucket_[i];
  const PmIndex next = next_in_bucket_[i];
  if (prev != kNoPm) {
    next_in_bucket_[prev] = next;
  } else {
    PRVM_CHECK(ti.heads[*slot] == i, "bucket head out of sync");
    ti.heads[*slot] = next;
  }
  if (next != kNoPm) prev_in_bucket_[next] = prev;
  next_in_bucket_[i] = kNoPm;
  prev_in_bucket_[i] = kNoPm;
  PRVM_CHECK(ti.counts[*slot] > 0, "bucket count out of sync");
  if (--ti.counts[*slot] > 0) return;

  // Swap-erase the dead bucket out of the dense arrays, keeping the key map
  // pointed at the moved bucket's new slot.
  const std::uint32_t last = static_cast<std::uint32_t>(ti.keys.size() - 1);
  const ProfileKey dead_key = ti.keys[*slot];
  if (*slot != last) {
    ti.keys[*slot] = ti.keys[last];
    ti.heads[*slot] = ti.heads[last];
    ti.counts[*slot] = ti.counts[last];
    ti.residuals[*slot] = ti.residuals[last];
    std::uint32_t* moved = ti.slot_of.find(ti.keys[*slot]);
    PRVM_CHECK(moved != nullptr, "bucket index out of sync");
    *moved = *slot;
  }
  ti.keys.pop_back();
  ti.heads.pop_back();
  ti.counts.pop_back();
  ti.residuals.pop_back();
  *ti.slot_of.find(dead_key) = kNoBucket;
}

void Datacenter::mark_used(PmIndex i) {
  activation_seq_[i] = next_activation_++;
  used_order_.push_back(i);
  unused_bits_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  ++index_[pms_[i].type_index].used_count;
  add_to_bucket(i);
}

void Datacenter::mark_unused(PmIndex i) {
  // used_order_ is sorted by activation sequence, so binary-search it.
  const auto uit = std::lower_bound(
      used_order_.begin(), used_order_.end(), activation_seq_[i],
      [&](PmIndex pm, std::uint64_t seq) { return activation_seq_[pm] < seq; });
  PRVM_CHECK(uit != used_order_.end() && *uit == i, "used list out of sync");
  used_order_.erase(uit);
  unused_bits_[i / 64] |= std::uint64_t{1} << (i % 64);
  --index_[pms_[i].type_index].used_count;
}

void Datacenter::refresh_pick(PmIndex i) {
  if (!pick_.attached()) return;
  const PmState& pm = pms_[i];
  pick_.update(i, pm.type_index, pm.canonical_key, pm.used(), activation_seq_[i]);
}

void Datacenter::attach_pick_index(std::shared_ptr<const ScoreTableSet> tables) {
  pick_.reset(std::move(tables), catalog_, pms_.size());
  for (const PmIndex i : used_order_) {
    pick_.set_leaves(i, pms_[i].type_index, pms_[i].canonical_key, true, activation_seq_[i]);
  }
  pick_.rebuild();
}

void Datacenter::place(PmIndex i, const Vm& vm, const DemandPlacement& placement) {
  PRVM_REQUIRE(i < pms_.size(), "PM index out of range");
  PRVM_REQUIRE(!vm_index_.contains(vm.id), "VM already placed");
  PmState& pm = pms_[i];
  const ProfileShape& shape = catalog_.shape(pm.type_index);

  // Validate: each assignment within capacity and anti-collocation (no two
  // assignments of this VM on the same dimension).
  std::vector<int> levels(pm.usage.levels().begin(), pm.usage.levels().end());
  std::vector<int> touched;
  for (auto [dim, amount] : placement.assignments) {
    PRVM_REQUIRE(dim >= 0 && dim < shape.total_dims(), "assignment dimension out of range");
    PRVM_REQUIRE(amount > 0, "assignment amount must be positive");
    PRVM_REQUIRE(std::find(touched.begin(), touched.end(), dim) == touched.end(),
                 "anti-collocation violated: two items of one VM on one dimension");
    touched.push_back(dim);
    levels[static_cast<std::size_t>(dim)] += amount;
    PRVM_REQUIRE(levels[static_cast<std::size_t>(dim)] <= shape.dim_capacity(dim),
                 "placement exceeds dimension capacity");
  }

  const bool was_used = pm.used();
  if (was_used) remove_from_bucket(i);
  pm.usage = Profile::from_levels(shape, std::move(levels));
  pm.vms.push_back(PlacedVm{vm, placement.assignments});
  recompute_key(i);
  vm_index_.emplace(vm.id, i);
  if (was_used) {
    add_to_bucket(i);
  } else {
    mark_used(i);
  }
  refresh_pick(i);
}

void Datacenter::place_first_fit(PmIndex i, const Vm& vm) {
  auto options = placements(i, vm.type_index);
  PRVM_REQUIRE(!options.empty(), "VM does not fit PM");
  place(i, vm, options.front());
}

Datacenter::PlacedVm Datacenter::remove(VmId vm) {
  const auto it = vm_index_.find(vm);
  PRVM_REQUIRE(it != vm_index_.end(), "VM is not placed");
  const PmIndex i = it->second;
  PmState& pm = pms_[i];
  const ProfileShape& shape = catalog_.shape(pm.type_index);

  const auto vit = std::find_if(pm.vms.begin(), pm.vms.end(),
                                [&](const PlacedVm& p) { return p.vm.id == vm; });
  PRVM_CHECK(vit != pm.vms.end(), "ledger out of sync with VM index");
  PlacedVm record = std::move(*vit);
  pm.vms.erase(vit);

  remove_from_bucket(i);
  std::vector<int> levels(pm.usage.levels().begin(), pm.usage.levels().end());
  for (auto [dim, amount] : record.assignments) {
    levels[static_cast<std::size_t>(dim)] -= amount;
    PRVM_CHECK(levels[static_cast<std::size_t>(dim)] >= 0, "usage underflow on removal");
  }
  pm.usage = Profile::from_levels(shape, std::move(levels));
  recompute_key(i);
  vm_index_.erase(it);

  if (pm.used()) {
    add_to_bucket(i);
  } else {
    mark_unused(i);
  }
  refresh_pick(i);
  return record;
}

std::optional<PmIndex> Datacenter::pm_of(VmId vm) const {
  const auto it = vm_index_.find(vm);
  if (it == vm_index_.end()) return std::nullopt;
  return it->second;
}

void Datacenter::clear() {
  for (PmIndex i = 0; i < pms_.size(); ++i) {
    PmState& pm = pms_[i];
    const ProfileShape& shape = catalog_.shape(pm.type_index);
    pm.usage = Profile::zero(shape);
    pm.canonical_key = pm.usage.pack(shape);
    pm.vms.clear();
  }
  used_order_.clear();
  vm_index_.clear();
  for (TypeIndex& ti : index_) {
    ti.keys.clear();
    ti.heads.clear();
    ti.counts.clear();
    ti.residuals.clear();
    ti.slot_of.clear();
    ti.used_count = 0;
  }
  next_in_bucket_.assign(pms_.size(), kNoPm);
  prev_in_bucket_.assign(pms_.size(), kNoPm);
  unused_bits_.assign((pms_.size() + 63) / 64, ~std::uint64_t{0});
  next_activation_ = 0;
  pick_.clear();
}

void Datacenter::recompute_key(PmIndex i) {
  PmState& pm = pms_[i];
  const ProfileShape& shape = catalog_.shape(pm.type_index);
  pm.canonical_key = pm.usage.canonical(shape).pack(shape);
}

namespace {

// Little-endian fixed-width I/O for the snapshot format. The format is
// consumed on the machine that wrote it (crash recovery), but pinning the
// byte order keeps snapshots portable anyway.
constexpr char kSnapshotMagic[8] = {'P', 'R', 'V', 'M', 'D', 'C', '0', '1'};

void write_u64(std::ostream& os, std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  os.write(buf, 8);
}

std::uint64_t read_u64(std::istream& is) {
  char buf[8];
  is.read(buf, 8);
  PRVM_REQUIRE(is.good(), "snapshot truncated");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i])) << (8 * i);
  }
  return v;
}

void write_i64(std::ostream& os, std::int64_t v) {
  write_u64(os, static_cast<std::uint64_t>(v));
}

std::int64_t read_i64(std::istream& is) { return static_cast<std::int64_t>(read_u64(is)); }

}  // namespace

void Datacenter::serialize(std::ostream& os) const {
  os.write(kSnapshotMagic, sizeof(kSnapshotMagic));
  write_u64(os, pms_.size());
  for (const PmState& pm : pms_) write_u64(os, pm.type_index);
  write_u64(os, next_activation_);
  write_u64(os, used_order_.size());
  for (const PmIndex i : used_order_) {
    const PmState& pm = pms_[i];
    write_u64(os, i);
    write_u64(os, activation_seq_[i]);
    write_u64(os, pm.vms.size());
    for (const PlacedVm& placed : pm.vms) {
      write_u64(os, placed.vm.id);
      write_u64(os, placed.vm.type_index);
      write_u64(os, placed.assignments.size());
      for (auto [dim, amount] : placed.assignments) {
        write_i64(os, dim);
        write_i64(os, amount);
      }
    }
  }
  PRVM_REQUIRE(os.good(), "snapshot write failed");
}

Datacenter Datacenter::deserialize(Catalog catalog, std::istream& is) {
  char magic[8];
  is.read(magic, sizeof(magic));
  PRVM_REQUIRE(is.good() && std::memcmp(magic, kSnapshotMagic, sizeof(magic)) == 0,
               "not a datacenter snapshot");
  const std::uint64_t pm_count = read_u64(is);
  PRVM_REQUIRE(pm_count > 0 && pm_count < (std::uint64_t{1} << 32), "snapshot PM count corrupt");
  std::vector<std::size_t> types(pm_count);
  for (auto& t : types) t = static_cast<std::size_t>(read_u64(is));
  Datacenter dc(std::move(catalog), std::move(types));

  const std::uint64_t next_activation = read_u64(is);
  const std::uint64_t used_count = read_u64(is);
  PRVM_REQUIRE(used_count <= pm_count, "snapshot used count corrupt");
  std::uint64_t prev_seq = 0;
  bool first = true;
  for (std::uint64_t u = 0; u < used_count; ++u) {
    const PmIndex pm = static_cast<PmIndex>(read_u64(is));
    PRVM_REQUIRE(pm < dc.pm_count(), "snapshot PM index out of range");
    const std::uint64_t seq = read_u64(is);
    PRVM_REQUIRE(first || seq > prev_seq, "snapshot activation order corrupt");
    PRVM_REQUIRE(seq < next_activation, "snapshot activation counter corrupt");
    first = false;
    prev_seq = seq;
    const std::uint64_t vm_count = read_u64(is);
    PRVM_REQUIRE(vm_count > 0, "snapshot used PM holds no VM");
    for (std::uint64_t v = 0; v < vm_count; ++v) {
      Vm vm;
      vm.id = static_cast<VmId>(read_u64(is));
      vm.type_index = static_cast<std::size_t>(read_u64(is));
      PRVM_REQUIRE(vm.type_index < dc.catalog().vm_types().size(),
                   "snapshot VM type out of range");
      DemandPlacement placement;
      const std::uint64_t assignments = read_u64(is);
      placement.assignments.reserve(assignments);
      for (std::uint64_t a = 0; a < assignments; ++a) {
        const int dim = static_cast<int>(read_i64(is));
        const int amount = static_cast<int>(read_i64(is));
        placement.assignments.emplace_back(dim, amount);
      }
      // Re-applying through place() rebuilds the buckets, free-list and
      // used order while validating capacity / anti-collocation, so a
      // corrupt snapshot throws instead of producing a broken ledger.
      dc.place(pm, vm, placement);
    }
    // place() assigned a fresh sequence number; pin the serialized one
    // (relative order is identical, so used_order_ stays sorted).
    dc.activation_seq_[pm] = seq;
  }
  dc.next_activation_ = next_activation;
  return dc;
}

void Datacenter::check_index_invariants() const {
  std::vector<bool> in_bucket(pms_.size(), false);
  for (std::size_t t = 0; t < index_.size(); ++t) {
    const TypeIndex& ti = index_[t];
    PRVM_CHECK(ti.heads.size() == ti.keys.size() && ti.counts.size() == ti.keys.size() &&
                   ti.residuals.size() == ti.keys.size(),
               "SoA bucket arrays disagree on length");
    std::size_t used_by_type = 0;
    for (std::uint32_t s = 0; s < ti.keys.size(); ++s) {
      PRVM_CHECK(ti.counts[s] > 0, "index holds an empty bucket");
      const std::uint32_t* slot = ti.slot_of.find(ti.keys[s]);
      PRVM_CHECK(slot != nullptr && *slot == s, "bucket key maps to the wrong slot");
      std::uint32_t walked = 0;
      PmIndex prev = kNoPm;
      for (PmIndex i = ti.heads[s]; i != kNoPm; i = next_in_bucket_[i]) {
        PRVM_CHECK(walked < ti.counts[s], "bucket list longer than its count");
        PRVM_CHECK(!in_bucket[i], "PM appears in two buckets");
        in_bucket[i] = true;
        PRVM_CHECK(prev_in_bucket_[i] == prev, "bucket back-link out of sync");
        PRVM_CHECK(pms_[i].used(), "bucket holds an unused PM");
        PRVM_CHECK(pms_[i].type_index == t, "bucket holds a PM of the wrong type");
        PRVM_CHECK(pms_[i].canonical_key == ti.keys[s], "bucket key does not match PM profile");
        PRVM_CHECK(ti.residuals[s] == resmask::pack_free(catalog_.shape(t), pms_[i].usage),
                   "bucket residual summary stale");
        prev = i;
        ++walked;
      }
      PRVM_CHECK(walked == ti.counts[s], "bucket count does not match its list");
      used_by_type += walked;
    }
    PRVM_CHECK(ti.used_count == used_by_type, "per-type used count out of sync");
  }
  for (PmIndex i = 0; i < pms_.size(); ++i) {
    PRVM_CHECK(in_bucket[i] == pms_[i].used(), "used PM missing from its bucket");
    if (!pms_[i].used()) {
      PRVM_CHECK(next_in_bucket_[i] == kNoPm && prev_in_bucket_[i] == kNoPm,
                 "unused PM still linked into a bucket");
    }
    const bool bit = (unused_bits_[i / 64] >> (i % 64)) & 1;
    PRVM_CHECK(bit == !pms_[i].used(), "free-list bitmap out of sync");
  }
  for (std::size_t k = 0; k + 1 < used_order_.size(); ++k) {
    PRVM_CHECK(activation_seq_[used_order_[k]] < activation_seq_[used_order_[k + 1]],
               "used order not sorted by activation sequence");
  }
  if (pick_.attached()) check_pick_index();
}

void Datacenter::check_pick_index() const {
  const ScoreTableSet& tables = *pick_.tables();
  const std::size_t vm_types = catalog_.vm_types().size();
  // Leaves: recomputed through the public table API, not the index's rows.
  for (PmIndex i = 0; i < pms_.size(); ++i) {
    const PmState& pm = pms_[i];
    for (std::size_t v = 0; v < vm_types; ++v) {
      PickIndex::Entry expected;
      const auto slot = tables.demand_slot(pm.type_index, v);
      if (pm.used() && slot.has_value()) {
        const auto best = tables.table(pm.type_index).best_after(pm.canonical_key, *slot);
        if (best.has_value()) {
          expected = PickIndex::Entry{activation_seq_[i], static_cast<float>(best->score),
                                      static_cast<std::uint32_t>(i)};
        }
      }
      PRVM_CHECK(pick_.leaf(i, v) == expected, "pick index leaf out of sync with the ledger");
    }
  }
  pick_.check_tree();
  // Roots: Algorithm 2 as printed — the first strictly best used PM.
  for (std::size_t v = 0; v < vm_types; ++v) {
    PmIndex best_pm = kNoPm;
    double best_score = 0.0;
    for (const PmIndex i : used_order_) {
      const auto slot = tables.demand_slot(pms_[i].type_index, v);
      if (!slot.has_value()) continue;
      const auto best = tables.table(pms_[i].type_index).best_after(pms_[i].canonical_key, *slot);
      if (!best.has_value()) continue;
      if (best_pm == kNoPm || best->score > best_score) {
        best_pm = i;
        best_score = best->score;
      }
    }
    const PickIndex::Entry& root = pick_.top(v);
    if (best_pm == kNoPm) {
      PRVM_CHECK(root.empty(), "pick index root names a PM although none fits");
    } else {
      PRVM_CHECK(!root.empty() && root.pm == best_pm &&
                     static_cast<double>(root.score) == best_score,
                 "pick index root differs from the linear-scan argmax");
    }
  }
}

}  // namespace prvm
