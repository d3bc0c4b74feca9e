#include "placement/pagerank_vm.hpp"

#include <algorithm>
#include <numeric>

#include "common/check.hpp"

namespace prvm {

namespace {
constexpr std::uint32_t kNoRep = 0xFFFFFFFFu;
}  // namespace

PageRankVm::PageRankVm(std::shared_ptr<const ScoreTableSet> tables, PageRankVmOptions options)
    : tables_(std::move(tables)), options_(options), rng_(options.seed) {
  PRVM_REQUIRE(tables_ != nullptr, "PageRankVM needs score tables");
  obs::Registry& reg =
      options_.metrics != nullptr ? *options_.metrics : obs::Registry::global();
  m_.place_calls = &reg.counter("prvm_engine_place_total");
  m_.linear_scored = &reg.counter("prvm_engine_linear_scored_total");
  m_.score_lookups = &reg.counter("prvm_engine_score_lookups_total");
  // Registered for the dashboards and benchmarks that read it; the
  // winner-tree pick does no probing, so it stays 0.
  reg.counter("prvm_engine_index_probes_total");
  m_.rep_cache_hits = &reg.counter("prvm_engine_rep_cache_hits_total");
  m_.rep_cache_misses = &reg.counter("prvm_engine_rep_cache_misses_total");
}

std::optional<double> PageRankVm::placement_score(const Datacenter& dc, PmIndex i,
                                                  std::size_t vm_type) const {
  std::uint64_t lookups = 0;
  const auto score = placement_score(dc, i, vm_type, lookups);
  m_.score_lookups->add(lookups);
  return score;
}

std::optional<double> PageRankVm::placement_score(const Datacenter& dc, PmIndex i,
                                                  std::size_t vm_type,
                                                  std::uint64_t& lookups) const {
  const Datacenter::PmState& pm = dc.pm(i);
  const auto slot = tables_->demand_slot(pm.type_index, vm_type);
  if (!slot.has_value()) return std::nullopt;
  // Counted locally and flushed to the metric once per scan: an atomic add
  // per candidate would be measurable at 10k-PM linear-scan sizes.
  ++lookups;
  const auto best = tables_->table(pm.type_index).best_after(pm.canonical_key, *slot);
  if (!best.has_value()) return std::nullopt;
  return best->score;
}

void PageRankVm::ensure_masks(const Datacenter& dc) {
  if (masks_ready_) return;
  const Catalog& cat = dc.catalog();
  const std::size_t pm_types = cat.pm_types().size();
  mask_vm_types_ = cat.vm_types().size();
  need_masks_.assign(pm_types * mask_vm_types_, 0);
  for (std::size_t t = 0; t < pm_types; ++t) {
    for (std::size_t v = 0; v < mask_vm_types_; ++v) {
      const auto& demand = cat.demand(t, v);
      if (!demand.has_value()) continue;  // never consulted (no demand slot)
      need_masks_[t * mask_vm_types_ + v] = resmask::pack_need(cat.shape(t), *demand);
    }
  }
  masks_ready_ = true;
}

void PageRankVm::cached_placement_into(const Datacenter& dc, PmIndex i, const Vm& vm,
                                       DemandPlacement& out) {
  const Datacenter::PmState& pm = dc.pm(i);
  const ProfileShape& shape = dc.shape_of(i);
  const ScoreTable& table = tables_->table(pm.type_index);
  const auto slot = tables_->demand_slot(pm.type_index, vm.type_index);
  PRVM_CHECK(slot.has_value(), "placing a VM type that never fits this PM type");
  const auto node = table.node_of(pm.canonical_key);
  PRVM_REQUIRE(node.has_value(), "profile not present in score table");
  const auto best = table.best_after_node(*node, *slot);
  PRVM_CHECK(best.has_value(), "placing a VM that does not fit");

  // One representative per (PM type, canonical profile, VM type): the first
  // enumerated canonical-space placement whose outcome is the best
  // successor. Computed on demand, then reused for every PM that passes
  // through this profile.
  const std::uint64_t cache_key = (static_cast<std::uint64_t>(pm.type_index) << 48) |
                                  (static_cast<std::uint64_t>(*node) << 12) |
                                  static_cast<std::uint64_t>(*slot);
  auto [rep, inserted] = rep_index_.try_emplace(cache_key, kNoRep);
  (rep == kNoRep ? m_.rep_cache_misses : m_.rep_cache_hits)->inc();
  if (rep == kNoRep) {
    const Profile canonical = Profile::unpack(shape, pm.canonical_key);
    const auto& demand = dc.catalog().demand(pm.type_index, vm.type_index);
    PRVM_CHECK(demand.has_value(), "demand slot without a catalog demand");
    auto options = enumerate_placements(shape, canonical, *demand);
    const auto it = std::find_if(options.begin(), options.end(), [&](const DemandPlacement& p) {
      return p.result.canonical(shape).pack(shape) == best->successor;
    });
    PRVM_CHECK(it != options.end(), "winning permutation not found among placements");
    rep = static_cast<std::uint32_t>(rep_assignments_.size());
    rep_assignments_.push_back(std::move(it->assignments));
  }
  const std::vector<std::pair<int, int>>& canonical_assignments = rep_assignments_[rep];

  // The representative speaks canonical coordinates (levels sorted descending
  // per group); this PM's concrete dims are some permutation of that. Map the
  // p-th canonical dim of each group to the concrete dim holding the p-th
  // largest level — same level, same capacity, so the mapped assignment is
  // valid and its canonical outcome is exactly best->successor.
  order_scratch_.resize(static_cast<std::size_t>(shape.total_dims()));
  for (std::size_t g = 0; g < shape.group_count(); ++g) {
    const int off = shape.group_offset(g);
    const int count = shape.groups()[g].count;
    const auto begin = order_scratch_.begin() + off;
    std::iota(begin, begin + count, 0);
    std::sort(begin, begin + count, [&](int a, int b) {
      const int la = pm.usage.level(off + a);
      const int lb = pm.usage.level(off + b);
      if (la != lb) return la > lb;
      return a < b;
    });
  }
  out.assignments.clear();
  out.assignments.reserve(canonical_assignments.size());
  levels_scratch_.assign(pm.usage.levels().begin(), pm.usage.levels().end());
  for (auto [dim, amount] : canonical_assignments) {
    std::size_t g = 0;
    while (g + 1 < shape.group_count() && shape.group_offset(g + 1) <= dim) ++g;
    const int off = shape.group_offset(g);
    const int mapped = off + order_scratch_[static_cast<std::size_t>(dim)];
    out.assignments.emplace_back(mapped, amount);
    levels_scratch_[static_cast<std::size_t>(mapped)] += amount;
  }
  out.result.assign_levels(shape, levels_scratch_);
}

void PageRankVm::place_best_permutation(Datacenter& dc, PmIndex i, const Vm& vm) {
  if (options_.use_index) {
    cached_placement_into(dc, i, vm, placement_scratch_);
    dc.place(i, vm, placement_scratch_);
    return;
  }
  const Datacenter::PmState& pm = dc.pm(i);
  const ProfileShape& shape = dc.shape_of(i);
  const auto slot = tables_->demand_slot(pm.type_index, vm.type_index);
  PRVM_CHECK(slot.has_value(), "placing a VM type that never fits this PM type");
  const auto best = tables_->table(pm.type_index).best_after(pm.canonical_key, *slot);
  PRVM_CHECK(best.has_value(), "placing a VM that does not fit");

  // Materialize a concrete assignment whose canonical outcome matches the
  // winning profile. The enumeration is permutation-invariant, so a match
  // always exists.
  auto options = dc.placements(i, vm.type_index);
  const auto it = std::find_if(options.begin(), options.end(), [&](const DemandPlacement& p) {
    return p.result.canonical(shape).pack(shape) == best->successor;
  });
  PRVM_CHECK(it != options.end(), "winning permutation not found among placements");
  dc.place(i, vm, *it);
}

std::optional<PmIndex> PageRankVm::pick_linear(Datacenter& dc, const Vm& vm,
                                               const PlacementConstraints& constraints) {
  // Candidate used PMs: all of them, or two sampled ones in 2-choice mode.
  std::vector<PmIndex> candidates;
  for (PmIndex i : dc.used_pms()) {
    if (constraints.allowed(dc, i)) candidates.push_back(i);
  }
  if (options_.two_choice) {
    // "Two PMs are randomly selected and then the best one is selected"
    // (§V-C). Sampling is over the used PMs that can host the VM — a PM
    // with no room is not a choice — so 2-choice trades only scoring
    // effort, not admission.
    std::vector<PmIndex> fitting;
    for (PmIndex i : candidates) {
      if (dc.fits(i, vm.type_index)) fitting.push_back(i);
    }
    candidates = std::move(fitting);
    if (candidates.size() > 2) {
      const std::size_t a = rng_.uniform_index(candidates.size());
      std::size_t b = rng_.uniform_index(candidates.size() - 1);
      if (b >= a) ++b;
      candidates = {candidates[a], candidates[b]};
    }
  }

  // Algorithm 2 lines 2-13: the used PM giving the highest-scoring profile.
  std::optional<PmIndex> best_pm;
  double max_score = 0.0;
  std::uint64_t lookups = 0;
  m_.linear_scored->add(candidates.size());
  for (PmIndex i : candidates) {
    const auto score = placement_score(dc, i, vm.type_index, lookups);
    if (!score.has_value()) continue;
    if (!best_pm.has_value() || *score > max_score) {
      max_score = *score;
      best_pm = i;
    }
  }
  m_.score_lookups->add(lookups);
  return best_pm;
}

void PageRankVm::attach_index(Datacenter& dc) const {
  if (indexed() && dc.pick_index().tables() != tables_.get()) dc.attach_pick_index(tables_);
}

bool PageRankVm::pick_indexed(const Datacenter& dc, std::size_t vm_type, PmIndex& out_pm,
                              double& out_score) {
  const PickIndex::Entry& top = dc.pick_index().top(vm_type);
  if (top.empty()) return false;
  out_pm = top.pm;
  out_score = static_cast<double>(top.score);
  return true;
}

bool PageRankVm::pick_indexed_constrained(const Datacenter& dc, std::size_t vm_type,
                                          const PlacementConstraints& constraints,
                                          PmIndex& out_pm, double& out_score) {
  // Migration-time path: score every distinct live profile, then walk the
  // score groups downward until one holds an allowed PM.
  ensure_masks(dc);
  scored_.clear();
  std::uint64_t lookups = 0;
  for (std::size_t t = 0; t < dc.catalog().pm_types().size(); ++t) {
    if (dc.used_count_of_type(t) == 0) continue;
    const auto slot = tables_->demand_slot(t, vm_type);
    if (!slot.has_value()) continue;
    const ScoreTable& table = tables_->table(t);
    const std::span<const ProfileKey> keys = dc.bucket_keys(t);
    const std::span<const std::uint64_t> residuals = dc.bucket_residuals(t);
    const std::span<const ScoreTable::BestEntry> row = table.best_row(*slot);
    const std::uint64_t need = need_masks_[t * mask_vm_types_ + vm_type];
    for (std::size_t s = 0; s < keys.size(); ++s) {
      if (!resmask::may_fit(residuals[s], need)) continue;
      ++lookups;
      const auto node = table.node_of(keys[s]);
      PRVM_CHECK(node.has_value(), "live profile missing from score table");
      const ScoreTable::BestEntry entry = row[*node];
      if (entry.successor == ScoreTable::kNoFit) continue;
      scored_.push_back(ScoredBucket{entry.score, static_cast<std::uint32_t>(t),
                                     static_cast<std::uint32_t>(s)});
    }
  }
  m_.score_lookups->add(lookups);
  std::sort(scored_.begin(), scored_.end(),
            [](const ScoredBucket& a, const ScoredBucket& b) { return a.score > b.score; });
  for (std::size_t i = 0; i < scored_.size();) {
    std::size_t j = i;
    while (j < scored_.size() && scored_[j].score == scored_[i].score) ++j;
    PmIndex winner = Datacenter::kNoPm;
    std::uint64_t winner_seq = 0;
    for (std::size_t k = i; k < j; ++k) {
      for (const PmIndex pm : dc.bucket_at(scored_[k].pm_type, scored_[k].slot)) {
        if (!constraints.allowed(dc, pm)) continue;
        const std::uint64_t seq = dc.activation_seq(pm);
        if (winner == Datacenter::kNoPm || seq < winner_seq) {
          winner = pm;
          winner_seq = seq;
        }
      }
    }
    if (winner != Datacenter::kNoPm) {
      out_pm = winner;
      out_score = static_cast<double>(scored_[i].score);
      return true;
    }
    i = j;
  }
  return false;
}

std::optional<PmIndex> PageRankVm::place(Datacenter& dc, const Vm& vm,
                                         const PlacementConstraints& constraints) {
  m_.place_calls->inc();
  std::optional<PmIndex> best_pm;
  if (!indexed()) {
    // 2-choice must sample with the exact RNG stream of the linear engine,
    // so it shares the linear candidate path even when indexing is on.
    best_pm = pick_linear(dc, vm, constraints);
  } else {
    attach_index(dc);
    PmIndex pm = 0;
    double score = 0.0;
    const bool picked = (!constraints.exclude.has_value() && !constraints.allow)
                            ? pick_indexed(dc, vm.type_index, pm, score)
                            : pick_indexed_constrained(dc, vm.type_index, constraints, pm, score);
    if (picked) best_pm = pm;
  }
  if (best_pm.has_value()) {
    place_best_permutation(dc, *best_pm, vm);
    return best_pm;
  }

  // Lines 17-24: first unused PM with sufficient resources, off the
  // incrementally-maintained free list.
  for (auto i = dc.next_unused(0); i.has_value(); i = dc.next_unused(*i + 1)) {
    if (!constraints.allowed(dc, *i)) continue;
    if (!dc.fits(*i, vm.type_index)) continue;
    place_best_permutation(dc, *i, vm);
    return *i;
  }
  return std::nullopt;
}

bool PageRankVm::speculate(const Datacenter& dc, const Vm& vm,
                           const PlacementConstraints& constraints, Speculation& out) {
  // The linear scan and 2-choice sampling depend on the scan/RNG stream of
  // the committing engine, which speculation cannot reproduce; a const dc
  // without this engine's pick index cannot be indexed here either.
  if (!indexed() || dc.pick_index().tables() != tables_.get()) return false;
  m_.place_calls->inc();
  PmIndex pm = 0;
  double score = 0.0;
  const bool picked = (!constraints.exclude.has_value() && !constraints.allow)
                          ? pick_indexed(dc, vm.type_index, pm, score)
                          : pick_indexed_constrained(dc, vm.type_index, constraints, pm, score);
  if (picked) {
    out.pm = pm;
    out.score = score;
    out.act_seq = dc.activation_seq(pm);
    out.profile = dc.pm(pm).canonical_key;
    out.activated = false;
    cached_placement_into(dc, pm, vm, out.placement);
    return true;
  }
  for (auto i = dc.next_unused(0); i.has_value(); i = dc.next_unused(*i + 1)) {
    if (!constraints.allowed(dc, *i)) continue;
    if (!dc.fits(*i, vm.type_index)) continue;
    out.pm = *i;
    out.score = 0.0;
    out.act_seq = 0;
    out.activated = true;
    out.profile = dc.pm(*i).canonical_key;
    cached_placement_into(dc, *i, vm, out.placement);
    return true;
  }
  return false;
}

std::optional<PageRankVm::Speculation> PageRankVm::speculate(
    const Datacenter& dc, const Vm& vm, const PlacementConstraints& constraints) {
  Speculation spec;
  if (!speculate(dc, vm, constraints, spec)) return std::nullopt;
  return spec;
}

}  // namespace prvm
