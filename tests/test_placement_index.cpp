// Differential and invariant tests for the placement index.
//
// The indexed PageRankVM engine must be observationally identical to the
// legacy linear scan (PageRankVmOptions::use_index = false): same chosen PM
// for every VM, same rejections, same canonical profile trajectory — across
// catalogs, seeds, 2-choice mode and migration re-placement. Separately, the
// datacenter's incrementally-maintained bucket index must satisfy its
// structural invariants under arbitrary place/remove churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/catalog.hpp"
#include "cluster/datacenter.hpp"
#include "common/rng.hpp"
#include "core/catalog_graphs.hpp"
#include "placement/pagerank_vm.hpp"
#include "sim/simulator.hpp"

namespace prvm {
namespace {

std::shared_ptr<const ScoreTableSet> tables_for(const Catalog& catalog,
                                               const ScoreTableOptions& options = {}) {
  // The default on-disk cache keeps repeated test runs fast (EC2-scale
  // graphs take a moment to build the first time).
  return std::make_shared<const ScoreTableSet>(build_score_tables(catalog, options));
}

std::uint64_t get_u64(const std::string& bytes, std::size_t& at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[at + i])) << (8 * i);
  }
  at += 8;
  return v;
}

void put_u64(std::string& bytes, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

/// dc's serialize() stream with every activation sequence number and the
/// activation counter shifted up by `offset` (relative order unchanged).
std::string rebased_snapshot(const Datacenter& dc, std::uint64_t offset) {
  std::ostringstream os;
  dc.serialize(os);
  std::string bytes = os.str();
  const auto shift = [&](std::size_t& at) {
    const std::size_t field = at;
    put_u64(bytes, field, get_u64(bytes, at) + offset);
  };
  std::size_t at = 8;  // magic
  const std::uint64_t pms = get_u64(bytes, at);
  at += 8 * pms;  // PM types
  shift(at);      // activation counter
  const std::uint64_t used = get_u64(bytes, at);
  for (std::uint64_t u = 0; u < used; ++u) {
    at += 8;  // PM index
    shift(at);
    const std::uint64_t vms = get_u64(bytes, at);
    for (std::uint64_t v = 0; v < vms; ++v) {
      at += 16;  // VM id, type
      const std::uint64_t assignments = get_u64(bytes, at);
      at += 16 * assignments;
    }
  }
  EXPECT_EQ(at, bytes.size());
  return bytes;
}

/// Two datacenters driven in lockstep: one by the indexed engine, one by the
/// legacy linear scan. Every operation asserts both made the same decision.
/// Engine pair k (add_engines) runs on score tables of its own, so switching
/// pairs forces the indexed datacenter to re-attach its pick index.
class TwinRun {
 public:
  TwinRun(const Catalog& catalog, std::size_t fleet, std::uint64_t engine_seed,
          bool two_choice)
      : catalog_(catalog),
        fleet_(mixed_pm_fleet(catalog, fleet)),
        indexed_dc_(std::make_unique<Datacenter>(catalog, fleet_)),
        linear_dc_(catalog, fleet_),
        engine_seed_(engine_seed),
        two_choice_(two_choice) {
    add_engines(tables_for(catalog));
  }

  void add_engines(std::shared_ptr<const ScoreTableSet> tables) {
    indexed_.push_back(std::make_unique<PageRankVm>(
        tables, PageRankVmOptions{two_choice_, engine_seed_, /*use_index=*/true}));
    linear_.push_back(std::make_unique<PageRankVm>(
        tables, PageRankVmOptions{two_choice_, engine_seed_, /*use_index=*/false}));
    tables_.push_back(std::move(tables));
  }

  /// Places `vm` through engine pair `engine`; returns whether it was placed.
  bool place(const Vm& vm, const PlacementConstraints& constraints = {},
             std::size_t engine = 0) {
    const auto a = indexed_[engine]->place(*indexed_dc_, vm, constraints);
    const auto b = linear_[engine]->place(linear_dc_, vm, constraints);
    EXPECT_EQ(a, b) << "engines disagree on the PM for VM " << vm.id;
    if (a.has_value() && b.has_value()) {
      // Concrete dimension assignments may be permuted differently, but the
      // canonical profile of the chosen PM must be identical — otherwise the
      // trajectories would drift apart on later VMs.
      EXPECT_EQ(indexed_dc_->pm(*a).canonical_key, linear_dc_.pm(*b).canonical_key)
          << "canonical profiles diverged on PM " << *a << " after VM " << vm.id;
    }
    if (!two_choice_) {
      EXPECT_EQ(indexed_dc_->pick_index().tables(), tables_[engine].get())
          << "the indexed engine did not attach its tables";
    }
    return a.has_value();
  }

  void remove(VmId id) {
    const auto a = indexed_dc_->pm_of(id);
    const auto b = linear_dc_.pm_of(id);
    ASSERT_EQ(a, b);
    indexed_dc_->remove(id);
    linear_dc_.remove(id);
  }

  void check() const {
    indexed_dc_->check_index_invariants();
    ASSERT_EQ(indexed_dc_->used_pms(), linear_dc_.used_pms());
    ASSERT_EQ(indexed_dc_->vm_count(), linear_dc_.vm_count());
  }

  // Mid-run replacements of the indexed datacenter; the run continues on
  // the replacement and must keep matching the untouched linear twin.

  void copy_construct() { indexed_dc_ = std::make_unique<Datacenter>(*indexed_dc_); }

  void copy_assign() {
    // The target is attached and busy with state of its own first.
    auto target = std::make_unique<Datacenter>(catalog_, fleet_);
    indexed_[0]->place(*target, Vm{~VmId{0}, 0});
    *target = *indexed_dc_;
    indexed_dc_ = std::move(target);
  }

  void reload() {
    std::stringstream stream;
    indexed_dc_->serialize(stream);
    *indexed_dc_ = Datacenter::deserialize(catalog_, stream);
    ASSERT_FALSE(indexed_dc_->pick_index().attached());
    // A reader must not trust a datacenter without the pick index.
    PageRankVm::Speculation spec;
    EXPECT_FALSE(indexed_[0]->speculate(*indexed_dc_, Vm{~VmId{0}, 0}, {}, spec));
  }

  void clear() {
    indexed_dc_->clear();
    linear_dc_.clear();
  }

  /// Reloads both twins with activation sequence numbers moved up by
  /// `offset`.
  void rebase_activation(std::uint64_t offset) {
    std::istringstream a(rebased_snapshot(*indexed_dc_, offset));
    std::istringstream b(rebased_snapshot(linear_dc_, offset));
    *indexed_dc_ = Datacenter::deserialize(catalog_, a);
    linear_dc_ = Datacenter::deserialize(catalog_, b);
  }

  Datacenter& indexed_dc() { return *indexed_dc_; }

 private:
  Catalog catalog_;
  std::vector<std::size_t> fleet_;
  std::unique_ptr<Datacenter> indexed_dc_;
  Datacenter linear_dc_;
  std::uint64_t engine_seed_;
  bool two_choice_;
  std::vector<std::shared_ptr<const ScoreTableSet>> tables_;
  std::vector<std::unique_ptr<PageRankVm>> indexed_;
  std::vector<std::unique_ptr<PageRankVm>> linear_;
};

/// Called before step `step` of a churn run; may replace state and must
/// keep `live` in sync with what it does to the datacenters.
using MidRun = std::function<void(TwinRun&, std::size_t step, std::vector<VmId>& live)>;

/// Streams `total` placements with steady removal churn through both
/// engines, asserting identical decisions throughout.
void run_churn_differential(const Catalog& catalog, std::size_t fleet, std::size_t total,
                            std::uint64_t seed, bool two_choice, const MidRun& mid_run = {}) {
  TwinRun twin(catalog, fleet, /*engine_seed=*/seed, two_choice);
  Rng rng(seed);
  const std::vector<double> mix = default_vm_mix(catalog);
  const std::vector<Vm> vms = weighted_vm_requests(rng, catalog, total, mix);

  // Keep roughly this many VMs live so buckets both grow and shrink.
  const std::size_t live_cap = 3 * fleet / 2;
  std::vector<VmId> live;
  for (std::size_t step = 0; step < vms.size(); ++step) {
    if (mid_run) mid_run(twin, step, live);
    while (live.size() >= live_cap || (!live.empty() && rng.uniform_index(4) == 0)) {
      const std::size_t pick = rng.uniform_index(live.size());
      twin.remove(live[pick]);
      live[pick] = live.back();
      live.pop_back();
      if (live.size() < live_cap) break;
    }
    if (twin.place(vms[step])) live.push_back(vms[step].id);
    if (step % 500 == 0) twin.check();
    if (::testing::Test::HasFailure()) return;  // stop at the first divergence
  }
  twin.check();
}

TEST(PlacementIndexDifferential, Ec2ChurnMatchesLinearScan) {
  run_churn_differential(ec2_sim_catalog(), /*fleet=*/400, /*total=*/4000, /*seed=*/17,
                         /*two_choice=*/false);
}

TEST(PlacementIndexDifferential, Ec2SecondSeedMatchesLinearScan) {
  run_churn_differential(ec2_sim_catalog(), /*fleet=*/300, /*total=*/2500, /*seed=*/4242,
                         /*two_choice=*/false);
}

TEST(PlacementIndexDifferential, GeniChurnMatchesLinearScan) {
  run_churn_differential(geni_catalog(), /*fleet=*/80, /*total=*/2500, /*seed=*/7,
                         /*two_choice=*/false);
}

TEST(PlacementIndexDifferential, TwoChoiceModeMatchesLinearScan) {
  // 2-choice shares the linear candidate sampler (same RNG stream) so the
  // sampled pair — and hence the decision — must be identical.
  run_churn_differential(ec2_sim_catalog(), /*fleet=*/200, /*total=*/2000, /*seed=*/91,
                         /*two_choice=*/true);
}

TEST(PlacementIndexDifferential, MigrationReplacementMatchesLinearScan) {
  const Catalog catalog = ec2_sim_catalog();
  TwinRun twin(catalog, /*fleet=*/250, /*engine_seed=*/5, /*two_choice=*/false);
  Rng rng(2026);
  const std::vector<Vm> vms =
      weighted_vm_requests(rng, catalog, 600, default_vm_mix(catalog));
  std::vector<VmId> live;
  for (const Vm& vm : vms) {
    if (twin.place(vm)) live.push_back(vm.id);
  }
  ASSERT_FALSE(live.empty());
  twin.check();

  // Simulated migrations: evict a random VM and re-place it with its source
  // PM excluded — the constrained indexed path must match the linear scan.
  // Every third migration additionally vetoes moderately loaded PMs, the way
  // the simulator's overload veto does.
  for (int round = 0; round < 600; ++round) {
    const VmId id = live[rng.uniform_index(live.size())];
    const auto source = twin.indexed_dc().pm_of(id);
    ASSERT_TRUE(source.has_value());
    const Vm vm = Vm{id, twin.indexed_dc().pm(*source).vms.front().vm.type_index};
    twin.remove(id);
    PlacementConstraints constraints;
    constraints.exclude = *source;
    if (round % 3 == 0) {
      constraints.allow = [](const Datacenter& dc, PmIndex pm) {
        return dc.pm(pm).vms.size() < 6;
      };
    }
    if (!twin.place(vm, constraints)) {
      live.erase(std::find(live.begin(), live.end(), id));
      if (live.empty()) break;
    }
    if (round % 100 == 0) twin.check();
    if (::testing::Test::HasFailure()) return;
  }
  twin.check();
}

TEST(PlacementIndexDifferential, SaturatedNonPowerOfTwoFleetMatchesLinearScan) {
  // 2049 leaves: the winner trees' implicit heap is as lopsided as it gets
  // (one leaf past a power of two). Fill to saturation, then churn at it.
  const Catalog catalog = ec2_sim_catalog();
  const std::size_t fleet = 2049;
  TwinRun twin(catalog, fleet, /*engine_seed=*/1, /*two_choice=*/false);
  Rng rng(2049);
  const std::vector<double> mix = default_vm_mix(catalog);
  std::vector<VmId> live;
  VmId next_id = 1;
  for (std::size_t streak = 0; streak < 32;) {
    const Vm vm{next_id++, rng.weighted_index(mix)};
    if (twin.place(vm)) {
      live.push_back(vm.id);
      streak = 0;
    } else {
      ++streak;
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(twin.indexed_dc().used_count(), fleet);
  twin.check();
  for (int pair = 0; pair < 3000; ++pair) {
    const std::size_t pick = rng.uniform_index(live.size());
    twin.remove(live[pick]);
    live[pick] = live.back();
    live.pop_back();
    const Vm vm{next_id++, rng.weighted_index(mix)};
    if (twin.place(vm)) live.push_back(vm.id);
    if (pair % 1000 == 0) twin.check();
    if (::testing::Test::HasFailure()) return;
  }
  twin.check();
}

TEST(PlacementIndexDifferential, SurvivesDatacenterCopiesReloadAndClear) {
  // Each replacement lands mid-run on a loaded fleet; the pick index must
  // travel with copies, be rebuilt after a reload, and empty on clear().
  run_churn_differential(
      ec2_sim_catalog(), /*fleet=*/300, /*total=*/3000, /*seed=*/61, /*two_choice=*/false,
      [](TwinRun& twin, std::size_t step, std::vector<VmId>& live) {
        switch (step) {
          case 500: twin.copy_construct(); break;
          case 1000: twin.copy_assign(); break;
          case 1500: twin.reload(); break;
          case 2000:
            twin.clear();
            live.clear();
            break;
          default: return;
        }
        twin.check();
      });
}

TEST(PlacementIndexDifferential, TwoTableSetsReattachOnOneDatacenter) {
  // Two engine pairs with different score tables alternate on the same
  // datacenters: every switch re-attaches the pick index to the other set.
  const Catalog catalog = ec2_sim_catalog();
  ScoreTableOptions forward;
  forward.direction = VoteDirection::kForwardAsPrinted;
  TwinRun twin(catalog, /*fleet=*/200, /*engine_seed=*/3, /*two_choice=*/false);
  twin.add_engines(tables_for(catalog, forward));
  Rng rng(33);
  const std::vector<Vm> vms = weighted_vm_requests(rng, catalog, 2000, default_vm_mix(catalog));
  std::vector<VmId> live;
  for (std::size_t step = 0; step < vms.size(); ++step) {
    if (live.size() >= 300 || (!live.empty() && rng.uniform_index(3) == 0)) {
      const std::size_t pick = rng.uniform_index(live.size());
      twin.remove(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
    if (twin.place(vms[step], {}, /*engine=*/(step / 3) % 2)) live.push_back(vms[step].id);
    if (step % 250 == 0) twin.check();
    if (::testing::Test::HasFailure()) return;
  }
  twin.check();
}

TEST(PlacementIndexDifferential, ActivationSeqPast2To32KeepsFullWidthTieBreak) {
  // Restore both twins with sequence numbers straddling 2^32: a tie-break
  // on a truncated 32-bit sequence would rank the later-activated PMs
  // (now just past 2^32) ahead of the earlier ones and diverge at once.
  run_churn_differential(
      ec2_sim_catalog(), /*fleet=*/300, /*total=*/2500, /*seed=*/9, /*two_choice=*/false,
      [](TwinRun& run, std::size_t step, std::vector<VmId>&) {
        if (step != 1200) return;
        Datacenter& dc = run.indexed_dc();
        const std::uint64_t first = dc.activation_seq(dc.used_pms().front());
        const std::uint64_t mid = (first + dc.activation_counter()) / 2;
        run.rebase_activation((std::uint64_t{1} << 32) - mid);
        ASSERT_LT(run.indexed_dc().activation_seq(run.indexed_dc().used_pms().front()),
                  std::uint64_t{1} << 32);
        ASSERT_GT(run.indexed_dc().activation_counter(), std::uint64_t{1} << 32);
        run.check();
      });
}

TEST(PlacementIndex, InvariantsHoldUnderRandomChurn) {
  const Catalog catalog = geni_catalog();
  Datacenter dc(catalog, mixed_pm_fleet(catalog, 60));
  Rng rng(123);
  std::vector<VmId> live;
  VmId next_id = 0;
  for (int op = 0; op < 4000; ++op) {
    const bool do_remove = !live.empty() && (live.size() > 150 || rng.uniform_index(3) == 0);
    if (do_remove) {
      const std::size_t pick = rng.uniform_index(live.size());
      dc.remove(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    } else {
      const Vm vm{next_id++, rng.uniform_index(catalog.vm_types().size())};
      // Random feasible PM, biased towards used ones to pile VMs up.
      std::vector<PmIndex> candidates;
      for (PmIndex i = 0; i < dc.pm_count(); ++i) {
        if (dc.fits(i, vm.type_index)) candidates.push_back(i);
      }
      if (candidates.empty()) continue;
      dc.place_first_fit(candidates[rng.uniform_index(candidates.size())], vm);
      live.push_back(vm.id);
    }
    if (op % 50 == 0) {
      ASSERT_NO_THROW(dc.check_index_invariants());
    }
  }
  ASSERT_NO_THROW(dc.check_index_invariants());

  // Drain completely: the index must collapse back to the empty state.
  while (!live.empty()) {
    dc.remove(live.back());
    live.pop_back();
  }
  ASSERT_NO_THROW(dc.check_index_invariants());
  ASSERT_EQ(dc.used_count(), 0u);
  for (std::size_t t = 0; t < catalog.pm_types().size(); ++t) {
    EXPECT_EQ(dc.used_bucket_count(t), 0u);
    EXPECT_EQ(dc.used_count_of_type(t), 0u);
  }
}

TEST(PlacementIndex, NextUnusedTracksTheFreeList) {
  const Catalog catalog = geni_catalog();
  Datacenter dc(catalog, std::vector<std::size_t>(70, 0));
  Rng rng(5);
  std::vector<VmId> live;
  VmId next_id = 0;
  for (int op = 0; op < 500; ++op) {
    if (!live.empty() && rng.uniform_index(2) == 0) {
      const std::size_t pick = rng.uniform_index(live.size());
      dc.remove(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    } else {
      const Vm vm{next_id++, 0};
      const auto target = dc.next_unused(rng.uniform_index(dc.pm_count()));
      if (!target.has_value() || !dc.fits(*target, 0)) continue;
      dc.place_first_fit(*target, vm);
      live.push_back(vm.id);
    }
    // next_unused must enumerate exactly the complement of the used set,
    // in index order — the contract unused_pms() is built on.
    std::vector<PmIndex> via_next;
    for (auto i = dc.next_unused(0); i.has_value(); i = dc.next_unused(*i + 1)) {
      via_next.push_back(*i);
    }
    ASSERT_EQ(via_next, dc.unused_pms());
    ASSERT_EQ(via_next.size() + dc.used_count(), dc.pm_count());
    for (PmIndex i : via_next) ASSERT_FALSE(dc.pm(i).used());
  }
}

TEST(PlacementIndex, BucketLookupMatchesLedger) {
  const Catalog catalog = geni_catalog();
  Datacenter dc(catalog, mixed_pm_fleet(catalog, 40));
  Rng rng(9);
  VmId next_id = 0;
  for (int op = 0; op < 300; ++op) {
    const Vm vm{next_id++, rng.uniform_index(catalog.vm_types().size())};
    std::vector<PmIndex> candidates;
    for (PmIndex i = 0; i < dc.pm_count(); ++i) {
      if (dc.fits(i, vm.type_index)) candidates.push_back(i);
    }
    if (candidates.empty()) break;
    dc.place_first_fit(candidates[rng.uniform_index(candidates.size())], vm);
  }
  // Every used PM must be findable through used_bucket() by its own key,
  // and for_each_used_bucket must enumerate the used set exactly. The SoA
  // accessors (bucket_keys / bucket_residuals / bucket_at) must agree with
  // the view-based enumeration slot for slot.
  std::size_t enumerated = 0;
  for (std::size_t t = 0; t < catalog.pm_types().size(); ++t) {
    const auto keys = dc.bucket_keys(t);
    const auto residuals = dc.bucket_residuals(t);
    ASSERT_EQ(keys.size(), residuals.size());
    ASSERT_EQ(keys.size(), dc.used_bucket_count(t));
    std::size_t slot = 0;
    dc.for_each_used_bucket(t, [&](ProfileKey key, Datacenter::BucketView pms) {
      ASSERT_LT(slot, keys.size());
      EXPECT_EQ(keys[slot], key);
      const auto by_key = dc.used_bucket(t, key);
      const auto by_slot = dc.bucket_at(t, slot);
      EXPECT_EQ(std::vector<PmIndex>(by_key.begin(), by_key.end()),
                std::vector<PmIndex>(pms.begin(), pms.end()));
      EXPECT_EQ(std::vector<PmIndex>(by_slot.begin(), by_slot.end()),
                std::vector<PmIndex>(pms.begin(), pms.end()));
      std::uint32_t walked = 0;
      for (PmIndex i : pms) {
        EXPECT_EQ(dc.pm(i).canonical_key, key);
        EXPECT_EQ(dc.pm(i).type_index, t);
        // The packed residual summary must never reject a VM that fits a
        // member (conservative prefilter contract).
        for (std::size_t v = 0; v < catalog.vm_types().size(); ++v) {
          if (!dc.fits(i, v)) continue;
          const auto& demand = catalog.demand(t, v);
          ASSERT_TRUE(demand.has_value());
          EXPECT_TRUE(resmask::may_fit(
              residuals[slot], resmask::pack_need(catalog.shape(t), *demand)));
        }
        ++walked;
      }
      EXPECT_EQ(walked, pms.size());
      enumerated += pms.size();
      ++slot;
    });
    EXPECT_EQ(slot, keys.size());
  }
  EXPECT_EQ(enumerated, dc.used_count());
  EXPECT_TRUE(dc.used_bucket(0, ~ProfileKey{0}).empty());
}

TEST(PlacementIndex, ResidualMaskIsExactOnGroupTotals) {
  // may_fit compares per-group totals: it must accept exactly when every
  // group's residual covers the demand total, across field boundaries.
  const ProfileShape shape({DimensionGroup{ResourceKind::kCpu, 4, 8},
                            DimensionGroup{ResourceKind::kMemory, 1, 16},
                            DimensionGroup{ResourceKind::kDisk, 2, 8}});
  const Profile usage = Profile::from_levels(shape, {8, 3, 0, 0, 5, 7, 0});
  const std::uint64_t free = resmask::pack_free(shape, usage);
  // Group residuals: cpu 32-11=21, mem 16-5=11, disk 16-7=9.
  EXPECT_EQ(free & 0xFFFF, 21u);
  EXPECT_EQ((free >> 16) & 0xFFFF, 11u);
  EXPECT_EQ((free >> 32) & 0xFFFF, 9u);

  const QuantizedDemand fits{{{8, 8, 5}, {11}, {9}}};
  const QuantizedDemand cpu_over{{{8, 8, 6}, {11}, {9}}};
  const QuantizedDemand mem_over{{{1}, {12}, {}}};
  const QuantizedDemand disk_over{{{}, {}, {5, 5}}};
  EXPECT_TRUE(resmask::may_fit(free, resmask::pack_need(shape, fits)));
  EXPECT_FALSE(resmask::may_fit(free, resmask::pack_need(shape, cpu_over)));
  EXPECT_FALSE(resmask::may_fit(free, resmask::pack_need(shape, mem_over)));
  EXPECT_FALSE(resmask::may_fit(free, resmask::pack_need(shape, disk_over)));
  // Zero demand always passes; zero residual only passes zero demand.
  EXPECT_TRUE(resmask::may_fit(free, 0));
  EXPECT_TRUE(resmask::may_fit(0, 0));
  EXPECT_FALSE(resmask::may_fit(0, 1));
}

}  // namespace
}  // namespace prvm
