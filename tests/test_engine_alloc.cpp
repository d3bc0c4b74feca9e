// Steady-state allocation test for the indexed PageRankVM engine.
//
// Built as its own binary (prvm_alloc_tests): the global operator new/delete
// overrides below count every heap allocation in the process, which would
// perturb the main suite. The contract: once the engine is warm (scratch
// vectors sized, rep cache populated, need masks built, hash maps past their
// final rehash), a place() allocates exactly as often as the ledger update
// it performs — the pick and permutation path runs on engine-owned scratch
// and borrowed views, adding zero allocations of its own.
#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

static std::atomic<std::size_t> g_allocations{0};

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

#include "cluster/catalog.hpp"
#include "cluster/datacenter.hpp"
#include "common/rng.hpp"
#include "core/catalog_graphs.hpp"
#include "placement/pagerank_vm.hpp"
#include "service/binary_protocol.hpp"
#include "sim/simulator.hpp"
#include "service/protocol.hpp"

#include <gtest/gtest.h>

namespace prvm {
namespace {

/// EC2 score tables, built once per process (uncached, so no disk IO).
std::shared_ptr<const ScoreTableSet> ec2_tables() {
  static const auto tables = std::make_shared<const ScoreTableSet>(
      build_score_tables(ec2_sim_catalog(), {}, std::nullopt));
  return tables;
}

TEST(EngineAlloc, WarmPlaceAllocatesOnlyInTheLedger) {
  const Catalog catalog = ec2_sim_catalog();
  const auto tables = ec2_tables();
  Datacenter dc(catalog, std::vector<std::size_t>(64, 0));
  PageRankVm engine(tables, {});

  // Load the fleet part-way so every place below lands on a used PM (the
  // activation fallback re-enumerates placements and may allocate) and the
  // place+remove round trip leaves the ledger exactly as it found it.
  Rng rng(11);
  VmId next_id = 1;
  const std::size_t vm_types = catalog.vm_types().size();
  for (int i = 0; i < 160; ++i) {
    const Vm vm{next_id++, rng.uniform_index(vm_types)};
    if (!engine.place(dc, vm).has_value()) break;
  }
  ASSERT_GT(dc.used_count(), 0u);

  // Warm-up pass: sizes the scratch vectors, fills the rep cache for every
  // (profile, VM type) the probe set touches, triggers the one spurious
  // FlatMap64 rehash try_emplace may perform at its load threshold, and
  // builds the need-mask matrix. The second repetition records each VM
  // type's choice.
  std::vector<std::optional<PmIndex>> chosen_pm(vm_types);
  std::vector<DemandPlacement> chosen(vm_types);
  for (int rep = 0; rep < 2; ++rep) {
    for (std::size_t v = 0; v < vm_types; ++v) {
      const Vm vm{next_id++, v};
      chosen_pm[v] = engine.place(dc, vm);
      if (!chosen_pm[v].has_value()) continue;
      chosen[v].assignments = dc.pm(*chosen_pm[v]).vms.back().assignments;
      dc.remove(vm.id);
    }
  }
  std::size_t placeable = 0;
  for (std::size_t v = 0; v < vm_types; ++v) placeable += chosen_pm[v].has_value() ? 1 : 0;
  ASSERT_GT(placeable, 0u);

  // Both measured passes issue the same VM ids, so the ledger's own
  // bookkeeping (vm index nodes, assignment vectors) costs the same in each.
  constexpr int kRounds = 50;
  const VmId first_id = next_id;
  const auto measure = [&](auto&& place_one) {
    VmId id = first_id;
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t v = 0; v < vm_types; ++v) {
        const Vm vm{id++, v};
        if (place_one(vm)) dc.remove(vm.id);
      }
    }
    return g_allocations.load(std::memory_order_relaxed) - before;
  };

  std::size_t mismatches = 0;
  const std::size_t engine_allocs = measure([&](const Vm& vm) {
    const std::optional<PmIndex> pm = engine.place(dc, vm);
    if (pm != chosen_pm[vm.type_index]) ++mismatches;
    return pm.has_value();
  });
  const std::size_t ledger_allocs = measure([&](const Vm& vm) {
    if (!chosen_pm[vm.type_index].has_value()) return false;
    dc.place(*chosen_pm[vm.type_index], vm, chosen[vm.type_index]);
    return true;
  });

  EXPECT_EQ(mismatches, 0u) << "a warm place() strayed from its recorded pick";
  EXPECT_EQ(engine_allocs, ledger_allocs)
      << "place() allocated " << engine_allocs << " times across " << kRounds
      << " warm rounds; replaying its choices through the ledger alone allocated "
      << ledger_allocs;
}

// The pick index is sized once, when place() attaches it: keeping the trees
// exact across place()/remove() churn rewrites entries in place and never
// grows, shrinks or moves their storage.
TEST(EngineAlloc, PickIndexStorageIsStableAcrossChurn) {
  const Catalog catalog = ec2_sim_catalog();
  const auto tables = ec2_tables();
  Datacenter dc(catalog, mixed_pm_fleet(catalog, 300));
  PageRankVm engine(tables, {});
  Rng rng(23);
  const std::vector<double> mix = default_vm_mix(catalog);
  VmId next_id = 1;
  std::vector<VmId> live;
  ASSERT_TRUE(engine.place(dc, Vm{next_id++, 0}).has_value());
  live.push_back(1);
  const PickIndex::Entry* data = dc.pick_index().nodes().data();
  const std::size_t capacity = dc.pick_index().nodes().capacity();

  for (int op = 0; op < 10000; ++op) {
    // Fill towards saturation first, then release+place at it.
    if (live.size() > 1500 || (live.size() > 1000 && rng.uniform_index(2) == 0)) {
      const std::size_t pick = rng.uniform_index(live.size());
      dc.remove(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    } else {
      const Vm vm{next_id++, rng.weighted_index(mix)};
      if (engine.place(dc, vm).has_value()) live.push_back(vm.id);
    }
    ASSERT_EQ(dc.pick_index().nodes().data(), data) << "pick index storage moved at op " << op;
    ASSERT_EQ(dc.pick_index().nodes().capacity(), capacity);
  }
  ASSERT_GT(dc.used_count(), 100u);
  dc.check_index_invariants();
}

// The cell channel's submit path (cell_channel.cpp) encodes every request
// into one member buffer it clears and reuses — the fix this test pins
// down: a warm channel must encode without touching the heap at all on the
// binary protocol, and the reused JSON buffer must beat the old
// fresh-string-per-request encode_request() path. The channel itself is not
// constructed here (its promise queue allocates by design); the encode
// calls below are exactly the ones submit() makes.
TEST(ChannelEncodeAlloc, WarmReusedEncodeBufferDelta) {
  Request place;
  place.op = RequestOp::kPlace;
  place.vm_id = 123456;
  place.vm_type_index = 7;
  place.group = "web-tier";

  constexpr int kRounds = 1000;
  std::string reused;

  // Warm-up sizes the reused buffer once.
  encode_binary_request_into(place, reused);
  reused.clear();
  encode_binary_request_into(place, reused, /*type_slot=*/std::nullopt);

  // Binary encode into the warm buffer: zero heap traffic. This is the
  // whole point of the PRVB1 hot path — no std::to_string, no json_quote
  // temporaries, just byte appends into existing capacity.
  std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kRounds; ++i) {
    reused.clear();
    encode_binary_request_into(place, reused);
  }
  const std::size_t binary_allocs = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(binary_allocs, 0u) << "warm binary encode allocated";

  // JSON into the same reused buffer: the std::to_string/json_quote
  // temporaries fit the small-string optimization at this request size, so
  // buffer reuse alone gets JSON to zero too — larger fields (long group
  // names, repl hex payloads) spill and allocate where binary still won't.
  reused.clear();
  encode_request_into(place, reused);
  before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kRounds; ++i) {
    reused.clear();
    encode_request_into(place, reused);
  }
  const std::size_t json_reused_allocs =
      g_allocations.load(std::memory_order_relaxed) - before;

  // The old channel behavior: a fresh string per request on top of that.
  before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kRounds; ++i) {
    const std::string line = encode_request(place);
    ASSERT_FALSE(line.empty());
  }
  const std::size_t json_fresh_allocs =
      g_allocations.load(std::memory_order_relaxed) - before;

  // Report the per-request deltas the buffer-reuse fix and the binary
  // codec buy (visible with --gtest_brief=0 and in CI logs).
  RecordProperty("binary_allocs_per_request", static_cast<int>(binary_allocs / kRounds));
  RecordProperty("json_reused_allocs_per_request",
                 static_cast<int>(json_reused_allocs / kRounds));
  RecordProperty("json_fresh_allocs_per_request",
                 static_cast<int>(json_fresh_allocs / kRounds));
  std::printf("[ alloc/req ] binary reused=%.2f  json reused=%.2f  json fresh=%.2f\n",
              static_cast<double>(binary_allocs) / kRounds,
              static_cast<double>(json_reused_allocs) / kRounds,
              static_cast<double>(json_fresh_allocs) / kRounds);

  // Reusing the buffer must strictly beat allocating a line per request;
  // binary must never be worse than JSON on the same reused buffer.
  EXPECT_LT(json_reused_allocs, json_fresh_allocs);
  EXPECT_LE(binary_allocs, json_reused_allocs);
}

}  // namespace
}  // namespace prvm
