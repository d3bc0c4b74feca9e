// Sharded-cell subsystem tests (DESIGN.md §7): the GroupDirectory state
// machine, cell topology hashing, group-op protocol frames, the Router over
// embedded cells (hash routing, capacity spillover, the cross-cell
// reserve/commit saga), the sharded-vs-single differential oracle, home-cell
// crash recovery mid-reserve, and the socket cell channel.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <future>
#include <mutex>
#include <ostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <unistd.h>

#include "cells/embedded.hpp"
#include "cells/group_directory.hpp"
#include "cells/topology.hpp"
#include "cluster/catalog.hpp"
#include "common/rng.hpp"
#include "core/catalog_graphs.hpp"
#include "router/cell_channel.hpp"
#include "router/router.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/snapshot.hpp"
#include "service/socket_server.hpp"
#include "sim/simulator.hpp"

namespace prvm {
namespace {

std::shared_ptr<const ScoreTableSet> tables_for(const Catalog& catalog) {
  return std::make_shared<const ScoreTableSet>(build_score_tables(catalog));
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("prvm-cells-" + tag + "-" + std::to_string(::getpid()));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

Request place_request(std::uint64_t vm, std::size_t type, std::string group = "") {
  Request request;
  request.op = RequestOp::kPlace;
  request.vm_id = vm;
  request.vm_type_index = type;
  request.group = std::move(group);
  return request;
}

Request vm_request(RequestOp op, std::uint64_t vm) {
  Request request;
  request.op = op;
  request.vm_id = vm;
  return request;
}

/// The value of an `extra` member, or "" when absent.
std::string extra_of(const Response& response, const std::string& key) {
  for (const auto& [k, v] : response.extra) {
    if (k == key) return v;
  }
  return "";
}

/// Test double in front of one cell. It logs every request the router
/// sends it and forwards each at once, so the cell sees them in send order.
/// With hold_trailing() it withholds the answers to gcommit/gabort until
/// stop_now(), which drops them unanswered — what a hard-stopped cell does
/// to the requests still in its queue when it is torn down.
class RecordingSink : public RequestSink {
 public:
  explicit RecordingSink(RequestSink& cell) : cell_(cell) {}

  std::future<Response> submit(Request request) override {
    std::lock_guard<std::mutex> lock(mu_);
    const RequestOp op = request.op;
    sent_.push_back(op);
    std::future<Response> answer = cell_.submit(std::move(request));
    if (!hold_trailing_ || (op != RequestOp::kGroupCommit && op != RequestOp::kGroupAbort))
      return answer;
    held_.emplace_back(std::move(answer), std::promise<Response>());
    return held_.back().second.get_future();
  }

  void hold_trailing() {
    std::lock_guard<std::mutex> lock(mu_);
    hold_trailing_ = true;
  }
  /// Answers every withheld request (unblocks a router that waits on one).
  void release_held() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [answer, promise] : held_) promise.set_value(answer.get());
    held_.clear();
  }
  void stop_now() {
    std::lock_guard<std::mutex> lock(mu_);
    held_.clear();  // the router's futures now hold a broken promise
    hold_trailing_ = false;
  }
  std::vector<RequestOp> sent() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sent_;
  }
  std::size_t held() const {
    std::lock_guard<std::mutex> lock(mu_);
    return held_.size();
  }

 private:
  RequestSink& cell_;
  mutable std::mutex mu_;
  std::vector<RequestOp> sent_;
  bool hold_trailing_ = false;
  std::vector<std::pair<std::future<Response>, std::promise<Response>>> held_;
};

/// A fake cell that accepts every request at once — including a place of a
/// vm it already holds, which a real cell would answer duplicate_vm. That is
/// what lets two placements of one vm both succeed "at the cell", the race
/// the router must compensate for. With hold_grouped_place() it withholds
/// the answer to the next grouped place until release_place().
class AcceptingSink : public RequestSink {
 public:
  struct Sent {
    RequestOp op;
    std::uint64_t vm;
    std::string group;
    bool operator==(const Sent&) const = default;
    friend std::ostream& operator<<(std::ostream& os, const Sent& sent) {
      os << to_string(sent.op) << "(" << sent.vm;
      if (!sent.group.empty()) os << ", " << sent.group;
      return os << ")";
    }
  };

  std::future<Response> submit(Request request) override {
    Response response;
    response.ok = true;
    response.op = to_string(request.op);
    response.vm = request.vm_id;
    if (request.op == RequestOp::kPlace) response.pm = 0;
    std::lock_guard<std::mutex> lock(mu_);
    sent_.push_back(Sent{request.op, request.vm_id, request.group});
    if (hold_ && request.op == RequestOp::kPlace && !request.group.empty()) {
      hold_ = false;
      held_ = std::make_unique<std::pair<std::promise<Response>, Response>>();
      held_->second = std::move(response);
      held_cv_.notify_all();
      return held_->first.get_future();
    }
    std::promise<Response> answer;
    answer.set_value(std::move(response));
    return answer.get_future();
  }

  void hold_grouped_place() {
    std::lock_guard<std::mutex> lock(mu_);
    hold_ = true;
  }
  /// Waits (bounded) until the held grouped place has arrived.
  bool wait_held() {
    std::unique_lock<std::mutex> lock(mu_);
    return held_cv_.wait_for(lock, std::chrono::seconds(30), [&] { return held_ != nullptr; });
  }
  /// Answers the held grouped place: accepted.
  void release_place() {
    std::lock_guard<std::mutex> lock(mu_);
    held_->first.set_value(held_->second);
    held_.reset();
  }
  std::vector<Sent> sent() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sent_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable held_cv_;
  std::vector<Sent> sent_;
  bool hold_ = false;
  std::unique_ptr<std::pair<std::promise<Response>, Response>> held_;
};

// ---------------------------------------------------------------------------
// GroupDirectory state machine.

TEST(GroupDirectory, ReserveCommitAbortLifecycle) {
  GroupDirectory dir;
  EXPECT_EQ(dir.try_reserve("web", 7, /*now_ms=*/1000), RejectReason::kNone);
  dir.apply_reserve("web", 7, /*token=*/41, /*deadline_ms=*/6000);
  EXPECT_EQ(dir.member_count(), 1u);
  EXPECT_EQ(dir.pending_count(), 1u);

  // A live (unexpired) reservation blocks a second reserve of the same vm.
  EXPECT_EQ(dir.try_reserve("web", 7, 2000), RejectReason::kDuplicateVm);
  // Other vms and other groups are unaffected.
  EXPECT_EQ(dir.try_reserve("web", 8, 2000), RejectReason::kNone);
  EXPECT_EQ(dir.try_reserve("db", 7, 2000), RejectReason::kNone);

  EXPECT_EQ(dir.try_commit("web", 7, /*cell=*/2), RejectReason::kNone);
  dir.apply_commit("web", 7, 2);
  const GroupDirectory::Member* member = dir.member("web", 7);
  ASSERT_NE(member, nullptr);
  EXPECT_EQ(member->state, GroupDirectory::MemberState::kCommitted);
  EXPECT_EQ(member->cell, 2u);
  EXPECT_EQ(dir.pending_count(), 0u);

  // Commit is idempotent for the same cell; a different cell is the
  // double-placement a crashed saga could produce.
  EXPECT_EQ(dir.try_commit("web", 7, 2), RejectReason::kNone);
  EXPECT_EQ(dir.try_commit("web", 7, 3), RejectReason::kDuplicateVm);
  // A committed member also blocks re-reserve regardless of deadline.
  EXPECT_EQ(dir.try_reserve("web", 7, 999999), RejectReason::kDuplicateVm);

  dir.apply_abort("web", 7);
  EXPECT_EQ(dir.member("web", 7), nullptr);
  EXPECT_EQ(dir.try_reserve("web", 7, 999999), RejectReason::kNone);
  dir.apply_abort("web", 7);  // aborting an absent member is a no-op
  EXPECT_EQ(dir.member_count(), 0u);
}

TEST(GroupDirectory, ExpiryIsLazyAndPure) {
  GroupDirectory dir;
  dir.apply_reserve("g", 1, 10, /*deadline_ms=*/500);
  // Before the deadline the reservation holds; after, try_reserve treats it
  // as absent — but the entry itself is NOT dropped (replay determinism).
  EXPECT_EQ(dir.try_reserve("g", 1, 499), RejectReason::kDuplicateVm);
  EXPECT_EQ(dir.try_reserve("g", 1, 501), RejectReason::kNone);
  ASSERT_NE(dir.member("g", 1), nullptr) << "expiry must not mutate the directory";
  EXPECT_EQ(dir.pending_count(), 1u);

  // A fresh reserve overwrites the expired one (new token, new deadline).
  dir.apply_reserve("g", 1, 11, 9000);
  EXPECT_EQ(dir.member("g", 1)->token, 11u);
  EXPECT_EQ(dir.try_reserve("g", 1, 501), RejectReason::kDuplicateVm);
}

TEST(GroupDirectory, SerializeRoundTripsAllStates) {
  GroupDirectory dir;
  dir.apply_reserve("web", 1, 5, 1000);
  dir.apply_commit("web", 2, 3);
  dir.apply_reserve("db", 9, 6, 2000);
  dir.apply_commit("db", 9, 1);  // pending -> committed

  std::stringstream stream;
  dir.serialize(stream);
  const GroupDirectory loaded = GroupDirectory::deserialize(stream);
  EXPECT_TRUE(dir.state_equal(loaded));
  EXPECT_EQ(loaded.member_count(), 3u);
  EXPECT_EQ(loaded.pending_count(), 1u);
  ASSERT_NE(loaded.member("web", 1), nullptr);
  EXPECT_EQ(loaded.member("web", 1)->deadline_ms, 1000u);
  ASSERT_NE(loaded.member("db", 9), nullptr);
  EXPECT_EQ(loaded.member("db", 9)->cell, 1u);

  // Empty directory round-trips too (the common snapshot case).
  std::stringstream empty;
  GroupDirectory{}.serialize(empty);
  EXPECT_TRUE(GroupDirectory::deserialize(empty).state_equal(GroupDirectory{}));
  EXPECT_FALSE(loaded.state_equal(GroupDirectory{}));
}

// ---------------------------------------------------------------------------
// Topology.

TEST(CellTopology, HashingIsStableInRangeAndRoughlyUniform) {
  for (const std::size_t cells : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
    std::vector<std::size_t> load(cells, 0);
    for (std::uint64_t vm = 0; vm < 4000; ++vm) {
      const std::size_t cell = cell_of_vm(vm, cells);
      ASSERT_LT(cell, cells);
      EXPECT_EQ(cell, cell_of_vm(vm, cells)) << "routing must be deterministic";
      ++load[cell];
    }
    for (const std::size_t count : load) {
      // Dense sequential vm ids must spread ~evenly (the mix64 finalizer's
      // whole job); allow a generous ±50% band around the mean.
      EXPECT_GT(count, 4000 / cells / 2) << cells << " cells";
      EXPECT_LT(count, 4000 / cells * 3 / 2) << cells << " cells";
    }
  }
  EXPECT_EQ(cell_of_group("web", 4), cell_of_group("web", 4));
  EXPECT_LT(cell_of_group("anything", 3), 3u);
  EXPECT_EQ(cell_of_vm(12345, 1), 0u);
}

TEST(CellTopology, SplitFleetIsARoundRobinPermutationPreservingMix) {
  const std::vector<std::size_t> fleet = {0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0};
  const auto slices = split_fleet(fleet, 3);
  ASSERT_EQ(slices.size(), 3u);
  std::vector<std::size_t> rejoined;
  for (const auto& slice : slices) {
    // Round-robin keeps slice sizes within one PM of even.
    EXPECT_GE(slice.size(), fleet.size() / 3);
    EXPECT_LE(slice.size(), fleet.size() / 3 + 1);
    rejoined.insert(rejoined.end(), slice.begin(), slice.end());
  }
  std::multiset<std::size_t> a(fleet.begin(), fleet.end());
  std::multiset<std::size_t> b(rejoined.begin(), rejoined.end());
  EXPECT_EQ(a, b) << "the slices must be a permutation of the fleet";
  // Each slice keeps both PM types (the alternating mix survives the split).
  for (const auto& slice : slices) {
    EXPECT_NE(std::count(slice.begin(), slice.end(), 0), 0);
    EXPECT_NE(std::count(slice.begin(), slice.end(), 1), 0);
  }
}

// ---------------------------------------------------------------------------
// Protocol: group ops and request round-trips.

TEST(CellProtocol, ParsesGroupOps) {
  const auto reserve = parse_request(R"({"op":"gres","group":"web","vm":7})");
  const Request* request = std::get_if<Request>(&reserve);
  ASSERT_NE(request, nullptr);
  EXPECT_EQ(request->op, RequestOp::kGroupReserve);
  EXPECT_EQ(request->group, "web");
  EXPECT_EQ(request->vm_id, 7u);

  const auto commit = parse_request(R"({"op":"gcommit","group":"web","vm":7,"cell":2})");
  const Request* creq = std::get_if<Request>(&commit);
  ASSERT_NE(creq, nullptr);
  EXPECT_EQ(creq->op, RequestOp::kGroupCommit);
  ASSERT_TRUE(creq->cell.has_value());
  EXPECT_EQ(*creq->cell, 2u);

  const auto abort_parsed = parse_request(R"({"op":"gabort","group":"web","vm":7})");
  ASSERT_NE(std::get_if<Request>(&abort_parsed), nullptr);
  EXPECT_EQ(std::get_if<Request>(&abort_parsed)->op, RequestOp::kGroupAbort);

  // A group op without its group is a structured error, not a default.
  const auto missing = parse_request(R"({"op":"gres","vm":7})");
  const ProtocolError* error = std::get_if<ProtocolError>(&missing);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, "missing_field");
}

TEST(CellProtocol, EncodeRequestRoundTripsEveryOp) {
  std::vector<Request> requests;
  requests.push_back(place_request(7, 2, "web"));
  requests.push_back(place_request(8, 0));
  requests.push_back(vm_request(RequestOp::kRelease, 3));
  requests.push_back(vm_request(RequestOp::kMigrate, 4));
  requests.push_back(vm_request(RequestOp::kLookup, 5));
  for (const RequestOp op :
       {RequestOp::kStats, RequestOp::kHealth, RequestOp::kMetrics, RequestOp::kDrain}) {
    Request request;
    request.op = op;
    requests.push_back(request);
  }
  {
    Request request;
    request.op = RequestOp::kGroupReserve;
    request.vm_id = 9;
    request.group = "g \"quoted\"";
    requests.push_back(request);
    request.op = RequestOp::kGroupCommit;
    request.cell = 3;
    requests.push_back(request);
    request.op = RequestOp::kGroupAbort;
    request.cell.reset();
    requests.push_back(request);
  }
  // Type-by-name survives too (the router forwards requests it never built).
  Request by_name;
  by_name.op = RequestOp::kPlace;
  by_name.vm_id = 11;
  by_name.vm_type_name = "m3.xlarge";
  requests.push_back(by_name);

  for (const Request& request : requests) {
    const std::string line = encode_request(request);
    ASSERT_EQ(line.back(), '\n');
    const auto parsed = parse_request(std::string_view(line).substr(0, line.size() - 1));
    const Request* round = std::get_if<Request>(&parsed);
    ASSERT_NE(round, nullptr) << line;
    EXPECT_EQ(round->op, request.op) << line;
    EXPECT_EQ(round->vm_id, request.vm_id) << line;
    EXPECT_EQ(round->vm_type_index, request.vm_type_index) << line;
    EXPECT_EQ(round->vm_type_name, request.vm_type_name) << line;
    EXPECT_EQ(round->group, request.group) << line;
    EXPECT_EQ(round->cell, request.cell) << line;
  }
}

// ---------------------------------------------------------------------------
// Router over embedded cells.

class RouterTest : public ::testing::Test {
 protected:
  RouterTest() : catalog_(ec2_catalog()), tables_(tables_for(catalog_)) {}

  /// N started cells over `fleet` PMs, no data dirs (ephemeral).
  std::unique_ptr<EmbeddedCells> make_cells(std::size_t cells, std::size_t fleet,
                                            const std::filesystem::path& data_dir = {}) {
    EmbeddedCellsConfig config;
    config.cells = cells;
    config.data_dir = data_dir;
    auto embedded = std::make_unique<EmbeddedCells>(
        catalog_, mixed_pm_fleet(catalog_, fleet), tables_, config);
    embedded->start();
    return embedded;
  }

  Response call(Router& router, Request request) {
    return router.submit(std::move(request)).get();
  }

  std::uint64_t counter(const Router& router, const char* name) {
    const obs::Counter* c = router.metrics_registry().find_counter(name);
    return c != nullptr ? c->value() : 0;
  }

  Catalog catalog_;
  std::shared_ptr<const ScoreTableSet> tables_;
};

TEST_F(RouterTest, RoutesVmOpsAndMergesFanouts) {
  auto embedded = make_cells(2, 8);
  Router router(embedded->sinks());

  // Place a handful of VMs; each response reports its owning cell and the
  // router must route every follow-up op for that vm to the same cell.
  for (std::uint64_t vm = 1; vm <= 10; ++vm) {
    const Response placed = call(router, place_request(vm, vm % 2));
    ASSERT_TRUE(placed.ok) << placed.error;
    const std::string cell = extra_of(placed, "cell");
    ASSERT_FALSE(cell.empty());
    EXPECT_EQ(cell, std::to_string(*router.cell_of(vm)));

    const Response looked = call(router, vm_request(RequestOp::kLookup, vm));
    ASSERT_TRUE(looked.ok);
    EXPECT_EQ(looked.pm, placed.pm) << "lookup must hit the owning cell";
  }
  // Ops for unknown vms stay structured.
  EXPECT_EQ(call(router, vm_request(RequestOp::kRelease, 999)).error, "unknown_vm");
  EXPECT_EQ(call(router, vm_request(RequestOp::kLookup, 999)).error, "unknown_vm");

  // Migrate keeps the vm known; release forgets it.
  const Response migrated = call(router, vm_request(RequestOp::kMigrate, 1));
  ASSERT_TRUE(migrated.ok) << migrated.error;
  ASSERT_TRUE(call(router, vm_request(RequestOp::kRelease, 1)).ok);
  EXPECT_EQ(call(router, vm_request(RequestOp::kLookup, 1)).error, "unknown_vm");
  EXPECT_FALSE(router.cell_of(1).has_value());

  // stats fans out to every cell and sums the counters.
  const Response stats = call(router, Request{});
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(extra_of(stats, "cells"), "2");
  EXPECT_EQ(extra_of(stats, "placed"), "10");
  EXPECT_EQ(extra_of(stats, "released"), "1");
  EXPECT_EQ(extra_of(stats, "migrated"), "1");
  EXPECT_EQ(extra_of(stats, "vm_count"), "9");

  // health merges to the worst mode and reports the router role.
  Request health;
  health.op = RequestOp::kHealth;
  const Response merged = call(router, health);
  ASSERT_TRUE(merged.ok);
  EXPECT_EQ(extra_of(merged, "mode"), "\"ok\"");
  EXPECT_EQ(extra_of(merged, "role"), "\"router\"");
  EXPECT_EQ(extra_of(merged, "cells"), "2");
  EXPECT_EQ(extra_of(merged, "cells_unreachable"), "0");

  EXPECT_GE(counter(router, "prvm_router_requests_total"), 16u);
  EXPECT_GE(counter(router, "prvm_router_fanout_requests_total"), 2u);
  embedded->stop_now();
}

TEST_F(RouterTest, SpillsOverWhenTheHomeCellIsFullAndRejectsWhenAllAre) {
  // Two cells of ONE PM each: the smallest sharded deployment where the
  // hash target can be full while the fleet still has room.
  auto embedded = make_cells(2, 2);
  Router router(embedded->sinks());

  // Keep placing vms that all hash to cell 0. Cell 0 must fill first, after
  // which every placement can only succeed by spilling to cell 1; when both
  // are full the reject is the ordinary structured no_capacity.
  std::uint64_t vm = 0;
  bool spilled = false;
  std::size_t accepted = 0;
  std::string final_error;
  while (final_error.empty() && vm < 100000) {
    ++vm;
    if (cell_of_vm(vm, 2) != 0) continue;
    const Response response = call(router, place_request(vm, 0));
    if (response.ok) {
      ++accepted;
      if (extra_of(response, "cell") == "1") spilled = true;
    } else {
      final_error = response.error;
    }
  }
  EXPECT_TRUE(spilled) << "placements must spill to the non-home cell";
  EXPECT_EQ(final_error, "no_capacity");
  EXPECT_GT(accepted, 0u);
  EXPECT_GE(counter(router, "prvm_router_spillover_total"), 1u);

  // Both cells really are in use: the merged stats see two used PMs.
  const Response stats = call(router, Request{});
  EXPECT_EQ(extra_of(stats, "used_pms"), "2");
  embedded->stop_now();
}

TEST_F(RouterTest, GroupedSagaSpansCellsWithoutDoublePlacement) {
  auto embedded = make_cells(2, 12);
  Router router(embedded->sinks());

  // Four members of one anti-collocation group; the reserve/commit saga must
  // land each on a globally distinct (cell, pm) pair.
  std::set<std::pair<std::string, std::uint64_t>> sites;
  for (std::uint64_t vm = 1; vm <= 4; ++vm) {
    const Response placed = call(router, place_request(vm, 0, "web"));
    ASSERT_TRUE(placed.ok) << placed.error << ": " << placed.message;
    ASSERT_TRUE(placed.pm.has_value());
    EXPECT_TRUE(sites.emplace(extra_of(placed, "cell"), *placed.pm).second)
        << "group members must never share a PM";
  }

  // A duplicate member is vetoed by the home cell's directory, not placed.
  EXPECT_EQ(call(router, place_request(2, 0, "web")).error, "duplicate_vm");

  // The home cell holds all four committed memberships and no pendings
  // (every gcommit landed). The trailing gcommit is only ordered at the
  // home cell when the ack returns; a routed stats fan-out queues behind it
  // at every cell, so once it answers the directory is up to date.
  call(router, Request{});
  PlacementService& home = embedded->cell(cell_of_group("web", 2));
  EXPECT_EQ(home.group_directory().member_count(), 4u);
  EXPECT_EQ(home.group_directory().pending_count(), 0u);

  // Releasing a member aborts its membership at the home cell, making the
  // vm id placeable in the group again.
  ASSERT_TRUE(call(router, vm_request(RequestOp::kRelease, 2)).ok);
  call(router, Request{});  // barrier behind the trailing gabort
  EXPECT_EQ(home.group_directory().member_count(), 3u);
  const Response replaced = call(router, place_request(2, 0, "web"));
  ASSERT_TRUE(replaced.ok) << replaced.error;
  call(router, Request{});  // barrier behind the trailing gcommit
  EXPECT_EQ(home.group_directory().member_count(), 4u);

  EXPECT_GE(counter(router, "prvm_router_group_reserves_total"), 5u);
  EXPECT_GE(counter(router, "prvm_router_group_commits_total"), 5u);
  EXPECT_GE(counter(router, "prvm_router_group_aborts_total"), 1u);
  embedded->stop_now();
}

TEST_F(RouterTest, GroupedSagaAcksAfterEnqueueingItsTrailingOps) {
  auto embedded = make_cells(2, 12);
  RecordingSink sink0(embedded->cell(0));
  RecordingSink sink1(embedded->cell(1));
  Router router({&sink0, &sink1});
  const std::size_t home = cell_of_group("web", 2);
  RecordingSink& home_sink = home == 0 ? sink0 : sink1;
  RecordingSink& other_sink = home == 0 ? sink1 : sink0;
  home_sink.hold_trailing();

  // Resolves `pending` on another thread (as a socket writer would), so a
  // router that waited on a withheld answer fails the test, not hangs it.
  const auto resolve = [&](std::future<Response>& pending) {
    auto waiter = std::async(std::launch::async, [&pending] { return pending.get(); });
    if (waiter.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
      ADD_FAILURE() << "the ack waited for a withheld gcommit/gabort answer";
      home_sink.release_held();
    }
    return waiter.get();
  };
  using Ops = std::vector<RequestOp>;

  // The reserve leaves inside submit(); nothing else does.
  auto placing = router.submit(place_request(1, 0, "web"));
  EXPECT_EQ(home_sink.sent(), Ops{RequestOp::kGroupReserve});
  EXPECT_TRUE(other_sink.sent().empty());

  // The ack returns with the gcommit enqueued and its answer still withheld:
  // of the requests issued while the continuation ran, only the place was
  // waited on — one blocking cell wait per grouped place.
  const Response placed = resolve(placing);
  ASSERT_TRUE(placed.ok) << placed.error;
  const bool placed_home = extra_of(placed, "cell") == std::to_string(home);
  const Ops home_expected =
      placed_home ? Ops{RequestOp::kGroupReserve, RequestOp::kPlace, RequestOp::kGroupCommit}
                  : Ops{RequestOp::kGroupReserve, RequestOp::kGroupCommit};
  EXPECT_EQ(home_sink.sent(), home_expected);
  EXPECT_EQ(other_sink.sent(), placed_home ? Ops{} : Ops{RequestOp::kPlace});
  EXPECT_EQ(home_sink.held(), 1u);

  // A grouped release: the release leaves inside submit(), the gabort is
  // enqueued at the home cell before the ack, unanswered.
  auto releasing = router.submit(vm_request(RequestOp::kRelease, 1));
  RecordingSink& owner = placed_home ? home_sink : other_sink;
  EXPECT_EQ(owner.sent().back(), RequestOp::kRelease);
  EXPECT_TRUE(resolve(releasing).ok);
  EXPECT_EQ(home_sink.sent().back(), RequestOp::kGroupAbort);
  EXPECT_EQ(home_sink.held(), 2u);

  // The home cell dies with both trailing ops queued. Later submits reap
  // the broken answers as cell_unreachable and never throw.
  embedded->cell(home).stop_now();
  home_sink.stop_now();
  EXPECT_NO_THROW(call(router, place_request(2, 0)));
  EXPECT_EQ(counter(router, "prvm_router_cell_unreachable_total"), 2u);
  EXPECT_NO_THROW(call(router, place_request(3, 0, "web")));
  EXPECT_NO_THROW(call(router, vm_request(RequestOp::kLookup, 2)));
  embedded->stop_now();
}

TEST_F(RouterTest, CompensatesAPlacementTheCellAcceptedTwice) {
  AcceptingSink cell;
  Router router({&cell});
  using Sent = AcceptingSink::Sent;

  // Two pipelined places of vm 1: both go out eagerly (neither is in the
  // vm map yet) and the fake cell accepts both. The second to resolve loses
  // the map insert, so the router releases its placement again.
  auto first = router.submit(place_request(1, 0));
  auto second = router.submit(place_request(1, 0));
  ASSERT_TRUE(first.get().ok);
  const Response lost = second.get();
  EXPECT_EQ(lost.error, "duplicate_vm");
  EXPECT_EQ(cell.sent(), (std::vector<Sent>{{RequestOp::kPlace, 1, ""},
                                            {RequestOp::kPlace, 1, ""},
                                            {RequestOp::kRelease, 1, ""}}));
  EXPECT_EQ(counter(router, "prvm_router_compensations_total"), 1u);
  EXPECT_EQ(router.cell_of(1), std::optional<std::size_t>{0});

  // The grouped form: two connections race vm 2, one ungrouped, one into
  // "web". The grouped place passes its duplicate check and reserve, and
  // its placement is held at the cell while the ungrouped one records the
  // vm. Once the cell accepts the grouped place too, the router must
  // release it and give back the reservation with a gabort, and never
  // commit it.
  auto ungrouped = router.submit(place_request(2, 0));
  auto grouped = router.submit(place_request(2, 0, "web"));
  cell.hold_grouped_place();
  auto racing = std::async(std::launch::async, [&grouped] { return grouped.get(); });
  ASSERT_TRUE(cell.wait_held()) << "the grouped place never reached the cell";
  ASSERT_TRUE(ungrouped.get().ok);
  cell.release_place();
  EXPECT_EQ(racing.get().error, "duplicate_vm");
  const std::vector<Sent> sent = cell.sent();
  const std::vector<Sent> tail(sent.end() - 2, sent.end());
  EXPECT_EQ(tail, (std::vector<Sent>{{RequestOp::kRelease, 2, ""},
                                     {RequestOp::kGroupAbort, 2, "web"}}))
      << "the compensating release and gabort must both be sent before the ack";
  EXPECT_EQ(std::count_if(sent.begin(), sent.end(),
                          [](const Sent& s) { return s.op == RequestOp::kGroupCommit; }),
            0);
  EXPECT_EQ(counter(router, "prvm_router_compensations_total"), 2u);
}

TEST_F(RouterTest, FailedEagerReserveLeavesTheForeignReservationAlone) {
  auto embedded = make_cells(2, 12);
  RecordingSink sink0(embedded->cell(0));
  RecordingSink sink1(embedded->cell(1));
  Router router({&sink0, &sink1});
  const std::size_t home = cell_of_group("web", 2);
  PlacementService& home_cell = embedded->cell(home);
  RecordingSink& home_sink = home == 0 ? sink0 : sink1;

  // Another router's saga holds a pending reservation of vm 5 in "web".
  Request foreign;
  foreign.op = RequestOp::kGroupReserve;
  foreign.vm_id = 5;
  foreign.group = "web";
  ASSERT_TRUE(home_cell.submit(foreign).get().ok);

  // This router pipelines place(5) and place(5, "web"). The grouped place
  // sends its reserve eagerly, and the foreign reservation makes it fail;
  // by its resolve time place(5) has recorded the vm, so it is a duplicate.
  auto plain = router.submit(place_request(5, 0));
  auto grouped = router.submit(place_request(5, 0, "web"));
  ASSERT_TRUE(plain.get().ok);
  EXPECT_EQ(grouped.get().error, "duplicate_vm");

  // The reservation it failed to take is not its to give back.
  call(router, Request{});  // barrier behind any trailing op
  for (const RequestOp op : home_sink.sent()) EXPECT_NE(op, RequestOp::kGroupAbort);
  const GroupDirectory::Member* member = home_cell.group_directory().member("web", 5);
  ASSERT_NE(member, nullptr) << "the foreign reservation was aborted";
  EXPECT_EQ(home_cell.group_directory().pending_count(), 1u);
  embedded->stop_now();
}

// ---------------------------------------------------------------------------
// Sharded vs single-cell differential.

TEST_F(RouterTest, ShardedMatchesSingleCellOnRandomSpanningGroupSequences) {
  // With capacity to spare, a sharded deployment must accept and reject
  // EXACTLY the same requests as one big cell: the only rejects left are
  // duplicate_vm / unknown_vm / group vetoes, all capacity-independent.
  // Placements (which pm) legitimately differ — the fleets differ.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    ServiceConfig single_config;
    PlacementService single(catalog_, mixed_pm_fleet(catalog_, 40), tables_,
                            single_config);
    single.start();
    auto embedded = make_cells(3, 40);
    Router router(embedded->sinks());

    Rng rng(seed);
    const std::vector<std::string> groups = {"", "", "web", "db", "cache"};
    std::vector<std::uint64_t> live;
    std::uint64_t next_vm = 1;
    for (int op = 0; op < 250; ++op) {
      Request request;
      const std::size_t dice = rng.uniform_index(10);
      if (dice < 6 || live.empty()) {
        const bool duplicate = !live.empty() && rng.chance(0.1);
        const std::uint64_t vm =
            duplicate ? live[rng.uniform_index(live.size())] : next_vm++;
        request = place_request(vm, rng.uniform_index(catalog_.vm_types().size()),
                                groups[rng.uniform_index(groups.size())]);
      } else if (dice < 8) {
        const std::size_t pick = rng.uniform_index(live.size());
        request = vm_request(RequestOp::kRelease, live[pick]);
      } else {
        request = vm_request(RequestOp::kMigrate, live[rng.uniform_index(live.size())]);
      }

      const Response expected = single.execute(request);
      const Response actual = router.submit(request).get();
      ASSERT_EQ(actual.ok, expected.ok)
          << "seed " << seed << " op " << op << " " << to_string(request.op) << " vm "
          << request.vm_id << " group '" << request.group << "': single says '"
          << expected.error << "', sharded says '" << actual.error << "' ("
          << actual.message << ")";
      EXPECT_EQ(actual.error, expected.error) << "seed " << seed << " op " << op;
      ASSERT_NE(expected.error, "no_capacity")
          << "fleet too small for the oracle to be exact; grow it";

      if (request.op == RequestOp::kPlace && expected.ok) {
        live.push_back(request.vm_id);
      } else if (request.op == RequestOp::kRelease && expected.ok) {
        live.erase(std::find(live.begin(), live.end(), request.vm_id));
      }
    }
    // Both deployments end with the same live population.
    const Response single_stats = single.execute(Request{});
    const Response sharded_stats = router.submit(Request{}).get();
    EXPECT_EQ(extra_of(sharded_stats, "vm_count"), extra_of(single_stats, "vm_count"))
        << "seed " << seed;
    EXPECT_EQ(extra_of(sharded_stats, "placed"), extra_of(single_stats, "placed"));
    EXPECT_EQ(extra_of(sharded_stats, "rejected"), extra_of(single_stats, "rejected"));
    embedded->stop_now();
    single.stop_now();
  }
}

TEST_F(RouterTest, PipelinedConnectionMatchesSingleCellVerdicts) {
  // The same oracle as above, but one router connection keeps 8 ops in
  // flight, so ops on one vm overtake nothing only if the router keeps
  // per-connection FIFO: a place racing an earlier grouped place of the
  // same vm, a release racing an earlier migrate, and so on.
  constexpr std::size_t kInFlight = 8;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    PlacementService single(catalog_, mixed_pm_fleet(catalog_, 150), tables_, ServiceConfig{});
    single.start();
    auto embedded = make_cells(3, 150);
    Router router(embedded->sinks());

    struct InFlight {
      int op = 0;
      Request request;
      Response expected;
      std::future<Response> actual;
    };
    std::deque<InFlight> window;
    const auto settle = [&] {
      InFlight next = std::move(window.front());
      window.pop_front();
      const Response actual = next.actual.get();
      EXPECT_EQ(actual.ok, next.expected.ok)
          << "seed " << seed << " op " << next.op << " " << to_string(next.request.op)
          << " vm " << next.request.vm_id << " group '" << next.request.group
          << "': single says '" << next.expected.error << "', sharded says '"
          << actual.error << "' (" << actual.message << ")";
      EXPECT_EQ(actual.error, next.expected.error) << "seed " << seed << " op " << next.op;
    };

    Rng rng(seed);
    const std::vector<std::string> groups = {"", "", "web", "db", "cache"};
    std::vector<std::uint64_t> live;
    std::size_t live_grouped = 0;
    std::map<std::uint64_t, bool> grouped;  // live vm -> placed with a group
    std::uint64_t next_vm = 1;
    for (int op = 0; op < 400; ++op) {
      Request request;
      const std::size_t dice = rng.uniform_index(10);
      if (dice < 6 || live.empty()) {
        const bool duplicate = !live.empty() && rng.chance(0.2);
        const std::uint64_t vm =
            duplicate ? live[rng.uniform_index(live.size())] : next_vm++;
        request = place_request(vm, rng.uniform_index(catalog_.vm_types().size()),
                                groups[rng.uniform_index(groups.size())]);
      } else if (dice < 8) {
        request = vm_request(RequestOp::kRelease, live[rng.uniform_index(live.size())]);
      } else {
        request = vm_request(RequestOp::kMigrate, live[rng.uniform_index(live.size())]);
      }
      Response expected = single.execute(request);
      ASSERT_NE(expected.error, "no_capacity")
          << "fleet too small for the oracle to be exact; grow it";
      if (request.op == RequestOp::kPlace && expected.ok) {
        live.push_back(request.vm_id);
        grouped[request.vm_id] = !request.group.empty();
        live_grouped += grouped[request.vm_id] ? 1 : 0;
      } else if (request.op == RequestOp::kRelease && expected.ok) {
        live.erase(std::find(live.begin(), live.end(), request.vm_id));
        live_grouped -= grouped[request.vm_id] ? 1 : 0;
      }
      std::future<Response> actual = router.submit(request);
      window.push_back(InFlight{op, std::move(request), std::move(expected), std::move(actual)});
      if (window.size() == kInFlight) settle();
    }
    while (!window.empty()) settle();

    const Response single_stats = single.execute(Request{});
    const Response sharded_stats = router.submit(Request{}).get();
    EXPECT_EQ(extra_of(sharded_stats, "vm_count"), extra_of(single_stats, "vm_count"))
        << "seed " << seed;
    EXPECT_EQ(extra_of(sharded_stats, "placed"), extra_of(single_stats, "placed"));
    // The stats fan-out queued behind every trailing op: each live grouped
    // vm holds exactly one committed membership, and no reservation leaked.
    std::size_t members = 0, pending = 0;
    for (std::size_t k = 0; k < embedded->size(); ++k) {
      members += embedded->cell(k).group_directory().member_count();
      pending += embedded->cell(k).group_directory().pending_count();
    }
    EXPECT_EQ(members, live_grouped) << "seed " << seed;
    EXPECT_EQ(pending, 0u) << "seed " << seed;
    embedded->stop_now();
    single.stop_now();
  }
}

// ---------------------------------------------------------------------------
// Crash recovery.

TEST_F(RouterTest, HomeCellCrashMidReserveRecoversThePendingReservation) {
  TempDir dir("midreserve");
  ServiceConfig config;
  config.data_dir = dir.path();
  config.cell_id = 0;

  GroupDirectory pre_crash;
  {
    PlacementService cell(catalog_, mixed_pm_fleet(catalog_, 4), tables_, config);
    Request reserve;
    reserve.op = RequestOp::kGroupReserve;
    reserve.group = "web";
    reserve.vm_id = 7;
    ASSERT_TRUE(cell.execute(reserve).ok);
    // Commit a second member fully, so recovery must reproduce BOTH states.
    reserve.vm_id = 8;
    ASSERT_TRUE(cell.execute(reserve).ok);
    Request commit;
    commit.op = RequestOp::kGroupCommit;
    commit.group = "web";
    commit.vm_id = 8;
    commit.cell = 1;
    ASSERT_TRUE(cell.execute(commit).ok);
    pre_crash = cell.group_directory();
    cell.stop_now();  // SIGKILL-equivalent: no drain, no snapshot
  }

  PlacementService recovered(catalog_, mixed_pm_fleet(catalog_, 4), tables_, config);
  EXPECT_TRUE(recovered.stats().recovered);
  EXPECT_TRUE(recovered.group_directory().state_equal(pre_crash))
      << "WAL replay must reproduce the directory bit-identically";
  EXPECT_EQ(recovered.group_directory().pending_count(), 1u);

  // The recovered reservation still vetoes a duplicate, and the saga can
  // complete against the recovered cell.
  Request reserve;
  reserve.op = RequestOp::kGroupReserve;
  reserve.group = "web";
  reserve.vm_id = 7;
  EXPECT_EQ(recovered.execute(reserve).error, "duplicate_vm");
  Request commit;
  commit.op = RequestOp::kGroupCommit;
  commit.group = "web";
  commit.vm_id = 7;
  commit.cell = 0;
  EXPECT_TRUE(recovered.execute(commit).ok);
  EXPECT_EQ(recovered.group_directory().pending_count(), 0u);
  recovered.stop_now();
}

TEST_F(RouterTest, AllCellsRecoverToThePreCrashStateAfterHardStop) {
  TempDir dir("cellcrash");
  std::vector<std::uint64_t> digests;
  std::vector<GroupDirectory> directories;
  {
    auto embedded = make_cells(2, 12, dir.path());
    Router router(embedded->sinks());
    for (std::uint64_t vm = 1; vm <= 12; ++vm) {
      const std::string group = vm % 3 == 0 ? "web" : (vm % 3 == 1 ? "" : "db");
      ASSERT_TRUE(call(router, place_request(vm, vm % 2, group)).ok);
    }
    ASSERT_TRUE(call(router, vm_request(RequestOp::kRelease, 3)).ok);
    // Barrier: the trailing gcommits/gabort are ordered at their home cell
    // but maybe not applied yet; a routed stats answer comes after them.
    call(router, Request{});
    for (std::size_t k = 0; k < embedded->size(); ++k) {
      digests.push_back(datacenter_state_digest(embedded->cell(k).datacenter()));
      directories.push_back(embedded->cell(k).group_directory());
    }
    embedded->stop_now();  // every cell dies with a dirty WAL
  }
  {
    auto embedded = make_cells(2, 12, dir.path());
    for (std::size_t k = 0; k < embedded->size(); ++k) {
      EXPECT_TRUE(embedded->cell(k).stats().recovered) << "cell " << k;
      EXPECT_EQ(datacenter_state_digest(embedded->cell(k).datacenter()), digests[k])
          << "cell " << k;
      EXPECT_TRUE(embedded->cell(k).group_directory().state_equal(directories[k]))
          << "cell " << k;
    }
    // The recovered deployment keeps serving: routing state rebuilt from
    // scratch, the fleet still accepts placements.
    Router router(embedded->sinks());
    EXPECT_TRUE(call(router, place_request(100, 0)).ok);
    embedded->stop_now();
  }
}

// ---------------------------------------------------------------------------
// Socket cell channel.

TEST_F(RouterTest, SocketChannelRoundTripsAndFailsFastWhenTheCellDies) {
  TempDir dir("channel");
  const std::string socket_path = (dir.path() / "cell.sock").string();
  ServiceConfig config;
  config.cell_id = 3;
  PlacementService cell(catalog_, mixed_pm_fleet(catalog_, 4), tables_, config);
  cell.start();
  SocketServerConfig socket_config;
  socket_config.unix_path = socket_path;
  SocketServer server(cell, socket_config);
  server.start();

  auto channel = std::make_unique<SocketCellChannel>(socket_path);
  ASSERT_TRUE(channel->connected());
  const Response placed = channel->submit(place_request(1, 0)).get();
  ASSERT_TRUE(placed.ok) << placed.error;
  EXPECT_EQ(placed.vm, 1u);

  // Pipelined requests come back in order with extras intact.
  auto f1 = channel->submit(vm_request(RequestOp::kLookup, 1));
  Request health;
  health.op = RequestOp::kHealth;
  auto f2 = channel->submit(health);
  const Response looked = f1.get();
  EXPECT_EQ(looked.pm, placed.pm);
  const Response healthy = f2.get();
  EXPECT_TRUE(healthy.ok);
  EXPECT_EQ(extra_of(healthy, "cell_id"), "3");
  EXPECT_EQ(extra_of(healthy, "role"), "\"cell\"");

  // Kill the cell's server: in-flight and future submits must fail with the
  // structured transport error, never hang.
  server.stop();
  Response dead = channel->submit(place_request(2, 0)).get();
  for (int attempt = 0; dead.error.empty() && attempt < 100; ++attempt) {
    dead = channel->submit(place_request(2, 0)).get();
  }
  EXPECT_EQ(dead.error, kCellUnreachable);
  EXPECT_FALSE(dead.ok);
  cell.stop_now();

  // A router over a dead channel degrades structurally too.
  std::vector<RequestSink*> sinks = {channel.get()};
  Router router(sinks);
  EXPECT_EQ(call(router, place_request(5, 0)).error, kCellUnreachable);
  Request merged_health;
  merged_health.op = RequestOp::kHealth;
  const Response merged = call(router, merged_health);
  EXPECT_TRUE(merged.ok);
  EXPECT_EQ(extra_of(merged, "cells_unreachable"), "1");
  EXPECT_EQ(extra_of(merged, "mode"), "\"degraded\"");
  EXPECT_GE(counter(router, "prvm_router_cell_unreachable_total"), 1u);
}

}  // namespace
}  // namespace prvm
