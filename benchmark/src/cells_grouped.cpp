// cells-grouped-4k: the router-bound workload.
//
// A Router over two EmbeddedCells (real per-cell WALs) on a 4,000-PM fleet,
// driven closed loop by two submitter threads doing release+place churn.
// One placement in five joins an anti-collocation group of 2-4 members, so
// the cross-cell reserve -> place -> commit saga, capacity spillover and
// compensation all run; no other workload reaches the router, the group
// directory or admission's group path.
//
// Checks: no two acked, live members of a group share a (cell, PM); a
// routed lookup finds every acked VM on the cell and PM it was acked on;
// each cell's state digest survives a hard stop and WAL recovery.
#include <algorithm>
#include <deque>
#include <future>
#include <thread>
#include <unordered_map>

#include "cells/embedded.hpp"
#include "common/rng.hpp"
#include "router/router.hpp"
#include "service/service.hpp"
#include "service/snapshot.hpp"
#include "sim/simulator.hpp"
#include "workloads.hpp"

namespace bench {
namespace {

using prvm::Request;
using prvm::Response;

struct Params {
  std::size_t fleet = 4000;
  std::size_t cells = 2;
  std::size_t threads = 2;
  std::size_t pairs_per_thread = 150000;
  std::size_t window = 128;  ///< ops in flight per submitter
  double group_share = 0.2;
  std::size_t fill_streak = 64;
  std::size_t setup_reps = 3;
  std::size_t fill_reps = 5;
  std::size_t recovery_reps = 5;
  std::size_t hop_probes = 2000;
  std::size_t churn_slices = 10;  ///< time slices churn_pps / lat_p50_us are medians over
};

Params params_for(const Options& options) {
  Params p;
  if (options.smoke) {
    p.fleet = 300;
    p.pairs_per_thread = 1500;
    p.window = 32;
    p.setup_reps = 1;
    p.fill_reps = 1;
    p.recovery_reps = 1;
    p.hop_probes = 100;
  }
  return p;
}

std::size_t cell_of(const Response& response) {
  for (const auto& [key, value] : response.extra) {
    if (key == "cell") return static_cast<std::size_t>(std::stoull(value));
  }
  return static_cast<std::size_t>(-1);
}

struct Member {
  std::string group;  ///< empty = ungrouped
  std::size_t cell = 0;
  std::size_t pm = 0;
};

struct Group {
  std::string name;
  std::size_t target = 2;
  std::size_t pending = 0;
  std::vector<std::uint64_t> members;  ///< acked, live
  bool open = true;
};

/// Per-thread results, merged after the join.
struct SubmitterResult {
  std::size_t fill_acked = 0;
  std::size_t churn_acked = 0;
  std::size_t churn_places = 0;
  std::size_t grouped_places = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Completion> done;  ///< churn ops only
  std::vector<double> place_us, grouped_us;
  std::unordered_map<std::uint64_t, Member> live;
};

/// One closed-loop submitter with its own VM id range and its own groups.
class Submitter {
 public:
  Submitter(prvm::Router& router, const Options& options, const Params& params, std::size_t id,
         SpanBuffer* spans)
      : router_(router), options_(options), params_(params), id_(id), spans_(spans),
        rng_(options.seed * 1000003 + id), mix_(prvm::default_vm_mix(catalog())),
        next_vm_((id + 1) * 1'000'000'000ULL) {}

  void fill(SubmitterResult& out) {
    std::size_t streak = 0;
    for (std::size_t i = 0; i < params_.window; ++i) issue_place();
    while (!inflight_.empty()) {
      const Settled s = resolve(out, false);
      if (s.placed) {
        ++out.fill_acked;
        streak = 0;
      } else {
        ++streak;
      }
      if (streak < params_.fill_streak) issue_place();
    }
  }

  void churn(SubmitterResult& out) {
    std::size_t issued = 0;
    std::size_t pairs_in_flight = 0;
    const std::size_t pair_window = params_.window / 2;
    while (issued < params_.pairs_per_thread || !inflight_.empty()) {
      if (issued < params_.pairs_per_thread && pairs_in_flight < pair_window) {
        check(!order_.empty(), "cells churn ran out of live VMs");
        const std::size_t pick = rng_.uniform_index(order_.size());
        const std::uint64_t victim = order_[pick];
        order_[pick] = order_.back();
        order_.pop_back();
        issue_release(victim);
        issue_place();
        ++issued;
        ++pairs_in_flight;
        continue;
      }
      const Settled s = resolve(out, true);
      if (s.was_place) {
        --pairs_in_flight;
        ++out.churn_places;
        if (s.placed) ++out.churn_acked;
      }
    }
    out.live = std::move(live_);
  }

 private:
  struct Inflight {
    bool place = true;
    std::uint64_t vm = 0;
    std::size_t group = kNoGroup;
    std::uint64_t start_ns = 0;
    std::future<Response> future;
  };
  struct Settled {
    bool was_place = false;
    bool placed = false;
  };
  static constexpr std::size_t kNoGroup = static_cast<std::size_t>(-1);

  std::size_t pick_group() {
    std::vector<std::size_t>& open = open_groups_;
    if (!open.empty() && rng_.chance(0.7)) return open[rng_.uniform_index(open.size())];
    Group group;
    group.name = "t" + std::to_string(id_) + "-g" + std::to_string(groups_.size());
    group.target = 2 + rng_.uniform_index(3);
    group_index_.emplace(group.name, groups_.size());
    groups_.push_back(std::move(group));
    open.push_back(groups_.size() - 1);
    return groups_.size() - 1;
  }

  void set_open(std::size_t g) {
    Group& group = groups_[g];
    const bool has_slot = group.members.size() + group.pending < group.target;
    if (has_slot == group.open) return;
    group.open = has_slot;
    if (has_slot) {
      open_groups_.push_back(g);
    } else {
      open_groups_.erase(std::find(open_groups_.begin(), open_groups_.end(), g));
    }
  }

  void issue_place() {
    Inflight op;
    op.vm = next_vm_++;
    std::string group_name;
    if (rng_.chance(params_.group_share)) {
      op.group = pick_group();
      ++groups_[op.group].pending;
      set_open(op.group);
      group_name = groups_[op.group].name;
    }
    op.start_ns = prvm::obs::now_ns();
    op.future = router_.submit(place_request(op.vm, rng_.weighted_index(mix_), group_name));
    inflight_.push_back(std::move(op));
  }

  void issue_release(std::uint64_t vm) {
    Inflight op;
    op.place = false;
    op.vm = vm;
    op.start_ns = prvm::obs::now_ns();
    op.future = router_.submit(release_request(vm));
    inflight_.push_back(std::move(op));
    // The VM leaves its group when the release is issued: the router drops
    // the membership as part of the release.
    const Member& member = live_.at(vm);
    if (!member.group.empty()) {
      const std::size_t g = group_index_.at(member.group);
      std::vector<std::uint64_t>& members = groups_[g].members;
      members.erase(std::find(members.begin(), members.end(), vm));
      set_open(g);
    }
    live_.erase(vm);
  }

  Settled resolve(SubmitterResult& out, bool timed) {
    Inflight op = std::move(inflight_.front());
    inflight_.pop_front();
    const Response response = op.future.get();
    const std::uint64_t end = prvm::obs::now_ns();
    ++out.attempted;
    if (is_failure(response)) ++out.failed;
    const double us = static_cast<double>(end - op.start_ns) / 1e3;
    if (timed) out.done.push_back(Completion{end, us, op.place && response.ok});
    Settled s;
    if (!op.place) {
      check(response.ok, "routed release of an acked VM failed: " + response.error);
      return s;
    }
    s.was_place = true;
    if (timed) {
      (op.group == kNoGroup ? out.place_us : out.grouped_us).push_back(us);
      if (spans_ != nullptr) {
        spans_->add(op.group == kNoGroup ? SpanName::kRouterPlace : SpanName::kRouterGroupedPlace,
                    op.vm, op.start_ns, end);
      }
    }
    if (op.group != kNoGroup) {
      ++out.grouped_places;
      --groups_[op.group].pending;
    }
    if (response.ok) {
      s.placed = true;
      Member member{op.group == kNoGroup ? std::string() : groups_[op.group].name,
                    cell_of(response), static_cast<std::size_t>(response.pm.value_or(0))};
      check(member.cell < params_.cells, "routed place ack carries no valid cell");
      if (op.group != kNoGroup) {
        Group& group = groups_[op.group];
        for (const std::uint64_t other : group.members) {
          const Member& o = live_.at(other);
          const bool corrupt = options_.corrupt == "cells.group";
          check(!corrupt && (o.cell != member.cell || o.pm != member.pm),
                "group " + group.name + " has two acked members on cell " +
                    std::to_string(member.cell) + " PM " + std::to_string(member.pm));
        }
        group.members.push_back(op.vm);
      }
      live_.emplace(op.vm, member);
      order_.push_back(op.vm);
    }
    if (op.group != kNoGroup) set_open(op.group);
    return s;
  }

  prvm::Router& router_;
  const Options& options_;
  const Params& params_;
  std::size_t id_;
  SpanBuffer* spans_;
  prvm::Rng rng_;
  std::vector<double> mix_;
  std::uint64_t next_vm_;
  std::deque<Inflight> inflight_;
  std::unordered_map<std::uint64_t, Member> live_;
  std::vector<std::uint64_t> order_;  ///< live VMs, for uniform victim picks
  std::vector<Group> groups_;
  std::unordered_map<std::string, std::size_t> group_index_;
  std::vector<std::size_t> open_groups_;
};

std::vector<std::unique_ptr<Submitter>> make_submitters(prvm::Router& router, const Options& options,
                                                  const Params& params, Tracer* tracer) {
  std::vector<std::unique_ptr<Submitter>> submitters;
  for (std::size_t t = 0; t < params.threads; ++t) {
    SpanBuffer* spans = tracer != nullptr ? tracer->buffer(8 * params.pairs_per_thread) : nullptr;
    submitters.push_back(std::make_unique<Submitter>(router, options, params, t, spans));
  }
  return submitters;
}

/// Runs fill (or churn) on every submitter, one thread each; returns the
/// phase's acked placements per second over its wall time.
double run_phase(std::vector<std::unique_ptr<Submitter>>& submitters, std::vector<SubmitterResult>& results,
                 bool churn) {
  std::vector<std::thread> threads;
  std::vector<std::string> errors(submitters.size());
  const auto start = Clock::now();
  for (std::size_t t = 0; t < submitters.size(); ++t) {
    threads.emplace_back([&, t] {
      try {
        churn ? submitters[t]->churn(results[t]) : submitters[t]->fill(results[t]);
      } catch (const std::exception& error) {
        errors[t] = error.what();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double seconds = seconds_since(start);
  for (const std::string& error : errors) check(error.empty(), error);
  double acked = 0;
  for (const SubmitterResult& r : results) acked += static_cast<double>(churn ? r.churn_acked : r.fill_acked);
  return ratio(acked, seconds);
}

prvm::EmbeddedCellsConfig cells_config(const Params& params, const std::filesystem::path& dir) {
  prvm::EmbeddedCellsConfig config;
  config.cells = params.cells;
  config.data_dir = dir;
  return config;
}

prvm::obs::HistogramSnapshot merged(prvm::EmbeddedCells& cells, const char* name) {
  prvm::obs::HistogramSnapshot out;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    histogram_add(out, histogram_of(cells.cell(c).metrics_registry(), name));
  }
  return out;
}

std::vector<std::uint64_t> per_cell(prvm::EmbeddedCells& cells, const char* name) {
  std::vector<std::uint64_t> out;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    out.push_back(counter_of(cells.cell(c).metrics_registry(), name));
  }
  return out;
}

double sum_delta(const std::vector<std::uint64_t>& after, const std::vector<std::uint64_t>& before) {
  double total = 0.0;
  for (std::size_t i = 0; i < after.size(); ++i) total += static_cast<double>(after[i] - before[i]);
  return total;
}

std::vector<std::uint64_t> digests(prvm::EmbeddedCells& cells) {
  std::vector<std::uint64_t> out;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    out.push_back(prvm::datacenter_state_digest(cells.cell(c).datacenter()));
  }
  return out;
}

}  // namespace

void run_cells_grouped(const Options& options, Tracer& tracer, Report& report) {
  const Params params = params_for(options);
  const std::vector<std::size_t> fleet = prvm::mixed_pm_fleet(catalog(), params.fleet);
  report.param("fleet_pms", static_cast<double>(params.fleet));
  report.param("cells", static_cast<double>(params.cells));
  report.param("submitter_threads", static_cast<double>(params.threads));
  report.param("churn_pairs_per_thread", static_cast<double>(params.pairs_per_thread));
  report.param("window_ops_per_thread", static_cast<double>(params.window));
  report.param("group_share", params.group_share);
  report.param("group_size", "\"2-4\"");
  report.param("setup_reps", static_cast<double>(params.setup_reps));
  report.param("recovery_reps", static_cast<double>(params.recovery_reps));

  SpanBuffer* spans = tracer.buffer(4096 + 4 * params.hop_probes);

  // --- set-up: cold tables + cells + router until a routed health answer ---
  std::shared_ptr<const prvm::ScoreTableSet> tables;
  std::unique_ptr<prvm::EmbeddedCells> cells;
  std::unique_ptr<prvm::Router> router;
  std::filesystem::path data_dir;
  std::size_t rep = 0;
  run_setup_reps(params.setup_reps, [&] {
    router.reset();
    if (cells != nullptr) cells->stop_now();
    cells.reset();
    const auto t0 = Clock::now();
    tables = cold_score_tables();
    const auto t1 = Clock::now();
    data_dir = options.run_dir / ("cells-" + std::to_string(rep++));
    const ScopedSpan span(spans, SpanName::kServiceStart);
    cells = std::make_unique<prvm::EmbeddedCells>(catalog(), fleet, tables,
                                                  cells_config(params, data_dir));
    cells->start();
    router = std::make_unique<prvm::Router>(cells->sinks());
    check(router->submit(health_request()).get().ok, "router did not answer health");
    return std::make_pair(seconds_since(t0), seconds_since(t1));
  }, report);
  if (tracer.enabled()) report_core_layers(tracer, report);

  const prvm::obs::Registry& router_registry = router->metrics_registry();
  const auto router_counter = [&](const char* name) {
    return static_cast<double>(counter_of(router_registry, name));
  };

  // --- fill (fill_reps times: once on the served cells, the others on
  // throwaway cells between the recovery repetitions, so that one burst of
  // host interference cannot cover them all; fill_pps is the median), then
  // churn; both threads in lock step between phases ---
  std::vector<double> fill_pps;
  std::size_t extra_fills = 0;
  const auto extra_fill = [&] {
    prvm::EmbeddedCells throwaway(
        catalog(), fleet, tables,
        cells_config(params, options.run_dir / ("fill-" + std::to_string(extra_fills++))));
    throwaway.start();
    prvm::Router throwaway_router(throwaway.sinks());
    std::vector<SubmitterResult> throwaway_results(params.threads);
    std::vector<std::unique_ptr<Submitter>> throwaway_submitters =
        make_submitters(throwaway_router, options, params, nullptr);
    fill_pps.push_back(run_phase(throwaway_submitters, throwaway_results, false));
    for (const SubmitterResult& r : throwaway_results) {
      report.attempted += r.attempted;
      report.failed += r.failed;
    }
    throwaway.stop_now();
  };
  std::vector<SubmitterResult> results(params.threads);
  std::vector<std::unique_ptr<Submitter>> submitters =
      make_submitters(*router, options, params, &tracer);
  fill_pps.push_back(run_phase(submitters, results, false));
  std::size_t fill_acked = 0;
  for (const SubmitterResult& r : results) fill_acked += r.fill_acked;
  report.param("fill_placements", static_cast<double>(fill_acked));
  report.param("fill_reps", static_cast<double>(params.fill_reps));

  const auto wait0 = merged(*cells, "prvm_queue_wait_ns");
  const auto batch0 = merged(*cells, "prvm_batch_size");
  const auto compute0 = merged(*cells, "prvm_place_compute_ns");
  const auto flush0 = merged(*cells, "prvm_wal_flush_ns");
  const auto placed0 = per_cell(*cells, "prvm_ops_placed_total");
  const auto released0 = per_cell(*cells, "prvm_ops_released_total");
  const auto queue_full0 = per_cell(*cells, "prvm_queue_rejected_total");
  const auto rejected0 = per_cell(*cells, "prvm_ops_rejected_total");
  const auto lookups0 = per_cell(*cells, "prvm_engine_score_lookups_total");
  const auto probes0 = per_cell(*cells, "prvm_engine_index_probes_total");
  const auto hits0 = per_cell(*cells, "prvm_engine_rep_cache_hits_total");
  const auto misses0 = per_cell(*cells, "prvm_engine_rep_cache_misses_total");
  const auto calls0 = per_cell(*cells, "prvm_engine_place_total");
  const double spill0 = router_counter("prvm_router_spillover_total");
  const double comp0 = router_counter("prvm_router_compensations_total");
  const double aborts0 = router_counter("prvm_router_group_aborts_total");

  const auto churn_start = Clock::now();
  const std::uint64_t churn_start_ns = prvm::obs::now_ns();
  run_phase(submitters, results, true);
  const double churn_seconds = seconds_since(churn_start);
  const std::uint64_t churn_end_ns = prvm::obs::now_ns();

  std::size_t churn_acked = 0, churn_places = 0, grouped = 0;
  std::vector<Completion> done;
  std::vector<double> latency_us, place_us, grouped_us;
  std::unordered_map<std::uint64_t, Member> live;
  for (SubmitterResult& r : results) {
    churn_acked += r.churn_acked;
    churn_places += r.churn_places;
    grouped += r.grouped_places;
    report.attempted += r.attempted;
    report.failed += r.failed;
    done.insert(done.end(), r.done.begin(), r.done.end());
    place_us.insert(place_us.end(), r.place_us.begin(), r.place_us.end());
    grouped_us.insert(grouped_us.end(), r.grouped_us.begin(), r.grouped_us.end());
    live.merge(r.live);
  }
  for (const Completion& c : done) latency_us.push_back(c.latency_us);
  const double churn_ops = static_cast<double>(latency_us.size());
  const SlicedChurn sliced = slice_churn(done, churn_start_ns, churn_end_ns, params.churn_slices);
  report.e2e("churn_pps", sliced.pps, "placements/s");
  report.e2e("lat_p50_us", sliced.p50_us, "us");
  report.overhead_basis_name = "churn_seconds";
  report.overhead_basis = churn_seconds;
  report.param("churn_placements", static_cast<double>(churn_acked));
  report.param("churn_pps_whole_stream", ratio(static_cast<double>(churn_acked), churn_seconds));
  report.param("churn_slices", static_cast<double>(params.churn_slices));
  report.param("grouped_places", static_cast<double>(grouped));
  report.param("latency_samples", churn_ops);

  // --- correctness: a routed lookup finds every acked VM where it was acked ---
  {
    std::deque<std::pair<std::uint64_t, std::future<Response>>> pending;
    bool corrupt = options.corrupt == "cells.lookup";
    const auto settle = [&] {
      auto [vm, future] = std::move(pending.front());
      pending.pop_front();
      const Response response = future.get();
      const Member& member = live.at(vm);
      const std::size_t expect_pm = member.pm + (corrupt ? 1 : 0);
      corrupt = false;
      check(response.ok && response.pm.value_or(~0ULL) == expect_pm &&
                cell_of(response) == member.cell,
            "routed lookup of vm " + std::to_string(vm) + " does not find it where it was acked");
    };
    for (const auto& [vm, member] : live) {
      pending.emplace_back(vm, router->submit(lookup_request(vm)));
      if (pending.size() >= 256) settle();
    }
    while (!pending.empty()) settle();
  }

  // --- router hop probe (traced): one lookup via the router, then direct ---
  std::vector<double> via_router, direct;
  if (tracer.enabled()) {
    std::size_t n = 0;
    for (const auto& [vm, member] : live) {
      if (n++ == params.hop_probes) break;
      std::uint64_t t0 = prvm::obs::now_ns();
      check(router->submit(lookup_request(vm)).get().ok, "hop probe lookup failed");
      std::uint64_t t1 = prvm::obs::now_ns();
      via_router.push_back(static_cast<double>(t1 - t0) / 1e3);
      if (spans != nullptr) spans->add(SpanName::kRouterLookup, vm, t0, t1);
      t0 = prvm::obs::now_ns();
      check(cells->cell(member.cell).submit(lookup_request(vm)).get().ok, "direct lookup failed");
      t1 = prvm::obs::now_ns();
      direct.push_back(static_cast<double>(t1 - t0) / 1e3);
      if (spans != nullptr) spans->add(SpanName::kCellLookup, vm, t0, t1);
    }
  }

  const auto wait = histogram_delta(merged(*cells, "prvm_queue_wait_ns"), wait0);
  const auto batch = histogram_delta(merged(*cells, "prvm_batch_size"), batch0);
  const auto compute = histogram_delta(merged(*cells, "prvm_place_compute_ns"), compute0);
  const auto flush = histogram_delta(merged(*cells, "prvm_wal_flush_ns"), flush0);
  const auto placed = per_cell(*cells, "prvm_ops_placed_total");
  const auto released = per_cell(*cells, "prvm_ops_released_total");
  const double queue_full = sum_delta(per_cell(*cells, "prvm_queue_rejected_total"), queue_full0);
  const double rejected = sum_delta(per_cell(*cells, "prvm_ops_rejected_total"), rejected0);
  const double lookups = sum_delta(per_cell(*cells, "prvm_engine_score_lookups_total"), lookups0);
  const double probes = sum_delta(per_cell(*cells, "prvm_engine_index_probes_total"), probes0);
  const double hits = sum_delta(per_cell(*cells, "prvm_engine_rep_cache_hits_total"), hits0);
  const double misses = sum_delta(per_cell(*cells, "prvm_engine_rep_cache_misses_total"), misses0);
  const double calls = sum_delta(per_cell(*cells, "prvm_engine_place_total"), calls0);
  const double spill = router_counter("prvm_router_spillover_total") - spill0;
  const double comp = router_counter("prvm_router_compensations_total") - comp0;
  const double aborts = router_counter("prvm_router_group_aborts_total") - aborts0;
  double min_ops = 0.0, max_ops = 0.0;
  for (std::size_t c = 0; c < params.cells; ++c) {
    const double ops = static_cast<double>(placed[c] - placed0[c] + released[c] - released0[c]);
    min_ops = c == 0 ? ops : std::min(min_ops, ops);
    max_ops = std::max(max_ops, ops);
  }

  // --- hard stop, digests, timed recovery of both cells ---
  router.reset();
  cells->stop_now();
  std::vector<std::uint64_t> before = digests(*cells);
  double vms = 0.0, used = 0.0;
  for (std::size_t c = 0; c < cells->size(); ++c) {
    vms += static_cast<double>(cells->cell(c).datacenter().vm_count());
    used += static_cast<double>(cells->cell(c).datacenter().used_count());
  }
  cells.reset();
  if (options.corrupt == "cells.digest") before[0] ^= 1;
  std::vector<double> recovery_s;
  double wal_records = 0.0;
  for (std::size_t r = 0; r < params.recovery_reps; ++r) {
    if (r > 0 && extra_fills + 1 < params.fill_reps) extra_fill();
    const auto t0 = Clock::now();
    const ScopedSpan span(spans, SpanName::kRecover);
    prvm::EmbeddedCells restarted(catalog(), fleet, tables, cells_config(params, data_dir));
    restarted.start();
    {
      prvm::Router restarted_router(restarted.sinks());
      check(restarted_router.submit(health_request()).get().ok, "recovered cells did not answer");
    }
    recovery_s.push_back(seconds_since(t0));
    restarted.stop_now();
    check(digests(restarted) == before,
          "a cell's state digest after WAL recovery differs from before stop_now()");
  }
  while (extra_fills + 1 < params.fill_reps) extra_fill();
  report.e2e("fill_pps", median(fill_pps), "placements/s");
  note_reps(report, "fill_pps reps", fill_pps);
  report.e2e("recovery_s", median(recovery_s), "s");
  note_reps(report, "recovery_s reps", recovery_s);
  report.e2e("ok_ratio", 1.0 - ratio(static_cast<double>(report.failed),
                                     static_cast<double>(report.attempted)), "fraction");
  report.e2e("vms_per_pm", ratio(vms, used), "VMs/PM");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  if (!tracer.enabled()) return;

  // --- per-layer (traced run) ---
  report_not_exercised({{"cluster.live_buckets.first", "count"},
                        {"cluster.live_buckets.peak", "count"},
                        {"cluster.live_buckets.last", "count"}, {"cluster.remove_us.mean", "us"},
                        {"placement.place_us.mean", "us"},
                        {"placement.place_us.first_window", "us"},
                        {"placement.place_us.peak_window", "us"},
                        {"placement.fill_place_us.mean", "us"}, {"placement.reject_us.mean", "us"},
                        {"placement.engine_ceiling_pps", "placements/s"}},
                       "the bare-engine replay runs on churn-10k only", report);
  report.layer("placement.score_lookups_per_place", ratio(lookups, calls), "count");
  report.layer("placement.index_probes_per_place", ratio(probes, calls), "count");
  report.layer("placement.rep_cache_hit_ratio", ratio(hits, hits + misses), "fraction");
  report.layer("service.submit_to_ack_us.p50", quantile(latency_us, 0.50), "us");
  report.layer("service.submit_to_ack_us.p99", quantile(latency_us, 0.99), "us");
  report.layer("service.queue_wait_us.p50", wait.quantile(0.50) / 1e3, "us");
  report.layer("service.queue_wait_us.p99", wait.quantile(0.99) / 1e3, "us");
  report.layer("service.batch_ops.mean", batch.mean(), "count");
  report.layer("service.compute_us_per_op", compute.mean() / 1e3, "us");
  report.layer("service.queue_full_ratio", ratio(queue_full, churn_ops), "fraction");
  report.layer("service.admission_reject_ratio", ratio(rejected, calls), "fraction");
  report.layer("service.engine_share",
               ratio(static_cast<double>(compute.sum) / 1e9,
                     churn_seconds * static_cast<double>(params.cells)),
               "fraction");
  report.layer("wal.flush_us.p50", flush.quantile(0.50) / 1e3, "us");
  report.layer("wal.flush_us.p99", flush.quantile(0.99) / 1e3, "us");
  report.layer("wal.flushes_per_1k_ops", ratio(static_cast<double>(flush.count), churn_ops) * 1e3,
               "count");
  double wal_bytes = 0.0, read_s = 0.0;
  for (std::size_t c = 0; c < params.cells; ++c) {
    const std::filesystem::path log = prvm::EmbeddedCells::cell_dir(data_dir, c) / "wal.log";
    wal_bytes += static_cast<double>(std::filesystem::file_size(log));
    const auto [seconds, records] = timed_wal_read(log, options.run_dir / "wal-copy.log");
    read_s += seconds;
    wal_records += static_cast<double>(records);
  }
  report.layer("wal.bytes_per_op", ratio(wal_bytes, wal_records), "bytes");
  report.layer("wal.read_s", read_s, "s");
  report.layer("wal.replay_records_per_s", ratio(wal_records, median(recovery_s)), "records/s");
  report_not_exercised({{"codec.json.decode_ns", "ns"}, {"codec.json.encode_ns", "ns"},
                        {"codec.json.bytes_per_op", "bytes"}, {"codec.bin.decode_ns", "ns"},
                        {"codec.bin.encode_ns", "ns"}, {"codec.bin.bytes_per_op", "bytes"},
                        {"socket.util_rtt_us.p50", "us"}, {"gen.late_us.p99", "us"}},
                       "embedded cells, no socket or codec", report);
  report.layer("router.place_us.p50", quantile(place_us, 0.50), "us");
  report.layer("router.grouped_place_us.p50", quantile(grouped_us, 0.50), "us");
  report.layer("router.grouped_place_us.p99", quantile(grouped_us, 0.99), "us");
  report.layer("router.hop_us", median(via_router) - median(direct), "us");
  const double routed_places = static_cast<double>(churn_places);
  report.layer("router.spillover_ratio", ratio(spill, routed_places), "fraction");
  report.layer("router.compensation_ratio", ratio(comp, routed_places), "fraction");
  report.layer("router.group_abort_ratio", ratio(aborts, static_cast<double>(grouped)), "fraction");
  report.layer("cells.imbalance", ratio(max_ops, min_ops), "ratio");
  report.layer("tail.lat_p90_us", sliced.p90_us, "us");
  report.layer("tail.lat_p99_us", quantile(latency_us, 0.99), "us");
  report.layer("slo_rate", ratio(churn_ops, churn_seconds), "ops/s");
  report.layer("failed_ratio", ratio(static_cast<double>(report.failed),
                                     static_cast<double>(report.attempted)), "fraction");
  report_not_exercised({{"reconcile.e2e_us", "us"}, {"reconcile.layers_us", "us"},
                        {"reconcile.gap_pct", "%"}},
                       "reconciliation is defined on churn-10k and socket-mixed-1k", report);
}

}  // namespace bench
