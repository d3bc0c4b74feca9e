// Placement-index throughput benchmark.
//
// Drives EC2-catalog fleets of 1k / 5k / 10k PMs through a fill phase (place
// VMs until the fleet saturates) and a place/remove churn phase, for both
// PageRankVM engines: the pick index (default) and the legacy linear scan
// (use_index = false, Algorithm 2 as printed). Reports placements/sec,
// p50/p99/p999 single-placement latency off the shared obs::Histogram (same
// estimator as prvm_loadgen, <= 12.5% relative error), and the engine's own
// counters (score lookups, index probes, rep-cache hits) from a per-run
// private registry.
//
// A sustained phase then runs the indexed engine alone on a saturated
// 5000-PM fleet for 50k release+place pairs and reports the exact per-op
// p50 of place() in 5 consecutive windows: steady-state churn diversifies
// the live profiles, so a pick whose cost grows with them shows up as a
// rising window, which a short post-fill window hides.
//
// Usage: bench_placement_throughput [--json PATH]
//   --json PATH   additionally write machine-readable results to PATH
//   PRVM_FAST=1   shrink fleets and op counts for a smoke run
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "cluster/catalog.hpp"
#include "cluster/datacenter.hpp"
#include "common/rng.hpp"
#include "core/catalog_graphs.hpp"
#include "obs/metrics.hpp"
#include "placement/pagerank_vm.hpp"
#include "sim/simulator.hpp"

namespace prvm {
namespace {

using Clock = std::chrono::steady_clock;

struct EngineStats {
  std::size_t used_pms = 0;       ///< used PMs at the churn operating point
  std::size_t fill_placements = 0;
  double fill_pps = 0.0;          ///< placements/sec during the fill phase
  std::size_t churn_ops = 0;
  double churn_pps = 0.0;         ///< placements/sec during sustained churn
  double p50_us = 0.0;            ///< median single-placement latency
  double p99_us = 0.0;
  double p999_us = 0.0;
  std::uint64_t score_lookups = 0;   ///< best-successor table lookups (churn)
  std::uint64_t index_probes = 0;    ///< index probes (churn; 0 for the pick index)
  std::uint64_t rep_cache_hits = 0;  ///< best-permutation cache hits (churn)
  std::uint64_t linear_scored = 0;   ///< PMs scored by the legacy scan (churn)
};

/// Places VMs until the fleet saturates (every PM used and the stream starts
/// bouncing), so churn afterwards runs with used PMs ~= the fleet size.
/// Returns the fill placements per second; `live` receives the placed ids.
double fill_fleet(Datacenter& dc, PageRankVm& engine, const Catalog& catalog, Rng& rng,
                  std::vector<VmId>& live, VmId& next_id) {
  const std::vector<double> mix = default_vm_mix(catalog);
  std::size_t rejected_streak = 0;
  const auto fill_start = Clock::now();
  while (rejected_streak < 32) {
    const std::vector<Vm> wave = weighted_vm_requests(rng, catalog, 256, mix);
    for (const Vm& vm : wave) {
      Vm request{next_id++, vm.type_index};
      if (engine.place(dc, request).has_value()) {
        live.push_back(request.id);
        rejected_streak = 0;
      } else {
        ++rejected_streak;
      }
    }
  }
  const double fill_seconds = std::chrono::duration<double>(Clock::now() - fill_start).count();
  return static_cast<double>(live.size()) / fill_seconds;
}

EngineStats run_engine(const Catalog& catalog,
                       const std::shared_ptr<const ScoreTableSet>& tables, std::size_t fleet,
                       std::size_t churn_ops, bool use_index) {
  Datacenter dc(catalog, mixed_pm_fleet(catalog, fleet));
  // A private registry per run: engine counters start at zero and are read
  // back without fishing this run's deltas out of the global registry.
  obs::Registry reg;
  PageRankVmOptions options;
  options.use_index = use_index;
  options.metrics = &reg;
  PageRankVm engine(tables, options);

  Rng rng(7);
  const std::vector<double> mix = default_vm_mix(catalog);
  EngineStats stats;
  std::vector<VmId> live;
  VmId next_id = 1;
  stats.fill_pps = fill_fleet(dc, engine, catalog, rng, live, next_id);
  stats.fill_placements = live.size();
  stats.used_pms = dc.used_count();

  // Counter baselines: report churn-phase deltas, not fill noise.
  const std::uint64_t base_lookups = reg.counter("prvm_engine_score_lookups_total").value();
  const std::uint64_t base_probes = reg.counter("prvm_engine_index_probes_total").value();
  const std::uint64_t base_hits = reg.counter("prvm_engine_rep_cache_hits_total").value();
  const std::uint64_t base_linear = reg.counter("prvm_engine_linear_scored_total").value();

  // Sustained churn at the operating point: remove one random VM, place one
  // fresh request. Only the place() call is timed.
  obs::Histogram& latency = reg.histogram("bench_place_latency_ns");
  const std::vector<Vm> stream = weighted_vm_requests(rng, catalog, churn_ops, mix);
  double churn_seconds = 0.0;
  for (std::size_t op = 0; op < churn_ops; ++op) {
    const std::size_t pick = rng.uniform_index(live.size());
    dc.remove(live[pick]);
    live[pick] = live.back();
    live.pop_back();

    Vm request{next_id++, stream[op].type_index};
    const auto start = Clock::now();
    const auto pm = engine.place(dc, request);
    const auto elapsed = Clock::now() - start;
    churn_seconds += std::chrono::duration<double>(elapsed).count();
    latency.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
    if (pm.has_value()) live.push_back(request.id);
  }
  stats.churn_ops = churn_ops;
  stats.churn_pps = static_cast<double>(churn_ops) / churn_seconds;
  const obs::HistogramSnapshot snap = latency.snapshot();
  stats.p50_us = snap.quantile(0.50) / 1e3;
  stats.p99_us = snap.quantile(0.99) / 1e3;
  stats.p999_us = snap.quantile(0.999) / 1e3;
  stats.score_lookups = reg.counter("prvm_engine_score_lookups_total").value() - base_lookups;
  stats.index_probes = reg.counter("prvm_engine_index_probes_total").value() - base_probes;
  stats.rep_cache_hits = reg.counter("prvm_engine_rep_cache_hits_total").value() - base_hits;
  stats.linear_scored = reg.counter("prvm_engine_linear_scored_total").value() - base_linear;
  return stats;
}

struct SustainedStats {
  std::size_t fleet = 0;
  std::size_t pairs = 0;
  std::vector<double> window_p50_us;  ///< exact per-op place() p50, per window
  double first() const { return window_p50_us.front(); }
  double peak() const { return *std::max_element(window_p50_us.begin(), window_p50_us.end()); }
};

/// Indexed engine only: fill `fleet` PMs to saturation, then `pairs`
/// release+place pairs split into `windows` equal windows.
SustainedStats run_sustained(const Catalog& catalog,
                             const std::shared_ptr<const ScoreTableSet>& tables,
                             std::size_t fleet, std::size_t pairs, std::size_t windows) {
  Datacenter dc(catalog, mixed_pm_fleet(catalog, fleet));
  obs::Registry reg;
  PageRankVmOptions options;
  options.metrics = &reg;
  PageRankVm engine(tables, options);
  Rng rng(11);
  std::vector<VmId> live;
  VmId next_id = 1;
  fill_fleet(dc, engine, catalog, rng, live, next_id);

  SustainedStats stats;
  stats.fleet = fleet;
  stats.pairs = pairs;
  const std::vector<Vm> stream =
      weighted_vm_requests(rng, catalog, pairs, default_vm_mix(catalog));
  const std::size_t per_window = pairs / windows;
  std::vector<double> window_us;
  window_us.reserve(per_window);
  for (std::size_t op = 0; op < per_window * windows; ++op) {
    const std::size_t pick = rng.uniform_index(live.size());
    dc.remove(live[pick]);
    live[pick] = live.back();
    live.pop_back();

    Vm request{next_id++, stream[op].type_index};
    const auto start = Clock::now();
    const auto pm = engine.place(dc, request);
    window_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - start).count());
    if (pm.has_value()) live.push_back(request.id);
    if (window_us.size() == per_window) {
      auto mid = window_us.begin() + static_cast<std::ptrdiff_t>(per_window / 2);
      std::nth_element(window_us.begin(), mid, window_us.end());
      stats.window_p50_us.push_back(*mid);
      window_us.clear();
    }
  }
  return stats;
}

void print_engine(const char* name, const EngineStats& s) {
  std::printf(
      "  %-8s fill %8.0f pl/s (%zu VMs)   churn %9.0f pl/s   p50 %7.2f us   p99 %7.2f us   "
      "p999 %7.2f us\n",
      name, s.fill_pps, s.fill_placements, s.churn_pps, s.p50_us, s.p99_us, s.p999_us);
  std::printf("           churn counters: %llu score lookups, %llu index probes, "
              "%llu rep-cache hits, %llu linear-scored\n",
              static_cast<unsigned long long>(s.score_lookups),
              static_cast<unsigned long long>(s.index_probes),
              static_cast<unsigned long long>(s.rep_cache_hits),
              static_cast<unsigned long long>(s.linear_scored));
}

void json_engine(std::ostream& os, const char* name, const EngineStats& s) {
  os << "      \"" << name << "\": {\"fill_placements_per_sec\": " << s.fill_pps
     << ", \"fill_placements\": " << s.fill_placements
     << ", \"churn_placements_per_sec\": " << s.churn_pps
     << ", \"churn_ops\": " << s.churn_ops << ", \"p50_us\": " << s.p50_us
     << ", \"p99_us\": " << s.p99_us << ", \"p999_us\": " << s.p999_us
     << ", \"score_lookups\": " << s.score_lookups
     << ", \"index_probes\": " << s.index_probes
     << ", \"rep_cache_hits\": " << s.rep_cache_hits
     << ", \"linear_scored\": " << s.linear_scored << "}";
}

}  // namespace
}  // namespace prvm

int main(int argc, char** argv) {
  using namespace prvm;

  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0] << " [--json PATH]\n";
      return 2;
    }
  }

  const bool fast = bench::fast_mode();
  const std::vector<std::size_t> fleets =
      fast ? std::vector<std::size_t>{200, 500} : std::vector<std::size_t>{1000, 5000, 10000};
  const std::size_t churn_ops = fast ? 200 : 2000;
  const std::size_t sustained_fleet = fast ? 500 : 5000;
  const std::size_t sustained_pairs = fast ? 5000 : 50000;
  constexpr std::size_t kSustainedWindows = 5;

  std::cout << "==== PageRankVM placement throughput: pick index vs linear scan ====\n"
            << "(EC2 catalog, mixed fleet; fill to saturation, then " << churn_ops
            << " remove+place churn ops; PRVM_FAST=1 shrinks)\n\n";

  const Catalog catalog = ec2_sim_catalog();
  const auto tables = std::make_shared<const ScoreTableSet>(build_score_tables(catalog));

  struct Row {
    std::size_t fleet;
    std::size_t used;
    EngineStats indexed;
    EngineStats linear;
    double speedup;
  };
  std::vector<Row> rows;
  for (const std::size_t fleet : fleets) {
    std::cout << "fleet: " << fleet << " PMs\n";
    const EngineStats indexed = run_engine(catalog, tables, fleet, churn_ops, true);
    const EngineStats linear = run_engine(catalog, tables, fleet, churn_ops, false);
    print_engine("indexed", indexed);
    print_engine("linear", linear);
    const double speedup = indexed.churn_pps / linear.churn_pps;
    std::printf("  -> %zu used PMs, churn speedup %.1fx\n\n", indexed.used_pms, speedup);
    rows.push_back(Row{fleet, indexed.used_pms, indexed, linear, speedup});
  }

  const SustainedStats sustained =
      run_sustained(catalog, tables, sustained_fleet, sustained_pairs, kSustainedWindows);
  std::printf("sustained (indexed, %zu PMs, %zu release+place pairs): place() p50 per window",
              sustained.fleet, sustained.pairs);
  for (const double us : sustained.window_p50_us) std::printf(" %.2f", us);
  std::printf(" us\n  -> peak/first window %.2fx\n\n", sustained.peak() / sustained.first());

  if (!json_path.empty()) {
    std::ofstream os(json_path, std::ios::trunc);
    if (!os.is_open()) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    os << "{\n  \"benchmark\": \"placement_throughput\",\n  \"catalog\": \"ec2_sim\",\n"
       << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"churn_ops\": " << churn_ops << ",\n  \"fleets\": [\n";
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const Row& row = rows[r];
      os << "    {\"pms\": " << row.fleet << ", \"used_pms\": " << row.used << ",\n";
      json_engine(os, "indexed", row.indexed);
      os << ",\n";
      json_engine(os, "linear", row.linear);
      os << ",\n      \"churn_speedup\": " << row.speedup << "}"
         << (r + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"sustained\": {\"engine\": \"indexed\", \"pms\": " << sustained.fleet
       << ", \"pairs\": " << sustained.pairs << ", \"window_place_p50_us\": [";
    for (std::size_t w = 0; w < sustained.window_p50_us.size(); ++w) {
      os << (w > 0 ? ", " : "") << sustained.window_p50_us[w];
    }
    os << "], \"first_window_p50_us\": " << sustained.first()
       << ", \"peak_window_p50_us\": " << sustained.peak() << "}\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
