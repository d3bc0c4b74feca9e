// Shared plumbing of the placement-daemon benchmark: options, the result
// report, correctness checks, percentiles, the cold score-table setup and
// small request builders. Each workload lives in its own translation unit
// (churn.cpp, socket_mixed.cpp, cells_grouped.cpp) and fills one Report.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/catalog.hpp"
#include "core/catalog_graphs.hpp"
#include "obs/metrics.hpp"
#include "service/protocol.hpp"
#include "trace.hpp"

namespace bench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the self-test; never used for reported numbers.
  bool smoke = false;
  /// Name of a correctness check whose expectation is deliberately
  /// corrupted (self-test of the check itself); empty = none.
  std::string corrupt;
  /// Per-run working directory (WALs, sockets, generator files), created
  /// under the current directory and removed when the run ends.
  std::filesystem::path run_dir;
  /// Where the span file of a traced run is written (kept after the run).
  std::filesystem::path out_dir;
};

/// A failed correctness check: the run exits non-zero without a result.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Throws CheckFailure(`what`) unless `ok`.
void check(bool ok, const std::string& what);

/// Everything one run reports. End-to-end metrics go out with --trace 0,
/// per-layer metrics with --trace 1; `record` holds provenance, workload
/// parameters and notes (one JSON object, printed before the result).
class Report {
 public:
  void e2e(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  void param(const std::string& key, const std::string& json_value);
  void param(const std::string& key, double value);
  /// Human-readable line printed as "# ..." (reconciliation tables etc.).
  void note(const std::string& line);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Quantity run.py compares between an untraced and a traced run of
  /// the same workload and seed to report the tracing overhead.
  double overhead_basis = 0.0;
  std::string overhead_basis_name;

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Metric>& e2e_metrics() const { return e2e_; }
  const std::vector<Metric>& layer_metrics() const { return layer_; }
  const std::vector<std::pair<std::string, std::string>>& params() const { return params_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::vector<std::pair<std::string, std::string>> params_;
  std::vector<std::string> notes_;
};

double seconds_between(Clock::time_point a, Clock::time_point b);
double seconds_since(Clock::time_point start);
/// Linear-interpolated quantile q in [0,1] of `values` (copied); 0 if empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);
/// num / den, or 0 when den is 0.
double ratio(double num, double den);
/// Peak resident set of this process, MB (getrusage ru_maxrss).
double peak_rss_mb();

/// The catalog every workload runs: EC2 M3/C3 PMs and the EC2 VM types
/// (the daemon's catalog).
const prvm::Catalog& catalog();

/// Cold score-table build with the on-disk cache disabled, so every run pays
/// the profile-graph + PageRank work the daemon pays on a cold start.
std::shared_ptr<const prvm::ScoreTableSet> cold_score_tables();

/// Traced runs only: the same build, one layer call at a time —
/// ProfileGraph construction and ScoreTable::build per PM type under
/// spans — reporting core.graph_build_s, core.table_build_s,
/// core.graph_nodes and pagerank.iterations.
void report_core_layers(Tracer& tracer, Report& report);

/// Runs `setup_once` `reps` times; each call returns (total set-up seconds,
/// service start seconds). Reports setup_s (median total) and, as a layer
/// metric, service.start_s (median start).
void run_setup_reps(std::size_t reps, const std::function<std::pair<double, double>()>& setup_once,
                    Report& report);

/// One finished op of a closed loop: when its ack arrived, its submit-to-ack
/// latency, and whether it is an acked placement (counted in churn_pps).
struct Completion {
  std::uint64_t end_ns;
  double latency_us;
  bool acked_place;
};

/// A closed-loop churn phase cut into equal time slices. Host interference
/// on a shared machine comes in bursts of a fraction of a second to a few
/// seconds; the median over slices keeps one burst from deciding the run.
struct SlicedChurn {
  double pps = 0.0;     ///< median over slices of acked placements/s
  double p50_us = 0.0;  ///< median over slices of the slice's latency p50
  double p90_us = 0.0;  ///< the same at p90
};
SlicedChurn slice_churn(const std::vector<Completion>& done, std::uint64_t start_ns,
                        std::uint64_t end_ns, std::size_t slices);

/// Adds a "# <what>: v1 v2 ..." note listing every repetition of a metric.
void note_reps(Report& report, const std::string& what, const std::vector<double>& values);

/// Admission verdicts are valid outcomes; every other non-ok answer
/// (error, queue_full, degraded_storage, cell_unreachable, protocol errors,
/// draining, ...) counts as a failed op.
bool is_failure(const prvm::Response& response);

prvm::Request place_request(std::uint64_t vm, std::size_t type, std::string group = {});
prvm::Request release_request(std::uint64_t vm);
prvm::Request lookup_request(std::uint64_t vm);
prvm::Request health_request();

/// Bucket-wise difference of two snapshots of one histogram (after - before),
/// so quantiles cover only the samples recorded in between.
prvm::obs::HistogramSnapshot histogram_delta(const prvm::obs::HistogramSnapshot& after,
                                             const prvm::obs::HistogramSnapshot& before);
/// Adds `delta`'s samples into `into` (an empty snapshot starts at zero).
void histogram_add(prvm::obs::HistogramSnapshot& into, const prvm::obs::HistogramSnapshot& delta);
prvm::obs::HistogramSnapshot histogram_of(const prvm::obs::Registry& registry,
                                          const char* name);
std::uint64_t counter_of(const prvm::obs::Registry& registry, const char* name);

/// Copies `src` to `dst` and times read_wal_ex on the copy (the wal.read_s
/// layer metric); returns (seconds, records read).
std::pair<double, std::size_t> timed_wal_read(const std::filesystem::path& src,
                                              const std::filesystem::path& dst);

/// Reports the layer metrics a workload does not exercise as 0 with a note,
/// so every traced run prints the full per-layer set.
void report_not_exercised(const std::vector<std::pair<std::string, std::string>>& metrics,
                          const std::string& why, Report& report);

}  // namespace bench
