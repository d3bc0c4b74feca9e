#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include <sys/resource.h>

#include "core/profile_graph.hpp"
#include "core/score_table.hpp"
#include "service/wal.hpp"

namespace bench {

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

void Report::e2e(const std::string& name, double value, const std::string& unit) {
  e2e_.push_back(Metric{name, value, unit});
}

void Report::layer(const std::string& name, double value, const std::string& unit) {
  layer_.push_back(Metric{name, value, unit});
}

void Report::param(const std::string& key, const std::string& json_value) {
  params_.emplace_back(key, json_value);
}

void Report::param(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  params_.emplace_back(key, buf);
}

void Report::note(const std::string& line) { notes_.push_back(line); }

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double seconds_since(Clock::time_point start) { return seconds_between(start, Clock::now()); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

const prvm::Catalog& catalog() {
  static const prvm::Catalog instance = prvm::ec2_sim_catalog();
  return instance;
}

std::shared_ptr<const prvm::ScoreTableSet> cold_score_tables() {
  return std::make_shared<const prvm::ScoreTableSet>(
      prvm::build_score_tables(catalog(), {}, std::nullopt));
}

void report_core_layers(Tracer& tracer, Report& report) {
  SpanBuffer* spans = tracer.buffer(64);
  double graph_s = 0.0;
  double table_s = 0.0;
  double nodes = 0.0;
  double iterations = 0.0;
  const prvm::Catalog& cat = catalog();
  for (std::size_t p = 0; p < cat.pm_types().size(); ++p) {
    const auto t0 = Clock::now();
    std::optional<prvm::ProfileGraph> graph;
    {
      const ScopedSpan span(spans, SpanName::kGraphBuild, p);
      graph.emplace(cat.shape(p), cat.fitting_demands(p).demands);
    }
    const auto t1 = Clock::now();
    std::optional<prvm::ScoreTable> table;
    {
      const ScopedSpan span(spans, SpanName::kTableBuild, p);
      table.emplace(prvm::ScoreTable::build(*graph));
    }
    graph_s += seconds_between(t0, t1);
    table_s += seconds_since(t1);
    nodes += static_cast<double>(graph->node_count());
    iterations += table->pagerank_iterations();
  }
  report.layer("core.graph_build_s", graph_s, "s");
  report.layer("core.table_build_s", table_s, "s");
  report.layer("core.graph_nodes", nodes, "count");
  report.layer("pagerank.iterations", iterations, "count");
}

void run_setup_reps(std::size_t reps,
                    const std::function<std::pair<double, double>()>& setup_once,
                    Report& report) {
  std::vector<double> totals;
  std::vector<double> starts;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto [total, start] = setup_once();
    totals.push_back(total);
    starts.push_back(start);
  }
  report.e2e("setup_s", median(totals), "s");
  report.layer("service.start_s", median(starts), "s");
  char line[160];
  std::snprintf(line, sizeof line, "setup reps=%zu median=%.4f s min=%.4f s max=%.4f s", reps,
                median(totals), *std::min_element(totals.begin(), totals.end()),
                *std::max_element(totals.begin(), totals.end()));
  report.note(line);
}

SlicedChurn slice_churn(const std::vector<Completion>& done, std::uint64_t start_ns,
                        std::uint64_t end_ns, std::size_t slices) {
  const double width = static_cast<double>(end_ns - start_ns) / static_cast<double>(slices);
  std::vector<std::vector<double>> latencies(slices);
  std::vector<double> placed(slices, 0.0);
  for (const Completion& c : done) {
    const auto s = std::min(slices - 1, static_cast<std::size_t>(
                                            static_cast<double>(c.end_ns - start_ns) / width));
    latencies[s].push_back(c.latency_us);
    if (c.acked_place) placed[s] += 1.0;
  }
  std::vector<double> pps, p50, p90;
  for (std::size_t s = 0; s < slices; ++s) {
    pps.push_back(placed[s] / (width / 1e9));
    p50.push_back(quantile(latencies[s], 0.50));
    p90.push_back(quantile(latencies[s], 0.90));
  }
  return SlicedChurn{median(pps), median(p50), median(p90)};
}

void note_reps(Report& report, const std::string& what, const std::vector<double>& values) {
  std::string line = what + ":";
  char buf[32];
  for (const double v : values) {
    std::snprintf(buf, sizeof buf, " %.6g", v);
    line += buf;
  }
  report.note(line);
}

bool is_failure(const prvm::Response& response) {
  if (response.ok) return false;
  return response.error != "no_capacity" && response.error != "group_conflict";
}

prvm::Request place_request(std::uint64_t vm, std::size_t type, std::string group) {
  prvm::Request request;
  request.op = prvm::RequestOp::kPlace;
  request.vm_id = vm;
  request.vm_type_index = type;
  request.group = std::move(group);
  return request;
}

prvm::Request release_request(std::uint64_t vm) {
  prvm::Request request;
  request.op = prvm::RequestOp::kRelease;
  request.vm_id = vm;
  return request;
}

prvm::Request lookup_request(std::uint64_t vm) {
  prvm::Request request;
  request.op = prvm::RequestOp::kLookup;
  request.vm_id = vm;
  return request;
}

prvm::Request health_request() {
  prvm::Request request;
  request.op = prvm::RequestOp::kHealth;
  return request;
}

prvm::obs::HistogramSnapshot histogram_delta(const prvm::obs::HistogramSnapshot& after,
                                             const prvm::obs::HistogramSnapshot& before) {
  prvm::obs::HistogramSnapshot out = after;
  for (std::size_t i = 0; i < out.counts.size() && i < before.counts.size(); ++i) {
    out.counts[i] -= before.counts[i];
  }
  out.count -= before.count;
  out.sum -= before.sum;
  return out;
}

void histogram_add(prvm::obs::HistogramSnapshot& into, const prvm::obs::HistogramSnapshot& delta) {
  into.counts.resize(std::max(into.counts.size(), delta.counts.size()), 0);
  for (std::size_t i = 0; i < delta.counts.size(); ++i) into.counts[i] += delta.counts[i];
  into.count += delta.count;
  into.sum += delta.sum;
}

prvm::obs::HistogramSnapshot histogram_of(const prvm::obs::Registry& registry,
                                          const char* name) {
  const prvm::obs::Histogram* h = registry.find_histogram(name);
  if (h == nullptr) {
    prvm::obs::HistogramSnapshot empty;
    empty.counts.assign(prvm::obs::Histogram::kBuckets, 0);
    return empty;
  }
  return h->snapshot();
}

std::uint64_t counter_of(const prvm::obs::Registry& registry, const char* name) {
  const prvm::obs::Counter* c = registry.find_counter(name);
  return c != nullptr ? c->value() : 0;
}

std::pair<double, std::size_t> timed_wal_read(const std::filesystem::path& src,
                                              const std::filesystem::path& dst) {
  std::filesystem::copy_file(src, dst, std::filesystem::copy_options::overwrite_existing);
  const auto t0 = Clock::now();
  const prvm::WalReadResult result = prvm::read_wal_ex(dst);
  const double seconds = seconds_since(t0);
  check(result.tail == prvm::WalTailStatus::kClean, "WAL copy did not read back clean");
  std::filesystem::remove(dst);
  return {seconds, result.records.size()};
}

void report_not_exercised(const std::vector<std::pair<std::string, std::string>>& metrics,
                          const std::string& why, Report& report) {
  std::string names;
  for (const auto& [name, unit] : metrics) {
    report.layer(name, 0.0, unit);
    names += (names.empty() ? "" : ", ") + name;
  }
  report.note("reported as 0, not exercised by this workload (" + why + "): " + names);
}

}  // namespace bench
