// churn-10k: the engine-bound workload.
//
// An in-process PlacementService with the default config (serial worker,
// inline WAL flush, real data dir, no fsync) over a 10,000-PM EC2 fleet.
// One submitter fills the fleet to saturation, then drives a fixed stream
// of release+place pairs closed loop (window below queue capacity), then
// hard-stops the service and times recovery from the WAL.
//
// The op stream is a pure function of the seed: the submitter issues op
// i + window only after op i resolved, and victims are drawn from the VMs
// acked so far, so which VMs exist at every issue point never depends on
// timing. The engine is deterministic too, hence vms_per_pm repeats exactly
// for a seed, and a bare PageRankVm + Datacenter replaying the same stream
// must reproduce every acked PM and the final state digest.
#include <deque>
#include <future>
#include <optional>

#include "cluster/datacenter.hpp"
#include "common/rng.hpp"
#include "placement/pagerank_vm.hpp"
#include "service/service.hpp"
#include "service/snapshot.hpp"
#include "sim/simulator.hpp"
#include "workloads.hpp"

namespace bench {
namespace {

using prvm::PlacementService;
using prvm::Response;

struct Params {
  std::size_t fleet = 10000;
  std::size_t churn_pairs = 200000;
  std::size_t window = 256;  ///< ops in flight; queue capacity is 4096
  std::size_t fill_streak = 64;  ///< consecutive no_capacity = saturated
  std::size_t setup_reps = 3;
  std::size_t fill_reps = 7;
  std::size_t recovery_reps = 7;
  std::size_t bucket_window = 20000;  ///< churn pairs per live-bucket sample
  std::size_t churn_slices = 10;  ///< time slices churn_pps / lat_p50_us are medians over
};

Params params_for(const Options& options) {
  Params p;
  if (options.smoke) {
    p.fleet = 300;
    p.churn_pairs = 4000;
    p.window = 64;
    p.setup_reps = 1;
    p.fill_reps = 1;
    p.recovery_reps = 1;
    p.bucket_window = 1000;
  }
  return p;
}

struct Op {
  bool place = true;
  bool fill = false;
  prvm::VmId vm = 0;
  std::size_t type = 0;
  // Outcome as acked by the service.
  bool ok = false;
  std::size_t pm = 0;
};

prvm::ServiceConfig service_config(const std::filesystem::path& dir) {
  prvm::ServiceConfig config;
  config.data_dir = dir;
  config.metrics = std::make_shared<prvm::obs::Registry>();
  return config;
}

/// The single closed-loop submitter. Ops resolve strictly FIFO (one
/// submitter, serial worker), so the front of `inflight` is always next.
class Submitter {
 public:
  Submitter(PlacementService& service, std::vector<Op>& ops, SpanBuffer* spans)
      : service_(service), ops_(ops), spans_(spans) {}

  void submit(Op op) {
    const std::size_t index = ops_.size();
    ops_.push_back(op);
    prvm::Request request = op.place ? place_request(op.vm, op.type) : release_request(op.vm);
    const std::uint64_t start = prvm::obs::now_ns();
    inflight_.push_back(Inflight{index, service_.submit(std::move(request)), start});
  }

  /// Resolves the oldest op; returns its index.
  std::size_t resolve(std::vector<Completion>* done, Report& report) {
    Inflight front = std::move(inflight_.front());
    inflight_.pop_front();
    const Response response = front.future.get();
    const std::uint64_t end = prvm::obs::now_ns();
    Op& op = ops_[front.index];
    op.ok = response.ok;
    if (response.ok && response.pm.has_value()) op.pm = static_cast<std::size_t>(*response.pm);
    ++report.attempted;
    if (is_failure(response)) ++report.failed;
    if (done != nullptr) {
      done->push_back(Completion{end, static_cast<double>(end - front.start_ns) / 1e3,
                                 op.place && op.ok});
      if (spans_ != nullptr) spans_->add(SpanName::kSubmitToAck, front.index, front.start_ns, end);
    }
    return front.index;
  }

  std::size_t inflight() const { return inflight_.size(); }

 private:
  struct Inflight {
    std::size_t index;
    std::future<Response> future;
    std::uint64_t start_ns;
  };
  PlacementService& service_;
  std::vector<Op>& ops_;
  SpanBuffer* spans_;
  std::deque<Inflight> inflight_;
};

std::uintmax_t wal_size(const std::filesystem::path& dir) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(dir / "wal.log", ec);
  return ec ? 0 : size;
}

/// What the bare-engine replay measured.
struct Replay {
  double churn_seconds = 0.0;
  std::size_t churn_placed = 0;
  std::uint64_t digest = 0;
  std::uint64_t lookups = 0, probes = 0, rep_hits = 0, rep_misses = 0, churn_place_calls = 0;
  std::vector<double> fill_place_us, place_us, reject_us, remove_us;
  std::vector<double> window_place_us;  ///< mean accepted place() per bucket window
  std::vector<double> window_buckets;   ///< live buckets at each window end
};

/// Replays the acked op stream into a bare PageRankVm + Datacenter and
/// checks every decision against the service's. With `spans`, times each
/// call under a span (the traced replay); without, times only the churn
/// phase as a whole (the engine ceiling).
Replay replay(const std::vector<Op>& ops, const std::vector<std::size_t>& fleet,
              const std::shared_ptr<const prvm::ScoreTableSet>& tables, const Params& params,
              SpanBuffer* spans) {
  prvm::Datacenter dc(catalog(), fleet);
  prvm::obs::Registry registry;
  prvm::PageRankVmOptions engine_options;
  engine_options.metrics = &registry;
  prvm::PageRankVm engine(tables, engine_options);
  Replay out;
  const auto total_buckets = [&] {
    double n = 0;
    for (std::size_t t = 0; t < catalog().pm_types().size(); ++t) {
      n += static_cast<double>(dc.used_bucket_count(t));
    }
    return n;
  };
  const auto counters = [&](const char* name) { return counter_of(registry, name); };
  std::uint64_t lookups0 = 0, probes0 = 0, hits0 = 0, misses0 = 0, calls0 = 0;
  Clock::time_point churn_start{};
  bool in_churn = false;
  std::size_t pairs = 0;
  double window_sum = 0.0;
  std::size_t window_n = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (!op.fill && !in_churn) {
      in_churn = true;
      lookups0 = counters("prvm_engine_score_lookups_total");
      probes0 = counters("prvm_engine_index_probes_total");
      hits0 = counters("prvm_engine_rep_cache_hits_total");
      misses0 = counters("prvm_engine_rep_cache_misses_total");
      calls0 = counters("prvm_engine_place_total");
      churn_start = Clock::now();
    }
    if (!op.place) {
      const std::uint64_t t0 = spans != nullptr ? prvm::obs::now_ns() : 0;
      dc.remove(op.vm);
      if (spans != nullptr) {
        const std::uint64_t t1 = prvm::obs::now_ns();
        spans->add(SpanName::kRemove, i, t0, t1);
        out.remove_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      }
      continue;
    }
    const std::uint64_t t0 = spans != nullptr ? prvm::obs::now_ns() : 0;
    const std::optional<prvm::PmIndex> pm = engine.place(dc, prvm::Vm{op.vm, op.type});
    if (spans != nullptr) {
      const std::uint64_t t1 = prvm::obs::now_ns();
      const double us = static_cast<double>(t1 - t0) / 1e3;
      const SpanName name = !pm.has_value() ? SpanName::kEngineReject
                            : op.fill      ? SpanName::kEngineFillPlace
                                           : SpanName::kEnginePlace;
      spans->add(name, i, t0, t1);
      if (!pm.has_value()) {
        out.reject_us.push_back(us);
      } else if (op.fill) {
        out.fill_place_us.push_back(us);
      } else {
        out.place_us.push_back(us);
        window_sum += us;
        ++window_n;
      }
    }
    check(pm.has_value() == op.ok && (!op.ok || *pm == op.pm),
          "engine replay disagrees with the service at op " + std::to_string(i) + " (vm " +
              std::to_string(op.vm) + ")");
    if (!op.fill) {
      if (pm.has_value()) ++out.churn_placed;
      if (++pairs % params.bucket_window == 0 || i + 1 == ops.size()) {
        out.window_buckets.push_back(total_buckets());
        if (window_n > 0) out.window_place_us.push_back(window_sum / static_cast<double>(window_n));
        window_sum = 0.0;
        window_n = 0;
      }
    }
  }
  out.churn_seconds = seconds_since(churn_start);
  out.lookups = counters("prvm_engine_score_lookups_total") - lookups0;
  out.probes = counters("prvm_engine_index_probes_total") - probes0;
  out.rep_hits = counters("prvm_engine_rep_cache_hits_total") - hits0;
  out.rep_misses = counters("prvm_engine_rep_cache_misses_total") - misses0;
  out.churn_place_calls = counters("prvm_engine_place_total") - calls0;
  out.digest = prvm::datacenter_state_digest(dc);
  return out;
}

/// The seeded op source: VM ids in order, types from the EC2 mix.
struct Stream {
  explicit Stream(std::uint64_t seed) : rng(seed), mix(prvm::default_vm_mix(catalog())) {}
  Op place(bool fill) {
    Op op;
    op.fill = fill;
    op.vm = next_vm++;
    op.type = rng.weighted_index(mix);
    return op;
  }
  prvm::Rng rng;
  std::vector<double> mix;
  prvm::VmId next_vm = 1;
};

/// Fills to saturation (fill_streak consecutive rejections) with a window of
/// params.window ops; op i + window is issued right after op i resolves.
/// Returns acked placements per second.
double fill(Submitter& submitter, std::vector<Op>& ops, Stream& stream,
            std::vector<prvm::VmId>& live, const Params& params, Report& report) {
  const auto start = Clock::now();
  for (std::size_t i = 0; i < params.window; ++i) submitter.submit(stream.place(true));
  std::size_t streak = 0;
  while (submitter.inflight() > 0) {
    const Op& op = ops[submitter.resolve(nullptr, report)];
    if (op.ok) {
      live.push_back(op.vm);
      streak = 0;
    } else {
      ++streak;
    }
    if (streak < params.fill_streak) submitter.submit(stream.place(true));
  }
  return ratio(static_cast<double>(live.size()), seconds_since(start));
}

}  // namespace

void run_churn(const Options& options, Tracer& tracer, Report& report) {
  const Params params = params_for(options);
  const std::vector<std::size_t> fleet = prvm::mixed_pm_fleet(catalog(), params.fleet);
  report.param("fleet_pms", static_cast<double>(params.fleet));
  report.param("churn_pairs", static_cast<double>(params.churn_pairs));
  report.param("window_ops", static_cast<double>(params.window));
  report.param("fill_streak", static_cast<double>(params.fill_streak));
  report.param("setup_reps", static_cast<double>(params.setup_reps));
  report.param("recovery_reps", static_cast<double>(params.recovery_reps));
  report.param("service", "\"default config: serial worker, inline WAL flush, no fsync\"");

  SpanBuffer* spans = tracer.buffer(8 * params.churn_pairs / 2 + 2 * params.fleet * 20 + 1024);

  // --- set-up: cold score tables + service start until the first ack ---
  std::shared_ptr<const prvm::ScoreTableSet> tables;
  std::unique_ptr<PlacementService> service;
  std::filesystem::path data_dir;
  std::size_t rep = 0;
  run_setup_reps(params.setup_reps, [&] {
    service.reset();
    const auto t0 = Clock::now();
    tables = cold_score_tables();
    const auto t1 = Clock::now();
    data_dir = options.run_dir / ("svc-" + std::to_string(rep++));
    const ScopedSpan span(spans, SpanName::kServiceStart);
    service = std::make_unique<PlacementService>(catalog(), fleet, tables,
                                                 service_config(data_dir));
    service->start();
    check(service->submit(health_request()).get().ok, "service did not answer health");
    return std::make_pair(seconds_since(t0), seconds_since(t1));
  }, report);
  if (tracer.enabled()) report_core_layers(tracer, report);
  const prvm::obs::Registry& registry = service->metrics_registry();

  // --- fill to saturation: fill_reps fills of the same seeded stream, one
  // on the service that then churns and the others on throwaway services,
  // run between the recovery repetitions so that one burst of host
  // interference cannot cover them all; fill_pps is their median ---
  std::vector<double> fill_pps;
  std::size_t extra_fills = 0;
  const auto extra_fill = [&] {
    const std::filesystem::path dir = options.run_dir / ("fill-" + std::to_string(extra_fills++));
    PlacementService throwaway(catalog(), fleet, tables, service_config(dir));
    throwaway.start();
    Stream throwaway_stream(options.seed);
    std::vector<Op> throwaway_ops;
    std::vector<prvm::VmId> throwaway_live;
    Submitter throwaway_submitter(throwaway, throwaway_ops, nullptr);
    fill_pps.push_back(fill(throwaway_submitter, throwaway_ops, throwaway_stream, throwaway_live, params,
                            report));
    throwaway.stop_now();
  };
  Stream stream(options.seed);
  std::vector<Op> ops;
  ops.reserve(params.fleet * 20 + 2 * params.churn_pairs + params.window);
  Submitter submitter(*service, ops, spans);
  std::vector<prvm::VmId> live;
  fill_pps.push_back(fill(submitter, ops, stream, live, params, report));
  report.param("fill_placements", static_cast<double>(live.size()));
  report.param("fill_reps", static_cast<double>(params.fill_reps));

  // --- fixed churn stream: release a random acked VM, place a new one ---
  const auto wait0 = histogram_of(registry, "prvm_queue_wait_ns");
  const auto batch0 = histogram_of(registry, "prvm_batch_size");
  const auto compute0 = histogram_of(registry, "prvm_place_compute_ns");
  const auto flush0 = histogram_of(registry, "prvm_wal_flush_ns");
  const std::uint64_t queue_full0 = counter_of(registry, "prvm_queue_rejected_total");
  const std::uint64_t rejected0 = counter_of(registry, "prvm_ops_rejected_total");
  const std::uintmax_t wal0 = wal_size(data_dir);
  std::vector<Completion> done;
  done.reserve(2 * params.churn_pairs);
  std::size_t issued = 0;
  std::size_t pairs_in_flight = 0;
  std::size_t churn_acked = 0;
  const std::size_t pair_window = params.window / 2;
  const auto churn_start = Clock::now();
  const std::uint64_t churn_start_ns = prvm::obs::now_ns();
  while (issued < params.churn_pairs || submitter.inflight() > 0) {
    if (issued < params.churn_pairs && pairs_in_flight < pair_window) {
      check(!live.empty(), "churn ran out of live VMs");
      const std::size_t pick = stream.rng.uniform_index(live.size());
      Op release;
      release.place = false;
      release.vm = live[pick];
      live[pick] = live.back();
      live.pop_back();
      submitter.submit(release);
      submitter.submit(stream.place(false));
      ++issued;
      ++pairs_in_flight;
      continue;
    }
    const Op& op = ops[submitter.resolve(&done, report)];
    if (!op.place) {
      check(op.ok, "release of an acked VM failed (vm " + std::to_string(op.vm) + ")");
      continue;
    }
    --pairs_in_flight;
    if (op.ok) {
      live.push_back(op.vm);
      ++churn_acked;
    }
  }
  const double churn_seconds = seconds_since(churn_start);
  const double churn_ops = static_cast<double>(2 * params.churn_pairs);
  const SlicedChurn sliced =
      slice_churn(done, churn_start_ns, prvm::obs::now_ns(), params.churn_slices);
  std::vector<double> latencies_us;
  for (const Completion& c : done) latencies_us.push_back(c.latency_us);
  report.e2e("churn_pps", sliced.pps, "placements/s");
  report.e2e("lat_p50_us", sliced.p50_us, "us");
  const double lat_p99 = quantile(latencies_us, 0.99);
  report.overhead_basis_name = "churn_seconds";
  report.overhead_basis = churn_seconds;
  report.param("churn_placements", static_cast<double>(churn_acked));
  report.param("churn_pps_whole_stream", ratio(static_cast<double>(churn_acked), churn_seconds));
  report.param("churn_slices", static_cast<double>(params.churn_slices));
  report.param("latency_samples", static_cast<double>(latencies_us.size()));

  const auto wait = histogram_delta(histogram_of(registry, "prvm_queue_wait_ns"), wait0);
  const auto batch = histogram_delta(histogram_of(registry, "prvm_batch_size"), batch0);
  const auto compute = histogram_delta(histogram_of(registry, "prvm_place_compute_ns"), compute0);
  const auto flush = histogram_delta(histogram_of(registry, "prvm_wal_flush_ns"), flush0);
  const double queue_full =
      static_cast<double>(counter_of(registry, "prvm_queue_rejected_total") - queue_full0);
  const double rejected =
      static_cast<double>(counter_of(registry, "prvm_ops_rejected_total") - rejected0);
  const double wal_bytes = static_cast<double>(wal_size(data_dir) - wal0);

  // --- hard stop, digest, timed recovery from the WAL ---
  service->stop_now();
  std::uint64_t digest = prvm::datacenter_state_digest(service->datacenter());
  const double vms_per_pm = ratio(static_cast<double>(service->datacenter().vm_count()),
                                  static_cast<double>(service->datacenter().used_count()));
  service.reset();
  if (options.corrupt == "churn.digest") digest ^= 1;
  std::vector<double> recovery_s;
  std::uint64_t replayed = 0;
  for (std::size_t r = 0; r < params.recovery_reps; ++r) {
    if (r > 0 && extra_fills + 1 < params.fill_reps) extra_fill();
    const auto t0 = Clock::now();
    const ScopedSpan span(spans, SpanName::kRecover);
    PlacementService restarted(catalog(), fleet, tables, service_config(data_dir));
    restarted.start();
    check(restarted.submit(health_request()).get().ok, "recovered service did not answer");
    recovery_s.push_back(seconds_since(t0));
    restarted.stop_now();
    check(prvm::datacenter_state_digest(restarted.datacenter()) == digest,
          "state digest after WAL recovery differs from the digest before stop_now()");
    replayed = restarted.stats().replayed_records;
  }
  while (extra_fills + 1 < params.fill_reps) extra_fill();
  report.e2e("fill_pps", median(fill_pps), "placements/s");
  note_reps(report, "fill_pps reps", fill_pps);
  report.e2e("recovery_s", median(recovery_s), "s");
  note_reps(report, "recovery_s reps", recovery_s);
  report.param("wal_records_replayed", static_cast<double>(replayed));

  // --- correctness: a bare engine replaying the stream agrees op by op ---
  if (options.corrupt == "churn.replay") {
    for (std::size_t i = ops.size() / 2; i < ops.size(); ++i) {
      if (ops[i].place && ops[i].ok) {
        ops[i].pm += 1;
        break;
      }
    }
  }
  const Replay ceiling = replay(ops, fleet, tables, params, nullptr);
  check(ceiling.digest == digest, "engine replay ends in a different state digest");

  report.e2e("ok_ratio", 1.0 - ratio(static_cast<double>(report.failed),
                                     static_cast<double>(report.attempted)), "fraction");
  report.e2e("vms_per_pm", vms_per_pm, "VMs/PM");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  if (!tracer.enabled()) return;

  // --- per-layer (traced run) ---
  const Replay traced = replay(ops, fleet, tables, params, spans);
  const double place_ops = static_cast<double>(params.churn_pairs);
  report.layer("cluster.live_buckets.first", traced.window_buckets.front(), "count");
  report.layer("cluster.live_buckets.peak",
               *std::max_element(traced.window_buckets.begin(), traced.window_buckets.end()),
               "count");
  report.layer("cluster.live_buckets.last", traced.window_buckets.back(), "count");
  report.layer("cluster.remove_us.mean", mean(traced.remove_us), "us");
  report.layer("placement.place_us.mean", mean(traced.place_us), "us");
  report.layer("placement.place_us.first_window", traced.window_place_us.front(), "us");
  report.layer("placement.place_us.peak_window",
               *std::max_element(traced.window_place_us.begin(), traced.window_place_us.end()),
               "us");
  report.layer("placement.fill_place_us.mean", mean(traced.fill_place_us), "us");
  report.layer("placement.reject_us.mean", mean(traced.reject_us), "us");
  report.layer("placement.engine_ceiling_pps",
               ratio(static_cast<double>(ceiling.churn_placed), ceiling.churn_seconds),
               "placements/s");
  const double calls = static_cast<double>(ceiling.churn_place_calls);
  report.layer("placement.score_lookups_per_place",
               ratio(static_cast<double>(ceiling.lookups), calls), "count");
  report.layer("placement.index_probes_per_place",
               ratio(static_cast<double>(ceiling.probes), calls), "count");
  report.layer("placement.rep_cache_hit_ratio",
               ratio(static_cast<double>(ceiling.rep_hits),
                     static_cast<double>(ceiling.rep_hits + ceiling.rep_misses)),
               "fraction");

  const std::vector<double> submit_us = tracer.durations_us(SpanName::kSubmitToAck);
  const double submit_p50 = quantile(submit_us, 0.50);
  report.layer("service.submit_to_ack_us.p50", submit_p50, "us");
  report.layer("service.submit_to_ack_us.p99", quantile(submit_us, 0.99), "us");
  const double wait_p50 = wait.quantile(0.50) / 1e3;
  report.layer("service.queue_wait_us.p50", wait_p50, "us");
  report.layer("service.queue_wait_us.p99", wait.quantile(0.99) / 1e3, "us");
  report.layer("service.batch_ops.mean", batch.mean(), "count");
  report.layer("service.compute_us_per_op", compute.mean() / 1e3, "us");
  report.layer("service.queue_full_ratio", ratio(queue_full, churn_ops), "fraction");
  report.layer("service.admission_reject_ratio", ratio(rejected, place_ops), "fraction");
  const double engine_s =
      static_cast<double>(compute.sum) / 1e9 + mean(traced.remove_us) * place_ops / 1e6;
  report.layer("service.engine_share", ratio(engine_s, churn_seconds), "fraction");

  const double flush_p50 = flush.quantile(0.50) / 1e3;
  report.layer("wal.flush_us.p50", flush_p50, "us");
  report.layer("wal.flush_us.p99", flush.quantile(0.99) / 1e3, "us");
  report.layer("wal.flushes_per_1k_ops", ratio(static_cast<double>(flush.count), churn_ops) * 1e3,
               "count");
  report.layer("wal.bytes_per_op", ratio(wal_bytes, churn_ops), "bytes");
  const auto [read_s, read_records] =
      timed_wal_read(data_dir / "wal.log", options.run_dir / "wal-copy.log");
  report.layer("wal.read_s", read_s, "s");
  report.layer("wal.replay_records_per_s",
               ratio(static_cast<double>(read_records), median(recovery_s)), "records/s");

  report_not_exercised({{"codec.json.decode_ns", "ns"}, {"codec.json.encode_ns", "ns"},
                        {"codec.json.bytes_per_op", "bytes"}, {"codec.bin.decode_ns", "ns"},
                        {"codec.bin.encode_ns", "ns"}, {"codec.bin.bytes_per_op", "bytes"},
                        {"socket.util_rtt_us.p50", "us"}, {"gen.late_us.p99", "us"}},
                       "in-process submit, no socket or codec", report);
  report_not_exercised({{"router.place_us.p50", "us"}, {"router.grouped_place_us.p50", "us"},
                        {"router.grouped_place_us.p99", "us"}, {"router.hop_us", "us"},
                        {"router.spillover_ratio", "fraction"},
                        {"router.compensation_ratio", "fraction"},
                        {"router.group_abort_ratio", "fraction"}, {"cells.imbalance", "ratio"}},
                       "single service, no router", report);
  report.layer("tail.lat_p90_us", sliced.p90_us, "us");
  report.layer("tail.lat_p99_us", lat_p99, "us");
  report.layer("slo_rate", ratio(churn_ops, churn_seconds), "ops/s");
  report.layer("failed_ratio", ratio(static_cast<double>(report.failed),
                                     static_cast<double>(report.attempted)), "fraction");

  // Reconciliation: a pipelined op waits in the queue, then for its whole
  // batch to compute, then for the batch's WAL flush, then for its ack.
  const double per_op_engine_us = 0.5 * (median(tracer.self_us(SpanName::kEnginePlace)) +
                                         median(tracer.self_us(SpanName::kRemove)));
  const double batch_us = batch.mean() * per_op_engine_us;
  const double layers = wait_p50 + batch_us + flush_p50;
  const double gap_pct = ratio(submit_p50 - layers, submit_p50) * 100.0;
  report.layer("reconcile.e2e_us", submit_p50, "us");
  report.layer("reconcile.layers_us", layers, "us");
  report.layer("reconcile.gap_pct", gap_pct, "%");
  char line[256];
  report.note("reconciliation vs service.submit_to_ack_us.p50 (churn-10k):");
  std::snprintf(line, sizeof line, "  queue wait p50            %10.2f us", wait_p50);
  report.note(line);
  std::snprintf(line, sizeof line,
                "  batch compute             %10.2f us  (%.1f ops x %.2f us engine p50/op)",
                batch_us, batch.mean(), per_op_engine_us);
  report.note(line);
  std::snprintf(line, sizeof line, "  WAL flush p50             %10.2f us", flush_p50);
  report.note(line);
  std::snprintf(line, sizeof line, "  sum of layers             %10.2f us", layers);
  report.note(line);
  std::snprintf(line, sizeof line, "  submit->ack p50           %10.2f us", submit_p50);
  report.note(line);
  std::snprintf(line, sizeof line,
                "  gap %.1f%% %s: ack resolution (promise/future wake-up) and worker "
                "hand-off are not spanned from outside src/",
                gap_pct, std::abs(gap_pct) <= 10.0 ? "(within 10%)" : "(beyond 10%)");
  report.note(line);
}

}  // namespace bench
