#include "service/service.hpp"

#include <fcntl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/check.hpp"
#include "common/worker_pool.hpp"
#include "service/snapshot.hpp"

namespace prvm {

namespace {

const char* kWalFile = "wal.log";
const char* kSnapshotFile = "snapshot.bin";
const char* kProbeFile = ".storage-probe";

}  // namespace

PlacementService::PlacementService(Catalog catalog, std::vector<std::size_t> fleet,
                                   std::shared_ptr<const ScoreTableSet> tables,
                                   ServiceConfig config)
    : config_(std::move(config)),
      catalog_(std::move(catalog)),
      dc_(catalog_, fleet),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : std::make_shared<obs::Registry>()) {
  PRVM_REQUIRE(config_.batch_size > 0, "batch size must be positive");
  PRVM_REQUIRE(config_.queue_capacity > 0, "queue capacity must be positive");
  if (config_.flush_group_max > 0 && config_.flush_group_max < config_.batch_size) {
    throw ServiceConfigError(
        "flush_group_max",
        "must be >= batch_size (" + std::to_string(config_.batch_size) +
            ") when group commit is enabled — a full batch must fit one flush group");
  }
  if (config_.repl.follower && !config_.repl.replicas.empty()) {
    throw ServiceConfigError("repl.replicas",
                             "a follower cannot itself replicate (chained replication after "
                             "promotion is not supported)");
  }
  if (config_.repl.ack_replicas > config_.repl.replicas.size()) {
    throw ServiceConfigError(
        "repl.ack_replicas",
        "cannot exceed the configured replicas (" +
            std::to_string(config_.repl.replicas.size()) + ")");
  }
  if (!config_.repl.replicas.empty() && config_.data_dir.empty()) {
    throw ServiceConfigError("repl.replicas",
                             "replication streams the WAL frames, so a leader needs a data_dir");
  }
  if (config_.rebalance.enabled) {
    if (!(config_.rebalance.overload_threshold > 0.0 &&
          config_.rebalance.overload_threshold <= 1.5)) {
      throw ServiceConfigError("rebalance.overload_threshold", "must be in (0, 1.5]");
    }
    if (config_.rebalance.underload_threshold < 0.0 ||
        config_.rebalance.underload_threshold >= config_.rebalance.overload_threshold) {
      throw ServiceConfigError("rebalance.underload_threshold",
                               "must be >= 0 and below the overload threshold");
    }
    if (config_.rebalance.interval_ms == 0) {
      throw ServiceConfigError("rebalance.interval_ms", "must be positive");
    }
    if (config_.rebalance.max_moves_per_round == 0) {
      throw ServiceConfigError("rebalance.max_moves_per_round", "must be positive");
    }
  }
  follower_.store(config_.repl.follower, std::memory_order_relaxed);
  init_metrics();
  // The engine reports into this service's registry unless the caller wired
  // it elsewhere explicitly.
  if (config_.engine.metrics == nullptr) config_.engine.metrics = metrics_.get();
  engine_ = std::make_unique<PageRankVm>(tables, config_.engine);
  // Engine clones for speculative parallel compute. Linear-scan and 2-choice
  // engines cannot speculate (scan order / RNG stream live in the committing
  // engine), so the clones would only burn memory.
  if (config_.parallel_workers > 0 && config_.engine.use_index && !config_.engine.two_choice) {
    for (std::size_t i = 0; i < config_.parallel_workers; ++i) {
      spec_engines_.push_back(std::make_unique<PageRankVm>(tables, config_.engine));
    }
  }
  // The utilization map always exists (the util op is accepted whether or
  // not planning is on — operators can warm the feed before enabling), but
  // the planner thread only when --rebalance asked for it.
  {
    UtilizationConfig ucfg;
    ucfg.pm_count = dc_.pm_count();
    ucfg.half_life_ms = config_.rebalance.half_life_ms;
    ucfg.stale_after_ms = config_.rebalance.stale_after_ms;
    util_map_ = std::make_unique<UtilizationMap>(ucfg, obs::now_ns());
  }
  if (config_.rebalance.enabled) {
    planner_ = std::make_unique<RebalancePlanner>(config_.rebalance, *this, *util_map_,
                                                  tables, metrics_);
  }
  tables.reset();
  IoEnv* base = config_.io_env != nullptr ? config_.io_env.get() : &IoEnv::real();
  if (auto* injector = dynamic_cast<FaultInjectingIoEnv*>(base)) {
    injector->bind_metrics(*metrics_);
  }
  instrumented_io_ = std::make_unique<InstrumentedIoEnv>(base, *metrics_);
  io_ = instrumented_io_.get();
  for (std::size_t v = 0; v < catalog_.vm_types().size(); ++v) {
    vm_type_by_name_.emplace(catalog_.vm_type(v).name, v);
  }
  if (!config_.data_dir.empty()) {
    recover(fleet);
    wal_ = std::make_unique<WalWriter>(config_.data_dir / kWalFile, config_.fsync_wal, io_);
    // A broken disk at boot is survivable: serve reads, probe for storage.
    if (!wal_->healthy()) enter_degraded(wal_->open_status());
  }
  // Recovery replays through the bare ledger, which skips the pick index;
  // attach it once here so the first batch can already speculate.
  engine_->attach_index(dc_);
  if (!config_.repl.replicas.empty()) {
    repl_ = std::make_unique<ReplicationSender>(config_.repl.replicas, metrics_.get(),
                                                config_.repl.ack_timeout_ms);
  }
}

void PlacementService::init_metrics() {
  obs::Registry& r = *metrics_;
  m_.placed = &r.counter("prvm_ops_placed_total");
  m_.released = &r.counter("prvm_ops_released_total");
  m_.migrated = &r.counter("prvm_ops_migrated_total");
  m_.rejected = &r.counter("prvm_ops_rejected_total");
  m_.queue_rejected = &r.counter("prvm_queue_rejected_total");
  m_.batches = &r.counter("prvm_batches_total");
  m_.snapshots = &r.counter("prvm_snapshots_total");
  m_.wal_appends = &r.counter("prvm_wal_appends_total");
  m_.replayed_records = &r.counter("prvm_replayed_records_total");
  m_.io_errors = &r.counter("prvm_io_errors_total");
  m_.degraded_transitions = &r.counter("prvm_degraded_transitions_total");
  m_.probes = &r.counter("prvm_storage_probes_total");
  m_.probe_failures = &r.counter("prvm_storage_probe_failures_total");
  m_.probe_successes = &r.counter("prvm_storage_probe_successes_total");
  for (std::size_t reason = 1; reason < m_.reject_by_reason.size(); ++reason) {
    m_.reject_by_reason[reason] = &r.counter(
        std::string("prvm_reject_") + to_string(static_cast<RejectReason>(reason)) + "_total");
  }
  m_.group_reserves = &r.counter("prvm_cell_group_reserves_total");
  m_.group_commits = &r.counter("prvm_cell_group_commits_total");
  m_.group_aborts = &r.counter("prvm_cell_group_aborts_total");
  m_.spec_attempts = &r.counter("prvm_spec_attempts_total");
  m_.spec_commits = &r.counter("prvm_spec_commits_total");
  m_.spec_conflicts = &r.counter("prvm_spec_conflicts_total");
  m_.flush_groups = &r.counter("prvm_flush_groups_total");
  m_.repl_applied = &r.counter("prvm_repl_applied_records_total");
  m_.repl_snapshots_in = &r.counter("prvm_repl_snapshots_installed_total");
  m_.promotions = &r.counter("prvm_repl_promotions_total");
  m_.mode = &r.gauge("prvm_mode");
  m_.queue_depth = &r.gauge("prvm_queue_depth");
  m_.wal_lag = &r.gauge("prvm_wal_lag");
  m_.max_batch = &r.gauge("prvm_max_batch");
  m_.flush_queue_depth = &r.gauge("prvm_flush_queue_depth");
  m_.queue_wait_ns = &r.histogram("prvm_queue_wait_ns");
  m_.batch_size = &r.histogram("prvm_batch_size");
  m_.place_compute_ns = &r.histogram("prvm_place_compute_ns");
  m_.wal_flush_ns = &r.histogram("prvm_wal_flush_ns");
  m_.snapshot_ns = &r.histogram("prvm_snapshot_ns");
  m_.partition_size = &r.histogram("prvm_partition_size");
  m_.flush_group_ops = &r.histogram("prvm_flush_group_ops");
  m_.flush_lag_ns = &r.histogram("prvm_flush_lag_ns");
  m_.util_samples = &r.counter("prvm_rebal_util_samples_total");
  m_.util_dropped = &r.counter("prvm_rebal_util_dropped_total");
  m_.util_sample_pct = &r.histogram("prvm_rebal_util_sample_pct");
}

PlacementService::~PlacementService() { stop_now(); }

void PlacementService::recover(const std::vector<std::size_t>& fleet) {
  const std::filesystem::path snapshot_path = config_.data_dir / kSnapshotFile;
  std::optional<ServiceSnapshot> snapshot = load_snapshot(snapshot_path, catalog_);
  if (snapshot.has_value()) {
    PRVM_REQUIRE(snapshot->datacenter->pm_count() == fleet.size() || fleet.empty(),
                 "snapshot fleet size does not match the configured fleet");
    dc_ = std::move(*snapshot->datacenter);
    admission_ = std::move(snapshot->admission);
    group_dir_ = std::move(snapshot->groups);
    snapshot_op_seq_ = snapshot->last_op_seq;
    op_seq_ = snapshot->last_op_seq;
    recovered_ = true;
  }
  const WalReadResult wal = read_wal_ex(config_.data_dir / kWalFile);
  wal_tail_ = wal.tail;
  wal_torn_tail_ = wal.tail != WalTailStatus::kClean;
  for (const WalRecord& record : wal.records) {
    if (record.op_seq <= snapshot_op_seq_) continue;  // already in the snapshot
    apply_wal_record(record);
    op_seq_ = record.op_seq;
    m_.replayed_records->inc();
    recovered_ = true;
  }
}

void PlacementService::apply_wal_record(const WalRecord& record) {
  const VmId vm = static_cast<VmId>(record.vm);
  switch (record.type) {
    case WalRecord::Type::kPlace: {
      DemandPlacement placement;
      placement.assignments = record.assignments;
      dc_.place(static_cast<PmIndex>(record.pm),
                Vm{vm, static_cast<std::size_t>(record.vm_type)}, placement);
      admission_.record_placement(vm, record.group, static_cast<PmIndex>(record.pm));
      m_.placed->inc();
      break;
    }
    case WalRecord::Type::kRelease: {
      dc_.remove(vm);
      admission_.record_release(vm, static_cast<PmIndex>(record.pm));
      m_.released->inc();
      break;
    }
    case WalRecord::Type::kMigrate: {
      // Replay re-executes the exact remove+place sequence the live path
      // ran, including the degenerate pm == from_pm form a failed migrate
      // logs, so activation sequence numbers evolve identically.
      const Datacenter::PlacedVm removed = dc_.remove(vm);
      admission_.record_release(vm, static_cast<PmIndex>(record.from_pm));
      DemandPlacement placement;
      placement.assignments = record.assignments;
      dc_.place(static_cast<PmIndex>(record.pm), removed.vm, placement);
      admission_.record_placement(vm, record.group, static_cast<PmIndex>(record.pm));
      m_.migrated->inc();
      break;
    }
    case WalRecord::Type::kGroupReserve:
      // The reserve's token is its op_seq; the deadline rode in from_pm, so
      // replay rebuilds the exact pending entry regardless of wall time.
      group_dir_.apply_reserve(record.group, record.vm, record.op_seq, record.from_pm);
      m_.group_reserves->inc();
      break;
    case WalRecord::Type::kGroupCommit:
      group_dir_.apply_commit(record.group, record.vm, record.pm);
      m_.group_commits->inc();
      break;
    case WalRecord::Type::kGroupAbort:
      group_dir_.apply_abort(record.group, record.vm);
      m_.group_aborts->inc();
      break;
  }
}

void PlacementService::log_record(WalRecord record) {
  if (wal_ == nullptr) return;
  if (repl_ != nullptr) {
    // Leaders capture the exact frame bytes for the replication stream (the
    // follower's re-appended WAL is then byte-identical to the leader's) —
    // encode once and feed both the WAL buffer and the stream from it.
    const std::string frame = encode_wal_frame(record);
    batch_wal_bytes_ += wal_->append_frames(frame, 1);
    batch_repl_frames_ += frame;
  } else {
    batch_wal_bytes_ += wal_->append(record);
  }
  m_.wal_appends->inc();
  wal_dirty_ = true;
}

IoStatus PlacementService::flush_wal() {
  const obs::ScopedTimerNs timer(*m_.wal_flush_ns);
  const IoStatus status = wal_->flush();
  wal_dirty_ = false;
  return status;
}

IoStatus PlacementService::take_snapshot() {
  if (config_.data_dir.empty()) return IoStatus::success();
  // Quiesce the group-commit pipeline: every queued group must be flushed
  // (and acked) before the snapshot covers its ops and reset() discards the
  // buffer. After the barrier the WAL buffer holds at most the current
  // batch's not-yet-grouped frames, which the inline flush below covers.
  flusher_barrier();
  batch_wal_bytes_ = 0;
  if (wal_ != nullptr && wal_dirty_) {
    const IoStatus status = flush_wal();
    if (!status.ok()) return status;
  }
  IoStatus status;
  {
    const obs::ScopedTimerNs timer(*m_.snapshot_ns);
    status = save_snapshot(config_.data_dir / kSnapshotFile, dc_, admission_, group_dir_,
                           op_seq_, io_);
  }
  if (!status.ok()) return status;
  snapshot_op_seq_ = op_seq_;
  m_.snapshots->inc();
  // A failed truncate after a successful snapshot is safe for correctness
  // (op_seq gating skips the stale records on replay) but still signals a
  // failing disk — report it so the caller degrades.
  if (wal_ != nullptr) return wal_->reset();
  return IoStatus::success();
}

void PlacementService::enter_degraded(const IoStatus& status) {
  m_.io_errors->inc();
  last_io_error_ = status.message();
  if (degraded_.load(std::memory_order_relaxed)) return;
  degraded_.store(true, std::memory_order_relaxed);
  m_.degraded_transitions->inc();
  m_.mode->set(2);
  probe_backoff_ms_ = std::max<std::uint64_t>(1, config_.probe_initial_ms);
  next_probe_at_ms_ = io_->now_ms() + probe_backoff_ms_;
}

Response PlacementService::degraded_reject(const Request& request) const {
  Response response = reject(request, RejectReason::kDegradedStorage,
                             "storage degraded: " + last_io_error_);
  response.retry_after_ms = config_.degraded_retry_after_ms;
  return response;
}

void PlacementService::demote_unlogged(Response& response,
                                       const std::string& error_message) const {
  if (!response.ok) return;
  // repl_frames/repl_snap acks promise follower-side durability, so a
  // failed follower flush must demote them too — the leader then parks the
  // link and resyncs once this node's storage recovers.
  if (response.op != "place" && response.op != "release" && response.op != "migrate" &&
      response.op != "gres" && response.op != "gcommit" && response.op != "gabort" &&
      response.op != "repl_frames" && response.op != "repl_snap") {
    return;
  }
  Response demoted;
  demoted.ok = false;
  demoted.op = response.op;
  demoted.vm = response.vm;
  demoted.error = to_string(RejectReason::kDegradedStorage);
  demoted.message = "decision not durable (" + error_message + "); retry once storage recovers";
  demoted.retry_after_ms = config_.degraded_retry_after_ms;
  response = std::move(demoted);
}

IoStatus PlacementService::probe_storage() {
  const std::filesystem::path probe = config_.data_dir / kProbeFile;
  const int fd = io_->open(probe.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return IoStatus::failure(-fd, "open(" + probe.string() + ")");
  static const char payload[] = "prvm storage probe\n";
  IoStatus status =
      io_write_all(*io_, fd, payload, sizeof(payload) - 1, "write(" + probe.string() + ")");
  if (status.ok()) status = io_fsync(*io_, fd, "fsync(" + probe.string() + ")");
  const IoStatus close_status = io_close(*io_, fd, "close(" + probe.string() + ")");
  if (status.ok()) status = close_status;
  std::error_code ec;
  std::filesystem::remove(probe, ec);  // best effort; a stale probe file is harmless
  return status;
}

void PlacementService::maybe_probe_storage() {
  if (!degraded_.load(std::memory_order_relaxed)) return;
  if (config_.data_dir.empty()) return;
  if (io_->now_ms() < next_probe_at_ms_) return;
  // The flusher must be idle before the snapshot and WAL truncate below —
  // while degraded it only demotes queued groups, so the barrier is short.
  flusher_barrier();
  m_.probes->inc();
  // Recovery is probe -> snapshot -> WAL truncate/reopen, in that order:
  // the fresh snapshot covers every in-memory decision (including any whose
  // flush failed and were answered degraded_storage), and only once it is
  // durable may the possibly-torn WAL be discarded.
  IoStatus status = probe_storage();
  if (status.ok()) {
    {
      const obs::ScopedTimerNs timer(*m_.snapshot_ns);
      status = save_snapshot(config_.data_dir / kSnapshotFile, dc_, admission_, group_dir_,
                             op_seq_, io_);
    }
    if (status.ok()) {
      snapshot_op_seq_ = op_seq_;
      m_.snapshots->inc();
      if (wal_ != nullptr) status = wal_->reopen_truncate();
    }
  }
  if (status.ok()) {
    m_.probe_successes->inc();
    batch_wal_bytes_ = 0;  // reopen_truncate discarded any buffered frames
    {
      std::lock_guard<std::mutex> lock(flush_mu_);
      flusher_status_ = IoStatus::success();
    }
    flush_failed_.store(false, std::memory_order_release);
    degraded_.store(false, std::memory_order_relaxed);
    m_.mode->set(0);
    return;
  }
  m_.probe_failures->inc();
  m_.io_errors->inc();
  last_io_error_ = status.message();
  probe_backoff_ms_ = std::min<std::uint64_t>(probe_backoff_ms_ * 2,
                                              std::max<std::uint64_t>(1, config_.probe_max_ms));
  next_probe_at_ms_ = io_->now_ms() + probe_backoff_ms_;
}

Response PlacementService::reject(const Request& request, RejectReason reason,
                                  std::string message) const {
  const auto index = static_cast<std::size_t>(reason);
  if (index > 0 && index < m_.reject_by_reason.size()) m_.reject_by_reason[index]->inc();
  Response response;
  response.ok = false;
  response.op = to_string(request.op);
  if (request.op != RequestOp::kStats && request.op != RequestOp::kDrain &&
      request.op != RequestOp::kHealth && request.op != RequestOp::kMetrics) {
    response.vm = request.vm_id;
  }
  response.error = to_string(reason);
  response.message = std::move(message);
  return response;
}

std::optional<std::size_t> PlacementService::resolve_vm_type(const Request& request) const {
  if (request.vm_type_index.has_value()) {
    if (*request.vm_type_index >= catalog_.vm_types().size()) return std::nullopt;
    return static_cast<std::size_t>(*request.vm_type_index);
  }
  const auto it = vm_type_by_name_.find(request.vm_type_name);
  if (it == vm_type_by_name_.end()) return std::nullopt;
  return it->second;
}

bool PlacementService::feasible_anywhere(std::size_t vm_type,
                                         const PlacementConstraints& constraints) const {
  for (PmIndex i = 0; i < dc_.pm_count(); ++i) {
    if (constraints.allowed(dc_, i) && dc_.fits(i, vm_type)) return true;
  }
  return false;
}

Response PlacementService::place(const Request& request) {
  const std::optional<std::size_t> vm_type = resolve_vm_type(request);
  if (!vm_type.has_value()) {
    return reject(request, RejectReason::kUnknownVmType,
                  request.vm_type_index.has_value()
                      ? "VM type index out of range"
                      : "unknown VM type \"" + request.vm_type_name + "\"");
  }
  const VmId vm = static_cast<VmId>(request.vm_id);
  if (dc_.pm_of(vm).has_value()) {
    return reject(request, RejectReason::kDuplicateVm, "VM id is already placed");
  }

  const PlacementConstraints constraints = admission_.constraints_for(request.group);
  std::optional<PmIndex> pm;
  {
    const obs::ScopedTimerNs timer(*m_.place_compute_ns);
    pm = engine_->place(dc_, Vm{vm, *vm_type}, constraints);
  }
  if (!pm.has_value()) {
    m_.rejected->inc();
    // Distinguish "the datacenter is full" from "your anti-collocation
    // group vetoed every feasible PM" — clients react differently (scale
    // the fleet vs. relax the group). The scan only runs on this rare
    // rejection path, and only for grouped requests.
    if (!request.group.empty() && feasible_anywhere(*vm_type, PlacementConstraints{})) {
      return reject(request, RejectReason::kGroupConflict,
                    "anti-collocation group \"" + request.group +
                        "\" excludes every PM that could host this VM");
    }
    return reject(request, RejectReason::kNoCapacity, "no PM can host this VM");
  }

  admission_.record_placement(vm, request.group, *pm);
  WalRecord record;
  record.type = WalRecord::Type::kPlace;
  record.op_seq = ++op_seq_;
  record.vm = vm;
  record.vm_type = *vm_type;
  record.pm = *pm;
  record.group = request.group;
  record.assignments = dc_.pm(*pm).vms.back().assignments;
  log_record(std::move(record));
  m_.placed->inc();

  Response response;
  response.ok = true;
  response.op = "place";
  response.vm = request.vm_id;
  response.pm = *pm;
  return response;
}

Response PlacementService::release(const Request& request) {
  const VmId vm = static_cast<VmId>(request.vm_id);
  const std::optional<PmIndex> pm = dc_.pm_of(vm);
  if (!pm.has_value()) {
    return reject(request, RejectReason::kUnknownVm, "VM id is not placed");
  }
  dc_.remove(vm);
  admission_.record_release(vm, *pm);
  WalRecord record;
  record.type = WalRecord::Type::kRelease;
  record.op_seq = ++op_seq_;
  record.vm = vm;
  record.pm = *pm;
  log_record(std::move(record));
  m_.released->inc();

  Response response;
  response.ok = true;
  response.op = "release";
  response.vm = request.vm_id;
  response.pm = *pm;
  return response;
}

Response PlacementService::migrate(const Request& request) {
  const VmId vm = static_cast<VmId>(request.vm_id);
  const std::optional<PmIndex> old_pm = dc_.pm_of(vm);
  if (!old_pm.has_value()) {
    return reject(request, RejectReason::kUnknownVm, "VM id is not placed");
  }
  const std::string group = admission_.group_of(vm);

  const Datacenter::PlacedVm removed = dc_.remove(vm);
  PlacementConstraints constraints = admission_.constraints_for(group);
  constraints.exclude = *old_pm;
  if (request.rebalance_dest_cap >= 0.0) {
    // Planner-issued migrate: the destination must stay at or under the
    // overload threshold (CloudSim's "a PM at the threshold cannot receive
    // migrants"). Chain with the group anti-collocation veto — both apply.
    const double cap = request.rebalance_dest_cap;
    const bool consolidate = request.rebalance_consolidate;
    const std::uint64_t now = obs::now_ns();
    auto group_allow = std::move(constraints.allow);
    const UtilizationMap* map = util_map_.get();
    constraints.allow = [cap, consolidate, now, map,
                         group_allow = std::move(group_allow)](const Datacenter& dc,
                                                               PmIndex candidate) {
      if (group_allow && !group_allow(dc, candidate)) return false;
      // Consolidation packs — an empty destination would just relocate the
      // underloaded PM instead of shrinking the used set.
      if (consolidate && !dc.pm(candidate).used()) return false;
      const LoadView view(&dc, map, now);
      return view.pm_hottest_utilization(candidate) <= cap;
    };
  }
  std::optional<PmIndex> new_pm;
  {
    const obs::ScopedTimerNs timer(*m_.place_compute_ns);
    new_pm = engine_->place(dc_, removed.vm, constraints);
  }

  WalRecord record;
  record.type = WalRecord::Type::kMigrate;
  record.op_seq = ++op_seq_;
  record.vm = vm;
  record.vm_type = removed.vm.type_index;
  record.from_pm = *old_pm;
  record.group = group;

  if (!new_pm.has_value()) {
    // Put the VM back exactly where it was. The remove+place round trip IS
    // a state change (activation sequencing), so it is logged as a
    // degenerate migrate (pm == from_pm) to keep WAL replay bit-exact.
    DemandPlacement placement;
    placement.assignments = removed.assignments;
    dc_.place(*old_pm, removed.vm, placement);
    record.pm = *old_pm;
    record.assignments = removed.assignments;
    log_record(std::move(record));
    m_.rejected->inc();
    return reject(request, RejectReason::kNoCapacity,
                  "no other PM can host this VM right now");
  }

  admission_.record_release(vm, *old_pm);
  admission_.record_placement(vm, group, *new_pm);
  record.pm = *new_pm;
  record.assignments = dc_.pm(*new_pm).vms.back().assignments;
  log_record(std::move(record));
  m_.migrated->inc();

  Response response;
  response.ok = true;
  response.op = "migrate";
  response.vm = request.vm_id;
  response.pm = *new_pm;
  response.extra.emplace_back("from_pm", std::to_string(*old_pm));
  return response;
}

Response PlacementService::lookup(const Request& request) {
  const VmId vm = static_cast<VmId>(request.vm_id);
  const std::optional<PmIndex> pm = dc_.pm_of(vm);
  if (!pm.has_value()) {
    return reject(request, RejectReason::kUnknownVm, "VM id is not placed");
  }
  Response response;
  response.ok = true;
  response.op = "lookup";
  response.vm = request.vm_id;
  response.pm = *pm;
  const std::string& group = admission_.group_of(vm);
  if (!group.empty()) response.extra.emplace_back("group", json_quote(group));
  return response;
}

Response PlacementService::group_reserve(const Request& request) {
  const std::uint64_t now_ms = io_->now_ms();
  const RejectReason verdict = group_dir_.try_reserve(request.group, request.vm_id, now_ms);
  if (verdict != RejectReason::kNone) {
    m_.rejected->inc();
    return reject(request, verdict,
                  "VM is already reserved or committed in group \"" + request.group + "\"");
  }
  // Deadline travels in the record (from_pm) so replay rebuilds the exact
  // pending entry; the token is the record's own op_seq.
  const std::uint64_t deadline_ms = now_ms + config_.reserve_ttl_ms;
  WalRecord record;
  record.type = WalRecord::Type::kGroupReserve;
  record.op_seq = ++op_seq_;
  record.vm = request.vm_id;
  record.group = request.group;
  record.from_pm = deadline_ms;
  log_record(std::move(record));
  group_dir_.apply_reserve(request.group, request.vm_id, op_seq_, deadline_ms);
  m_.group_reserves->inc();

  Response response;
  response.ok = true;
  response.op = "gres";
  response.vm = request.vm_id;
  response.extra.emplace_back("token", std::to_string(op_seq_));
  return response;
}

Response PlacementService::group_commit(const Request& request) {
  const std::uint64_t cell = request.cell.value_or(0);
  const RejectReason verdict = group_dir_.try_commit(request.group, request.vm_id, cell);
  if (verdict != RejectReason::kNone) {
    m_.rejected->inc();
    return reject(request, verdict,
                  "VM is committed to a different cell in group \"" + request.group + "\"");
  }
  WalRecord record;
  record.type = WalRecord::Type::kGroupCommit;
  record.op_seq = ++op_seq_;
  record.vm = request.vm_id;
  record.pm = cell;
  record.group = request.group;
  log_record(std::move(record));
  group_dir_.apply_commit(request.group, request.vm_id, cell);
  m_.group_commits->inc();

  Response response;
  response.ok = true;
  response.op = "gcommit";
  response.vm = request.vm_id;
  return response;
}

Response PlacementService::group_abort(const Request& request) {
  // Idempotent: aborting an absent member succeeds without touching the WAL
  // (nothing changed, so replay needs no record).
  if (group_dir_.member(request.group, request.vm_id) != nullptr) {
    WalRecord record;
    record.type = WalRecord::Type::kGroupAbort;
    record.op_seq = ++op_seq_;
    record.vm = request.vm_id;
    record.group = request.group;
    log_record(std::move(record));
    group_dir_.apply_abort(request.group, request.vm_id);
    m_.group_aborts->inc();
  }
  Response response;
  response.ok = true;
  response.op = "gabort";
  response.vm = request.vm_id;
  return response;
}

// --- replication (DESIGN.md §8) ---

namespace {

/// Rejections the replication peer interprets by error string rather than
/// RejectReason (repl_gap / repl_stale / repl_lag / bad_frame). They carry
/// this node's op_seq so the leader's ack bookkeeping stays exact.
Response repl_fail(const Request& request, const char* error, std::string message,
                   std::uint64_t op_seq) {
  Response response;
  response.ok = false;
  response.op = to_string(request.op);
  response.error = error;
  response.message = std::move(message);
  response.extra.emplace_back("op_seq", std::to_string(op_seq));
  return response;
}

}  // namespace

Response PlacementService::repl_hello_response(const Request& request) {
  (void)request;
  Response response;
  response.ok = true;
  response.op = "repl_hello";
  response.extra.emplace_back("op_seq", std::to_string(op_seq_));
  response.extra.emplace_back(
      "role", json_quote(follower_.load(std::memory_order_relaxed) ? "follower" : "leader"));
  return response;
}

Response PlacementService::apply_repl_snapshot(const Request& request) {
  const std::uint64_t snap_seq = request.seq.value_or(0);
  if (snap_seq < op_seq_) {
    // This follower is ahead of the pushed snapshot: installing it would
    // roll back acknowledged state. The leader is stale; refuse.
    return repl_fail(request, "repl_stale",
                     "snapshot covers op_seq " + std::to_string(snap_seq) +
                         " but this follower is at " + std::to_string(op_seq_),
                     op_seq_);
  }
  const std::uint64_t offset = request.offset.value_or(0);
  if (offset == 0) {
    repl_snap_buffer_.clear();
    repl_snap_offset_ = 0;
  }
  if (offset != repl_snap_offset_) {
    const std::uint64_t expected = repl_snap_offset_;
    repl_snap_buffer_.clear();
    repl_snap_offset_ = 0;
    return repl_fail(request, "repl_gap",
                     "snapshot chunk at offset " + std::to_string(offset) + ", expected " +
                         std::to_string(expected),
                     op_seq_);
  }
  std::string raw;
  if (!from_hex(request.data, raw)) {
    repl_snap_buffer_.clear();
    repl_snap_offset_ = 0;
    return repl_fail(request, "bad_frame", "snapshot chunk is not valid hex", op_seq_);
  }
  repl_snap_buffer_ += raw;
  repl_snap_offset_ += raw.size();
  if (!request.eof) {
    Response response;
    response.ok = true;
    response.op = "repl_snap";
    response.extra.emplace_back("op_seq", std::to_string(op_seq_));
    return response;
  }

  // Final chunk: parse + install the full state, then persist it as this
  // node's own snapshot so a follower crash recovers locally instead of
  // needing another catch-up.
  std::string blob;
  blob.swap(repl_snap_buffer_);
  repl_snap_offset_ = 0;
  ServiceSnapshot snapshot;
  try {
    snapshot = parse_snapshot(blob, catalog_);
  } catch (const std::exception& e) {
    return repl_fail(request, "bad_frame", std::string("snapshot blob rejected: ") + e.what(),
                     op_seq_);
  }
  if (snapshot.datacenter->pm_count() != dc_.pm_count()) {
    return repl_fail(request, "bad_frame",
                     "snapshot fleet size " + std::to_string(snapshot.datacenter->pm_count()) +
                         " does not match this follower's " + std::to_string(dc_.pm_count()),
                     op_seq_);
  }
  dc_ = std::move(*snapshot.datacenter);
  admission_ = std::move(snapshot.admission);
  group_dir_ = std::move(snapshot.groups);
  op_seq_ = snapshot.last_op_seq;
  m_.repl_snapshots_in->inc();
  const IoStatus status = take_snapshot();
  if (!status.ok()) {
    enter_degraded(status);
    return repl_fail(request, "degraded_storage",
                     "installed state could not be persisted: " + status.message(), op_seq_);
  }
  Response response;
  response.ok = true;
  response.op = "repl_snap";
  response.extra.emplace_back("op_seq", std::to_string(op_seq_));
  return response;
}

Response PlacementService::apply_repl_frames(const Request& request) {
  std::string raw;
  std::vector<WalRecord> records;
  std::vector<std::size_t> offsets;
  if (!from_hex(request.data, raw) || !decode_wal_frames(raw, records, &offsets)) {
    return repl_fail(request, "bad_frame", "frame batch failed hex/CRC decode", op_seq_);
  }
  // Skip the already-applied prefix (snapshot/stream overlap), apply the
  // contiguous continuation, then re-append that run's validated raw bytes
  // to this node's WAL in ONE splice — no per-record re-encode, and byte
  // identity with the leader's log falls out by construction.
  std::size_t i = 0;
  while (i < records.size() && records[i].op_seq <= op_seq_) ++i;
  const std::size_t first = i;
  std::uint64_t gap_seq = 0;
  for (; i < records.size(); ++i) {
    if (records[i].op_seq != op_seq_ + 1) {
      gap_seq = records[i].op_seq;
      break;
    }
    apply_wal_record(records[i]);
    op_seq_ = records[i].op_seq;
    m_.repl_applied->inc();
  }
  const std::size_t limit = i;
  if (limit > first && wal_ != nullptr) {
    const std::size_t end = limit < offsets.size() ? offsets[limit] : raw.size();
    batch_wal_bytes_ += wal_->append_frames(
        std::string_view(raw).substr(offsets[first], end - offsets[first]),
        limit - first);
    m_.wal_appends->add(limit - first);
    wal_dirty_ = true;
  }
  if (gap_seq != 0) {
    // The applied-and-logged prefix is fine — it is exactly the contiguous
    // continuation of this node's history. The leader resyncs the rest via
    // snapshot catch-up.
    return repl_fail(request, "repl_gap",
                     "frame op_seq " + std::to_string(gap_seq) + " leaves a gap after " +
                         std::to_string(op_seq_),
                     op_seq_);
  }
  Response response;
  response.ok = true;
  response.op = "repl_frames";
  response.extra.emplace_back("op_seq", std::to_string(op_seq_));
  return response;
}

Response PlacementService::promote_response(const Request& request) {
  if (!follower_.load(std::memory_order_relaxed)) {
    return reject(request, RejectReason::kNotFollower,
                  "this node is already a leader; promote applies to followers only");
  }
  if (request.seq.has_value() && *request.seq > op_seq_) {
    return repl_fail(request, "repl_lag",
                     "follower is at op_seq " + std::to_string(op_seq_) +
                         ", promotion requires " + std::to_string(*request.seq),
                     op_seq_);
  }
  follower_.store(false, std::memory_order_relaxed);
  m_.promotions->inc();
  Response response;
  response.ok = true;
  response.op = "promote";
  response.extra.emplace_back("op_seq", std::to_string(op_seq_));
  response.extra.emplace_back("role", json_quote("leader"));
  response.extra.emplace_back("state_digest",
                              json_quote(std::to_string(datacenter_state_digest(dc_))));
  return response;
}

Response PlacementService::not_leader_reject(const Request& request) const {
  Response response = reject(request, RejectReason::kNotLeader,
                             "this node is a replication follower; send writes to the leader");
  if (!config_.repl.leader_hint.empty()) {
    response.extra.emplace_back("leader", json_quote(config_.repl.leader_hint));
  }
  return response;
}

void PlacementService::demote_unreplicated(Response& response) const {
  if (!response.ok) return;
  if (response.op != "place" && response.op != "release" && response.op != "migrate" &&
      response.op != "gres" && response.op != "gcommit" && response.op != "gabort") {
    return;
  }
  m_.reject_by_reason[static_cast<std::size_t>(RejectReason::kNotReplicated)]->inc();
  Response demoted;
  demoted.ok = false;
  demoted.op = response.op;
  demoted.vm = response.vm;
  demoted.error = to_string(RejectReason::kNotReplicated);
  demoted.message =
      "replication quorum not met; the op is applied and locally durable on this leader";
  demoted.retry_after_ms = config_.retry_after_ms;
  response = std::move(demoted);
}

bool PlacementService::replicate_frames(const std::string& frames, std::uint64_t last_seq) {
  if (repl_ == nullptr) return true;
  const std::size_t need = config_.repl.ack_replicas;
  const std::size_t acked = repl_->replicate(frames, last_seq, need > 0);
  return need == 0 || acked >= need;
}

void PlacementService::maybe_send_catchup_snapshot() {
  if (repl_ == nullptr || !repl_->needs_snapshot()) return;
  // Quiesce the flusher first so the serialized state covers only locally
  // durable ops — a follower must never hold an op this leader could still
  // demote on a failed flush.
  flusher_barrier();
  if (flush_failed_.load(std::memory_order_acquire)) return;
  repl_->send_snapshot(serialize_snapshot(dc_, admission_, group_dir_, op_seq_), op_seq_);
}

Response PlacementService::health_response() {
  Response response;
  response.ok = true;
  response.op = "health";
  std::size_t queue_depth = 0;
  bool draining_now = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_depth = queue_.size();
    draining_now = draining_;
  }
  const bool degraded_now = degraded_.load(std::memory_order_relaxed);
  const char* mode = degraded_now ? "degraded" : (draining_now ? "draining" : "ok");
  // Keep the gauges honest even when nobody scrapes between batches.
  m_.mode->set(degraded_now ? 2 : (draining_now ? 1 : 0));
  m_.queue_depth->set(static_cast<std::int64_t>(queue_depth));
  m_.wal_lag->set(static_cast<std::int64_t>(op_seq_ - snapshot_op_seq_));
  response.extra.emplace_back("mode", json_quote(mode));
  // Deployment identity: multi-cell members report their cell id; a
  // standalone daemon reports the default (cell 0, role "single").
  // Replication overrides: a follower says so (routers/failover probes key
  // off this), and a replicating or promoted node reports "leader".
  const bool follower_now = follower_.load(std::memory_order_relaxed);
  const bool repl_leader = repl_ != nullptr || (config_.repl.follower && !follower_now);
  const char* role = follower_now            ? "follower"
                     : repl_leader           ? "leader"
                     : config_.cell_id.has_value() ? "cell"
                                                   : "single";
  response.extra.emplace_back("cell_id", std::to_string(config_.cell_id.value_or(0)));
  response.extra.emplace_back("role", json_quote(role));
  if (follower_now && !config_.repl.leader_hint.empty()) {
    response.extra.emplace_back("leader", json_quote(config_.repl.leader_hint));
  }
  if (repl_ != nullptr) {
    response.extra.emplace_back("repl_links", std::to_string(repl_->link_count()));
    response.extra.emplace_back("repl_streaming", std::to_string(repl_->streaming_links()));
  }
  response.extra.emplace_back("queue_depth", std::to_string(queue_depth));
  // Ops acknowledged since the last durable snapshot = replay work a crash
  // right now would need (and the WAL bytes a degraded disk is holding up).
  response.extra.emplace_back("wal_lag", std::to_string(op_seq_ - snapshot_op_seq_));
  response.extra.emplace_back("op_seq", std::to_string(op_seq_));
  response.extra.emplace_back("degraded_entries",
                              std::to_string(m_.degraded_transitions->value()));
  response.extra.emplace_back("storage_probes", std::to_string(m_.probes->value()));
  response.extra.emplace_back("io_errors", std::to_string(m_.io_errors->value()));
  response.extra.emplace_back("last_error", json_quote(last_io_error_));
  response.extra.emplace_back(
      "rebalance", json_quote(planner_ != nullptr ? planner_->state_name() : "off"));
  response.extra.emplace_back(
      "rebalance_last_moves",
      std::to_string(planner_ != nullptr ? planner_->last_round_moves() : 0));
  if (degraded_now) response.retry_after_ms = config_.degraded_retry_after_ms;
  return response;
}

Response PlacementService::util_response(const Request& request) const {
  Response response;
  response.op = "util";
  if (request.pm.has_value()) {
    // Bounds come from the map (fixed at construction), not dc_ — this runs
    // on connection threads and must never race the worker's ledger.
    if (*request.pm >= util_map_->pm_count()) {
      response.ok = false;
      response.error = "bad_field";
      response.message = "pm index out of range";
      return response;
    }
    util_map_->record_pm(static_cast<PmIndex>(*request.pm), request.cpu, obs::now_ns());
  } else {
    if (!util_map_->record_vm(static_cast<VmId>(request.vm_id), request.cpu,
                              obs::now_ns())) {
      m_.util_dropped->inc();
    }
    response.vm = request.vm_id;
  }
  m_.util_samples->inc();
  m_.util_sample_pct->record(
      static_cast<std::uint64_t>(std::lround(std::max(0.0, request.cpu) * 100.0)));
  response.ok = true;
  return response;
}

Response PlacementService::rebalance_response(const Request& request) const {
  Response response;
  response.op = "rebalance";
  const bool status_only = request.action.empty() || request.action == "status";
  if (planner_ == nullptr) {
    if (status_only) {
      response.ok = true;
      response.extra.emplace_back("state", json_quote("off"));
      return response;
    }
    response.ok = false;
    response.error = "rebalance_disabled";
    response.message = "daemon started without --rebalance";
    return response;
  }
  if (request.action == "pause") planner_->pause();
  else if (request.action == "resume") planner_->resume();
  else if (request.action == "trigger") planner_->trigger();
  const RebalanceStatus st = planner_->status();
  response.ok = true;
  response.extra.emplace_back("state", json_quote(st.state));
  response.extra.emplace_back("rounds", std::to_string(st.rounds));
  response.extra.emplace_back("last_round_moves", std::to_string(st.last_round_moves));
  response.extra.emplace_back("total_moves", std::to_string(st.total_moves));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", config_.rebalance.overload_threshold);
  response.extra.emplace_back("overload", buf);
  std::snprintf(buf, sizeof(buf), "%g", config_.rebalance.underload_threshold);
  response.extra.emplace_back("underload", buf);
  response.extra.emplace_back("max_moves",
                              std::to_string(config_.rebalance.max_moves_per_round));
  return response;
}

Response PlacementService::rebalance_scan_response(const Request& request) {
  Response response;
  response.op = "rebalance_scan";
  if (request.scan_sink == nullptr) {
    response.ok = false;
    response.error = "bad_field";
    response.message = "rebalance_scan without a sink";
    return response;
  }
  // Worker thread owns dc_, so this copy is a consistent frozen snapshot.
  request.scan_sink->leader = !follower_.load(std::memory_order_relaxed);
  request.scan_sink->degraded = degraded_.load(std::memory_order_relaxed);
  request.scan_sink->dc = dc_;
  response.ok = true;
  return response;
}

Response PlacementService::stats_response() {
  Response response;
  response.ok = true;
  response.op = "stats";
  const auto add = [&response](const char* key, std::uint64_t value) {
    response.extra.emplace_back(key, std::to_string(value));
  };
  add("used_pms", dc_.used_count());
  add("pm_count", dc_.pm_count());
  add("vm_count", dc_.vm_count());
  add("placed", m_.placed->value());
  add("released", m_.released->value());
  add("migrated", m_.migrated->value());
  add("rejected", m_.rejected->value());
  add("queue_rejected", m_.queue_rejected->value());
  add("batches", m_.batches->value());
  add("max_batch", max_batch_seen_);
  add("snapshots", m_.snapshots->value());
  add("replayed_records", m_.replayed_records->value());
  add("op_seq", op_seq_);
  add("group_members", group_dir_.member_count());
  add("group_pending", group_dir_.pending_count());
  // 64-bit digest goes out as a string: JSON numbers lose precision > 2^53.
  response.extra.emplace_back("state_digest",
                              json_quote(std::to_string(datacenter_state_digest(dc_))));
  response.extra.emplace_back("recovered", recovered_ ? "true" : "false");
  response.extra.emplace_back("wal_torn_tail", wal_torn_tail_ ? "true" : "false");
  response.extra.emplace_back("wal_tail", json_quote(to_string(wal_tail_)));
  response.extra.emplace_back(
      "role", json_quote(follower_.load(std::memory_order_relaxed) ? "follower" : "leader"));
  response.extra.emplace_back("draining", draining() ? "true" : "false");
  response.extra.emplace_back(
      "mode", json_quote(degraded_.load(std::memory_order_relaxed) ? "degraded" : "ok"));
  add("io_errors", m_.io_errors->value());
  return response;
}

Response PlacementService::metrics_response() {
  Response response;
  response.ok = true;
  response.op = "metrics";
  response.extra.emplace_back("metrics", metrics_->render_json());
  return response;
}

Response PlacementService::drain_response() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  const IoStatus status = take_snapshot();
  Response response;
  response.op = "drain";
  if (status.ok()) {
    response.ok = true;
  } else {
    // Still draining — but tell the client the final snapshot is not down.
    // The per-batch WAL flushes already made every acknowledged op durable,
    // so recovery falls back to snapshot + WAL replay.
    enter_degraded(status);
    response.ok = false;
    response.error = to_string(RejectReason::kDegradedStorage);
    response.message = status.message();
  }
  response.extra.emplace_back("op_seq", std::to_string(op_seq_));
  return response;
}

Response PlacementService::execute_locked(const Request& request) {
  switch (request.op) {
    case RequestOp::kStats: return stats_response();
    case RequestOp::kHealth: return health_response();
    case RequestOp::kMetrics: return metrics_response();
    case RequestOp::kLookup: return lookup(request);
    case RequestOp::kDrain: return drain_response();
    // The handshake is read-only and must work in every mode — a leader
    // probing a degraded follower needs the truthful op_seq to decide
    // between streaming and catch-up.
    case RequestOp::kReplHello: return repl_hello_response(request);
    // Utilization samples and planner control never touch the ledger, and
    // the scan answers truthfully (leader/degraded flags) in every mode so
    // the planner can decide to stand down on its own.
    case RequestOp::kUtil: return util_response(request);
    case RequestOp::kRebalance: return rebalance_response(request);
    case RequestOp::kRebalanceScan: return rebalance_scan_response(request);
    default: break;
  }
  if (draining()) {
    return reject(request, RejectReason::kDraining, "daemon is draining");
  }
  // Promotion changes only the role flag, never storage, so it is legal
  // even while degraded — the promoted leader stays read-only until its
  // disk recovers, exactly like any other degraded leader.
  if (request.op == RequestOp::kPromote) return promote_response(request);
  // Read-only degraded mode: no mutation may happen while its WAL record
  // could not be made durable. Rejecting BEFORE the engine runs keeps the
  // in-memory ledger aligned with what clients were told.
  if (degraded_.load(std::memory_order_relaxed)) {
    return degraded_reject(request);
  }
  if (follower_.load(std::memory_order_relaxed)) {
    switch (request.op) {
      case RequestOp::kReplSnapshot: return apply_repl_snapshot(request);
      case RequestOp::kReplFrames: return apply_repl_frames(request);
      default: return not_leader_reject(request);
    }
  }
  if (request.op == RequestOp::kReplSnapshot || request.op == RequestOp::kReplFrames) {
    return reject(request, RejectReason::kNotFollower,
                  "this node is not a replication follower");
  }
  switch (request.op) {
    case RequestOp::kPlace: return place(request);
    case RequestOp::kRelease: return release(request);
    case RequestOp::kMigrate: return migrate(request);
    case RequestOp::kGroupReserve: return group_reserve(request);
    case RequestOp::kGroupCommit: return group_commit(request);
    case RequestOp::kGroupAbort: return group_abort(request);
    default: break;
  }
  return reject(request, RejectReason::kNone, "unreachable");
}

void PlacementService::note_dirty_pm(PmIndex pm) {
  if (dirty_pm_set_.insert(pm).second) dirty_pms_.push_back(pm);
}

Response PlacementService::execute_noted(const Request& request) {
  // Capture what the op is about to touch BEFORE executing it: a release or
  // migrate erases the VM's group/PM mapping on the way through.
  const VmId vm = static_cast<VmId>(request.vm_id);
  std::optional<PmIndex> pre_pm;
  std::string pre_group;
  if (request.op == RequestOp::kRelease || request.op == RequestOp::kMigrate) {
    pre_pm = dc_.pm_of(vm);
    if (pre_pm.has_value()) pre_group = admission_.group_of(vm);
  }
  const std::size_t used_before = dc_.used_count();

  Response response = execute_locked(request);

  switch (request.op) {
    case RequestOp::kPlace:
      if (response.ok && response.pm.has_value()) {
        note_dirty_pm(static_cast<PmIndex>(*response.pm));
        if (!request.group.empty()) dirty_groups_.insert(request.group);
      }
      break;
    case RequestOp::kRelease:
      if (response.ok && response.pm.has_value()) {
        note_dirty_pm(static_cast<PmIndex>(*response.pm));
        if (!pre_group.empty()) dirty_groups_.insert(pre_group);
      }
      break;
    case RequestOp::kMigrate:
      // Even a FAILED migrate of a placed VM mutates state: the remove +
      // put-back round trip advances the PM's activation sequence. Treat
      // every migrate that found its VM as touching both PMs and (to stay
      // conservative about transient deactivation) the free list.
      if (pre_pm.has_value()) {
        note_dirty_pm(*pre_pm);
        if (response.pm.has_value()) note_dirty_pm(static_cast<PmIndex>(*response.pm));
        if (response.ok && !pre_group.empty()) dirty_groups_.insert(pre_group);
        freelist_changed_ = true;
      }
      break;
    default:
      break;
  }
  if (dc_.used_count() != used_before) freelist_changed_ = true;
  return response;
}

bool PlacementService::validate_speculation(const Request& request, std::size_t vm_type,
                                            const PageRankVm::Speculation& spec) {
  // Anything that changes the serial path's pre-engine verdict first.
  if (degraded_.load(std::memory_order_relaxed) || draining()) return false;
  if (dc_.pm_of(static_cast<VmId>(request.vm_id)).has_value()) return false;
  // A touched group means a changed veto set; recompute rather than reason
  // about it (grouped requests are the rare case).
  if (!request.group.empty() && dirty_groups_.count(request.group) > 0) return false;

  if (spec.activated) {
    // Free-list speculation is exact only while the set of unused PMs is
    // untouched (the serial walk is first-fit in PM index order) and no
    // dirtied used PM gained room for this VM type.
    if (freelist_changed_) return false;
    if (dirty_pm_set_.count(spec.pm) > 0) return false;
    for (const PmIndex q : dirty_pms_) {
      if (!dc_.pm(q).used()) continue;
      if (!request.group.empty() && admission_.group_blocks(request.group, q)) continue;
      if (engine_->placement_score(dc_, q, vm_type).has_value()) return false;
    }
    return true;
  }

  // The winner itself must be untouched: its profile, score and activation
  // sequence are then exactly what the speculation saw. Every PM an earlier
  // commit touched is re-scored live; the speculation stands unless one of
  // them would now beat the winner under the engine's exact ordering
  // (higher score, or equal score with a lower activation sequence —
  // float-for-float the same comparison pick_indexed performs).
  if (dirty_pm_set_.count(spec.pm) > 0) return false;
  for (const PmIndex q : dirty_pms_) {
    if (!dc_.pm(q).used()) continue;
    if (!request.group.empty() && admission_.group_blocks(request.group, q)) continue;
    const std::optional<double> score = engine_->placement_score(dc_, q, vm_type);
    if (!score.has_value()) continue;
    if (*score > spec.score) return false;
    if (*score == spec.score && dc_.activation_seq(q) < spec.act_seq) return false;
  }
  return true;
}

Response PlacementService::commit_speculation(const Request& request, std::size_t vm_type,
                                              const PageRankVm::Speculation& spec) {
  // Mirrors place() beyond the engine call: ledger, admission, WAL record
  // and response are built the same way, so the committed bytes are
  // indistinguishable from the serial path's.
  const VmId vm = static_cast<VmId>(request.vm_id);
  dc_.place(spec.pm, Vm{vm, vm_type}, spec.placement);
  admission_.record_placement(vm, request.group, spec.pm);
  WalRecord record;
  record.type = WalRecord::Type::kPlace;
  record.op_seq = ++op_seq_;
  record.vm = vm;
  record.vm_type = vm_type;
  record.pm = spec.pm;
  record.group = request.group;
  record.assignments = dc_.pm(spec.pm).vms.back().assignments;
  log_record(std::move(record));
  m_.placed->inc();

  note_dirty_pm(spec.pm);
  if (!request.group.empty()) dirty_groups_.insert(request.group);
  if (spec.activated) freelist_changed_ = true;

  Response response;
  response.ok = true;
  response.op = "place";
  response.vm = request.vm_id;
  response.pm = spec.pm;
  return response;
}

void PlacementService::compute_batch(std::vector<Pending>& batch,
                                     std::vector<Response>& responses) {
  dirty_pm_set_.clear();
  dirty_pms_.clear();
  dirty_groups_.clear();
  freelist_changed_ = false;

  // Stage 1: speculate place decisions in parallel against the batch-start
  // ledger. Only plain places of currently-unplaced VMs are worth it — the
  // serial commit below re-checks everything anyway, this filter just
  // avoids speculating ops that are certain to be recomputed.
  spec_indices_.clear();
  const bool parallel = !spec_engines_.empty() &&
                        !degraded_.load(std::memory_order_relaxed) && !draining();
  if (parallel) {
    proposals_.assign(batch.size(), Proposal{});
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Request& request = batch[i].request;
      if (request.op != RequestOp::kPlace) continue;
      const std::optional<std::size_t> vm_type = resolve_vm_type(request);
      if (!vm_type.has_value()) continue;
      if (dc_.pm_of(static_cast<VmId>(request.vm_id)).has_value()) continue;
      proposals_[i].vm_type = *vm_type;
      spec_indices_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  if (spec_indices_.size() > 1) {
    m_.spec_attempts->add(spec_indices_.size());
    const std::size_t parts = std::min(spec_engines_.size(), spec_indices_.size());
    WorkerPool::shared().parallel_for(
        0, parts,
        [&](std::size_t p) {
          const std::size_t lo = spec_indices_.size() * p / parts;
          const std::size_t hi = spec_indices_.size() * (p + 1) / parts;
          PageRankVm& engine = *spec_engines_[p];
          for (std::size_t k = lo; k < hi; ++k) {
            Proposal& proposal = proposals_[spec_indices_[k]];
            const Request& request = batch[spec_indices_[k]].request;
            const obs::ScopedTimerNs timer(*m_.place_compute_ns);
            auto spec = engine.speculate(dc_, Vm{static_cast<VmId>(request.vm_id),
                                                 proposal.vm_type},
                                         admission_.constraints_for(request.group));
            if (spec.has_value()) {
              proposal.kind = spec->activated ? Proposal::Kind::kActivate
                                              : Proposal::Kind::kPick;
              proposal.spec = std::move(*spec);
            }
          }
          m_.partition_size->record(hi - lo);
        },
        1, static_cast<unsigned>(parts));
  }

  // Stage 2: serial commit in arrival order. Valid speculations are applied
  // verbatim; everything else goes through the serial engine, with its
  // writes recorded in the conflict sets for later validations.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& request = batch[i].request;
    const bool speculated =
        spec_indices_.size() > 1 && proposals_[i].kind != Proposal::Kind::kNone;
    if (speculated && validate_speculation(request, proposals_[i].vm_type, proposals_[i].spec)) {
      m_.spec_commits->inc();
      responses.push_back(commit_speculation(request, proposals_[i].vm_type, proposals_[i].spec));
    } else {
      if (speculated) m_.spec_conflicts->inc();
      responses.push_back(execute_noted(request));
    }
  }
}

Response PlacementService::execute(const Request& request) {
  maybe_probe_storage();
  Response response = execute_locked(request);
  if (wal_ != nullptr && wal_dirty_) {
    const IoStatus status = flush_wal();
    if (!status.ok()) {
      enter_degraded(status);
      demote_unlogged(response, last_io_error_);
    }
  }
  if (repl_ != nullptr) {
    if (!degraded_.load(std::memory_order_relaxed)) {
      if (!replicate_frames(batch_repl_frames_, op_seq_)) demote_unreplicated(response);
      maybe_send_catchup_snapshot();
    }
    batch_repl_frames_.clear();
  }
  return response;
}

std::future<Response> PlacementService::submit(Request request) {
  // Utilization samples and planner control touch only lock-free state, so
  // answer them right here on the connection thread: a 10Hz-per-PM feed must
  // never compete with placements for queue slots or worker time. The
  // internal rebalance_scan is the exception — it reads the ledger, so it
  // queues like any mutation.
  if (request.op == RequestOp::kUtil || request.op == RequestOp::kRebalance) {
    std::promise<Response> promise;
    promise.set_value(request.op == RequestOp::kUtil ? util_response(request)
                                                     : rebalance_response(request));
    return promise.get_future();
  }
  // Pre-decode on the submitting (connection) thread: resolve a textual VM
  // type to its catalog index here so the worker's hot loop never touches
  // the name map. The map is immutable after construction, so concurrent
  // lookups are safe; unknown names stay unresolved and are rejected by the
  // worker with the exact same error as before.
  if (request.op == RequestOp::kPlace && !request.vm_type_index.has_value()) {
    const auto it = vm_type_by_name_.find(request.vm_type_name);
    if (it != vm_type_by_name_.end()) request.vm_type_index = it->second;
  }
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!draining_ && !stop_ && queue_.size() < config_.queue_capacity) {
      queue_.push_back(Pending{std::move(request), std::move(promise), obs::now_ns()});
      cv_.notify_one();
      return future;
    }
    if (draining_ || stop_) {
      promise.set_value(reject(request, RejectReason::kDraining, "daemon is draining"));
      return future;
    }
    m_.queue_rejected->inc();
  }
  Response response = reject(request, RejectReason::kQueueFull, "request queue is full");
  response.retry_after_ms = config_.retry_after_ms;
  promise.set_value(std::move(response));
  return future;
}

void PlacementService::start_flusher() {
  if (config_.flush_group_max == 0 || wal_ == nullptr) return;
  if (flusher_running_) return;
  flusher_stop_ = false;
  flusher_running_ = true;
  flusher_ = std::thread([this] { flusher_loop(); });
}

void PlacementService::stop_flusher() {
  if (!flusher_running_) return;
  {
    std::lock_guard<std::mutex> lock(flush_mu_);
    flusher_stop_ = true;
  }
  flush_cv_.notify_one();
  flusher_.join();
  flusher_running_ = false;
  flusher_stop_ = false;
}

void PlacementService::flusher_barrier() {
  if (!flusher_running_) return;
  std::unique_lock<std::mutex> lock(flush_mu_);
  flush_idle_cv_.wait(lock, [this] { return flush_queue_.empty() && !flusher_busy_; });
}

void PlacementService::flusher_loop() {
  std::vector<FlushGroup> covered;
  while (true) {
    covered.clear();
    std::size_t ops = 0;
    std::size_t bytes = 0;
    {
      std::unique_lock<std::mutex> lock(flush_mu_);
      flush_cv_.wait(lock, [this] { return flusher_stop_ || !flush_queue_.empty(); });
      if (flush_queue_.empty() && flusher_stop_) return;
      // Coalesce adjacent groups up to the cap; the first group is always
      // taken whole (the constructor guarantees a full batch fits).
      while (!flush_queue_.empty() &&
             (covered.empty() || ops + flush_queue_.front().batch.size() <=
                                     config_.flush_group_max)) {
        ops += flush_queue_.front().batch.size();
        bytes += flush_queue_.front().wal_bytes;
        covered.push_back(std::move(flush_queue_.front()));
        flush_queue_.pop_front();
      }
      flusher_busy_ = true;
    }

    // One fsync covers every op of every coalesced group. After a failure
    // the flusher stops touching the device — the worker drives probes and
    // recovery — and every group still in flight is demoted truthfully.
    std::string failure;
    if (!flush_failed_.load(std::memory_order_acquire)) {
      if (bytes > 0) {
        const obs::ScopedTimerNs timer(*m_.wal_flush_ns);
        const IoStatus status = wal_->flush(bytes);
        if (!status.ok()) {
          {
            std::lock_guard<std::mutex> lock(flush_mu_);
            flusher_status_ = status;
          }
          failure = status.message();
          flush_failed_.store(true, std::memory_order_release);
        }
      }
    } else {
      std::lock_guard<std::mutex> lock(flush_mu_);
      failure = flusher_status_.message();
    }
    m_.flush_groups->inc();
    m_.flush_group_ops->record(ops);

    // Replication rides the flusher: stream the (now locally durable)
    // frames of every coalesced group in one call, then — when an ack
    // quorum is configured — hold the client acks until enough followers
    // confirmed, demoting truthfully on a shortfall.
    bool replicated = true;
    if (repl_ != nullptr && failure.empty() && !covered.empty()) {
      std::string frames;
      for (const FlushGroup& group : covered) frames += group.repl_frames;
      replicated = replicate_frames(frames, covered.back().last_seq);
    }

    const std::uint64_t acked_ns = obs::now_ns();
    for (FlushGroup& group : covered) {
      m_.flush_lag_ns->record(acked_ns > group.computed_ns ? acked_ns - group.computed_ns : 0);
      for (std::size_t i = 0; i < group.batch.size(); ++i) {
        if (!failure.empty()) {
          demote_unlogged(group.responses[i], failure);
        } else if (!replicated) {
          demote_unreplicated(group.responses[i]);
        }
        group.batch[i].promise.set_value(std::move(group.responses[i]));
      }
    }

    std::size_t depth = 0;
    {
      std::lock_guard<std::mutex> lock(flush_mu_);
      flusher_busy_ = false;
      depth = flush_queue_.size();
      if (flush_queue_.empty()) flush_idle_cv_.notify_all();
    }
    m_.flush_queue_depth->set(static_cast<std::int64_t>(depth));
  }
}

void PlacementService::start() {
  start_flusher();  // before the worker exists: worker reads flusher_running_ locklessly
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (worker_running_) return;
    stop_ = false;
    worker_running_ = true;
    worker_ = std::thread([this] { worker_loop(); });
  }
  // The planner scans through the request queue, so it only runs while the
  // worker does (start() is idempotent and so is planner start()).
  if (planner_ != nullptr) planner_->start();
}

void PlacementService::worker_loop() {
  std::vector<Pending> batch;
  batch.reserve(config_.batch_size);
  std::vector<Response> responses;
  responses.reserve(config_.batch_size);

  // Establish replication links before traffic; a follower that is behind
  // gets its catch-up snapshot now rather than on the first flush.
  if (repl_ != nullptr) {
    repl_->connect_all(op_seq_);
    maybe_send_catchup_snapshot();
  }

  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!degraded_.load(std::memory_order_relaxed)) {
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      } else {
        // While degraded the worker must wake up without traffic to probe
        // storage — sleep only until the next backoff deadline.
        const std::uint64_t now = io_->now_ms();
        const std::uint64_t wait_ms = next_probe_at_ms_ > now ? next_probe_at_ms_ - now : 1;
        cv_.wait_for(lock, std::chrono::milliseconds(wait_ms),
                     [this] { return stop_ || !queue_.empty(); });
      }
      if (stop_) break;
      const std::size_t take = std::min(config_.batch_size, queue_.size());
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      m_.queue_depth->set(static_cast<std::int64_t>(queue_.size()));
    }

    // One clock read covers the whole batch (queue wait is dominated by the
    // time spent queued, not the pop loop above).
    if (!batch.empty()) {
      const std::uint64_t now = obs::now_ns();
      for (const Pending& pending : batch) {
        m_.queue_wait_ns->record(now > pending.enqueued_ns ? now - pending.enqueued_ns : 0);
      }
    }

    // A group flush failed since the last pass: let the flusher finish
    // demoting what it still holds, then take its status as the
    // degraded-mode trigger (same transition an inline flush failure makes).
    if (flush_failed_.load(std::memory_order_acquire) &&
        !degraded_.load(std::memory_order_relaxed)) {
      flusher_barrier();
      IoStatus status;
      {
        std::lock_guard<std::mutex> lock(flush_mu_);
        status = flusher_status_;
      }
      enter_degraded(status);
    }

    maybe_probe_storage();

    // A link parked itself (gap, follower restart, rejection) since the
    // last pass: only this thread may serialize the authoritative state.
    if (repl_ != nullptr && !degraded_.load(std::memory_order_relaxed)) {
      maybe_send_catchup_snapshot();
    }

    if (batch.empty()) {  // degraded-mode probe wakeup with no traffic
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty()) drained_cv_.notify_all();
      continue;
    }

    responses.clear();
    compute_batch(batch, responses);
    const std::size_t batch_count = batch.size();
    // Durability barrier: every decision of this batch hits the log BEFORE
    // any acknowledgement leaves. Pipelined, the flusher owns that barrier:
    // it flushes the group's frames (coalescing neighbors) and only then
    // resolves the promises, while this thread already computes the next
    // batch. Inline (no flusher, or degraded), flush-then-ack happens right
    // here; a failed flush demotes the would-be acks and suspends writes.
    const bool pipelined = flusher_running_ && !degraded_.load(std::memory_order_relaxed);
    if (pipelined) {
      FlushGroup group;
      group.batch = std::move(batch);
      group.responses = std::move(responses);
      group.wal_bytes = batch_wal_bytes_;
      group.computed_ns = obs::now_ns();
      group.repl_frames = std::move(batch_repl_frames_);
      group.last_seq = op_seq_;
      batch_wal_bytes_ = 0;
      batch_repl_frames_.clear();
      std::size_t depth = 0;
      {
        std::lock_guard<std::mutex> lock(flush_mu_);
        flush_queue_.push_back(std::move(group));
        depth = flush_queue_.size();
      }
      m_.flush_queue_depth->set(static_cast<std::int64_t>(depth));
      flush_cv_.notify_one();
    } else {
      if (wal_ != nullptr && wal_dirty_) {
        const IoStatus status = flush_wal();
        if (!status.ok()) {
          enter_degraded(status);
          for (Response& response : responses) demote_unlogged(response, last_io_error_);
        }
      }
      batch_wal_bytes_ = 0;
      if (repl_ != nullptr) {
        if (!degraded_.load(std::memory_order_relaxed) &&
            !replicate_frames(batch_repl_frames_, op_seq_)) {
          for (Response& response : responses) demote_unreplicated(response);
        }
        batch_repl_frames_.clear();
      }
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i].promise.set_value(std::move(responses[i]));
      }
    }
    m_.batches->inc();
    m_.batch_size->record(batch_count);
    m_.max_batch->set_max(static_cast<std::int64_t>(batch_count));
    max_batch_seen_ = std::max<std::uint64_t>(max_batch_seen_, batch_count);
    m_.wal_lag->set(static_cast<std::int64_t>(op_seq_ - snapshot_op_seq_));
    batch.clear();
    responses.clear();

    if (config_.snapshot_every_ops > 0 && !degraded_.load(std::memory_order_relaxed) &&
        op_seq_ - snapshot_op_seq_ >= config_.snapshot_every_ops) {
      const IoStatus status = take_snapshot();
      if (!status.ok()) enter_degraded(status);
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty()) drained_cv_.notify_all();
    }
  }

  // Fail whatever is still queued (hard stop path).
  std::deque<Pending> leftover;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftover.swap(queue_);
    drained_cv_.notify_all();
  }
  for (Pending& pending : leftover) {
    pending.promise.set_value(
        reject(pending.request, RejectReason::kDraining, "daemon stopped"));
  }
}

void PlacementService::drain() {
  // Planner first, while the worker is still alive: its in-flight round gets
  // real answers (or a truthful draining rejection) instead of a futures
  // deadlock against a worker that already exited.
  if (planner_ != nullptr) planner_->stop();
  {
    std::unique_lock<std::mutex> lock(mu_);
    draining_ = true;
    if (worker_running_) {
      drained_cv_.wait(lock, [this] { return queue_.empty(); });
      stop_ = true;
      cv_.notify_all();
    }
  }
  if (worker_.joinable()) worker_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    worker_running_ = false;
  }
  // The flusher still holds the tail of the pipeline: flush and ack those
  // groups (the acks are truthful — stop_flusher only returns once every
  // queued group hit the device or was demoted) before the final snapshot.
  stop_flusher();
  // Best effort: if the final snapshot fails, the per-batch WAL flushes
  // already cover every acknowledged op, so the next boot replays instead
  // of starting from the snapshot alone.
  const IoStatus status = take_snapshot();
  if (!status.ok()) enter_degraded(status);
}

void PlacementService::stop_now() {
  if (planner_ != nullptr) planner_->stop();  // same ordering as drain()
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!worker_running_ && !worker_.joinable()) return;
    stop_ = true;
    draining_ = true;
    cv_.notify_all();
  }
  if (worker_.joinable()) worker_.join();
  stop_flusher();  // drains + acks (or demotes) whatever the worker handed off
  std::lock_guard<std::mutex> lock(mu_);
  worker_running_ = false;
}

ServiceStats PlacementService::stats() const {
  // Counters live in the registry (atomic, readable any time); the plain
  // members are worker-owned, so this copy is only guaranteed consistent
  // when the worker is stopped (tests) or via the in-band stats op.
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats copy;
  copy.placed = m_.placed->value();
  copy.released = m_.released->value();
  copy.migrated = m_.migrated->value();
  copy.rejected = m_.rejected->value();
  copy.queue_rejected = m_.queue_rejected->value();
  copy.batches = m_.batches->value();
  copy.max_batch = max_batch_seen_;
  copy.snapshots = m_.snapshots->value();
  copy.replayed_records = m_.replayed_records->value();
  copy.op_seq = op_seq_;
  copy.recovered = recovered_;
  copy.wal_torn_tail = wal_torn_tail_;
  copy.wal_tail = wal_tail_;
  copy.follower = follower_.load(std::memory_order_relaxed);
  copy.degraded = degraded_.load(std::memory_order_relaxed);
  copy.degraded_entries = m_.degraded_transitions->value();
  copy.storage_probes = m_.probes->value();
  copy.io_errors = m_.io_errors->value();
  copy.last_io_error = last_io_error_;
  return copy;
}

bool PlacementService::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

bool PlacementService::degraded() const { return degraded_.load(std::memory_order_relaxed); }

}  // namespace prvm
