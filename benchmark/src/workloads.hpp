// The three workloads. Each builds its stack from a cold start, drives the
// seeded op stream, checks the outputs (throwing CheckFailure on any
// mismatch) and fills the report: end-to-end metrics always, per-layer
// metrics when the tracer is enabled.
#pragma once

#include "common.hpp"

namespace bench {

/// churn-10k: in-process PlacementService, fill + fixed release/place churn,
/// hard stop and WAL recovery, verified against a bare-engine replay.
void run_churn(const Options& options, Tracer& tracer, Report& report);

/// socket-mixed-1k: SocketServer on a Unix socket, open-loop Poisson
/// arrivals from a separate generator process over one JSON-lines and one
/// PRVB1 connection, on an offered-rate ladder.
void run_socket_mixed(const Options& options, Tracer& tracer, Report& report);

/// The generator process of socket-mixed-1k (spawned by run_socket_mixed
/// as `prvm_bench --generator <plan-file>`). Returns the exit code.
int run_socket_generator(const std::string& plan_path);

/// cells-grouped-4k: Router over two EmbeddedCells with per-cell WALs,
/// closed-loop churn from two threads, 1 placement in 5 grouped.
void run_cells_grouped(const Options& options, Tracer& tracer, Report& report);

}  // namespace bench
