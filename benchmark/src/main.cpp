// prvm_bench — one benchmark of the placement daemon's served path.
//
//   prvm_bench --workload churn-10k|socket-mixed-1k|cells-grouped-4k
//              --seed N --seconds S --trace 0|1 [--smoke] [--corrupt CHECK]
//
// Prints "# " note lines, one "RECORD {...}" line (provenance, workload
// parameters, span file) and, last, the result object
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). A failed correctness check prints "CHECK FAILED: ..." to
// stderr and exits 1 without a result. benchmark/run.py builds this binary
// and is the documented entry point.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using bench::Report;

std::string metrics_json(const std::vector<Report::Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += prvm::json_quote(metrics[i].name) + ": {\"value\": " + value +
           ", \"unit\": " + prvm::json_quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

bool optimized_build() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

std::string provenance_json() {
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
#if defined(__clang__)
  out += ", \"compiler\": " + prvm::json_quote(std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  out += ", \"compiler\": " + prvm::json_quote(std::string("gcc ") + __VERSION__);
#else
  out += ", \"compiler\": \"unknown\"";
#endif
  out += ", \"build_type\": " + prvm::json_quote(PRVM_BENCH_BUILD_TYPE);
  out += ", \"cxx_flags\": " + prvm::json_quote(PRVM_BENCH_CXX_FLAGS);
  out += std::string(", \"optimized\": ") + (optimized_build() ? "true" : "false");
  return out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: prvm_bench --workload churn-10k|socket-mixed-1k|cells-grouped-4k "
               "--seed N --seconds S --trace 0|1 [--smoke] [--corrupt CHECK]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--generator") {
    return bench::run_socket_generator(argv[2]);
  }
  bench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--corrupt" && has_value) {
      options.corrupt = argv[++i];
    } else {
      return usage();
    }
  }
  if (options.workload.empty() || options.seconds <= 0.0) return usage();

  // Everything the run writes stays under the current directory.
  options.run_dir = std::filesystem::path(".bench_run") /
                    (options.workload + "-" + std::to_string(::getpid()));
  options.out_dir = ".bench_out";
  std::filesystem::remove_all(options.run_dir);
  std::filesystem::create_directories(options.run_dir);
  std::filesystem::create_directories(options.out_dir);

  bench::Tracer tracer(options.trace);
  Report report;
  int code = 0;
  try {
    if (options.workload == "churn-10k") {
      bench::run_churn(options, tracer, report);
    } else if (options.workload == "socket-mixed-1k") {
      bench::run_socket_mixed(options, tracer, report);
    } else if (options.workload == "cells-grouped-4k") {
      bench::run_cells_grouped(options, tracer, report);
    } else {
      code = usage();
    }
  } catch (const bench::CheckFailure& failure) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.what());
    code = 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ERROR: %s\n", error.what());
    code = 2;
  }
  std::error_code ec;
  std::filesystem::remove_all(options.run_dir, ec);
  if (code != 0) return code;

  std::string span_file;
  if (tracer.enabled()) {
    const std::filesystem::path path =
        options.out_dir / ("spans-" + options.workload + "-seed" + std::to_string(options.seed) +
                           ".bin");
    if (tracer.write(path)) span_file = path.string();
  }

  for (const std::string& line : report.notes()) std::printf("# %s\n", line.c_str());
  std::string params = "{";
  for (std::size_t i = 0; i < report.params().size(); ++i) {
    if (i > 0) params += ", ";
    params += prvm::json_quote(report.params()[i].first) + ": " + report.params()[i].second;
  }
  params += "}";
  char basis[64];
  std::snprintf(basis, sizeof basis, "%.17g", report.overhead_basis);
  std::printf(
      "RECORD {\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"smoke\": %s, "
      "\"params\": %s, \"provenance\": %s, \"overhead_basis\": {\"name\": %s, \"value\": %s}, "
      "\"spans\": {\"file\": %s, \"count\": %zu, \"dropped\": %llu}}\n",
      prvm::json_quote(options.workload).c_str(), static_cast<unsigned long long>(options.seed),
      options.trace ? 1 : 0, options.smoke ? "true" : "false", params.c_str(),
      provenance_json().c_str(), prvm::json_quote(report.overhead_basis_name).c_str(), basis,
      prvm::json_quote(span_file).c_str(), tracer.span_count(),
      static_cast<unsigned long long>(tracer.dropped()));
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              metrics_json(options.trace ? report.layer_metrics() : report.e2e_metrics()).c_str());
  std::fflush(stdout);
  return 0;
}
