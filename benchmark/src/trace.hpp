// Span recorder for the benchmark's traced runs.
//
// Spans are recorded only by the benchmark, around the calls it makes into
// a layer's public function (nothing inside src/ is instrumented). Each
// thread records into its own preallocated SpanBuffer, so recording is two
// clock reads and a store — no lock, no allocation. Buffers are written out
// once, when the run ends. A span has a name, start and end (steady-clock
// ns), the span that caused it (parent, same buffer) and a request id; its
// self time is its duration minus the part its children cover.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <vector>

namespace bench {

enum class SpanName : std::uint16_t {
  kGraphBuild,         ///< ProfileGraph construction (one PM type)
  kTableBuild,         ///< ScoreTable::build (one PM type)
  kServiceStart,       ///< service/socket/cells construction -> first ack
  kSubmitToAck,        ///< PlacementService::submit -> future resolved
  kEngineFillPlace,    ///< PageRankVm::place during fill (replay)
  kEnginePlace,        ///< PageRankVm::place during churn, accepted (replay)
  kEngineReject,       ///< PageRankVm::place returning no PM (replay)
  kRemove,             ///< Datacenter::remove (replay)
  kWalRead,            ///< read_wal_ex on a copy of the log
  kRecover,            ///< restart over the data dir -> first ack
  kJsonDecode,         ///< parse_request, one batch
  kJsonEncode,         ///< encode_response_into, one batch
  kBinDecode,          ///< parse_binary_request, one batch
  kBinEncode,          ///< encode_binary_response_into, one batch
  kSocketOp,           ///< generator: op due -> response decoded
  kSocketUtil,         ///< generator: util sent -> response decoded
  kRouterPlace,        ///< Router::submit(place) -> ack, ungrouped
  kRouterGroupedPlace, ///< Router::submit(place with group) -> ack
  kRouterLookup,       ///< Router::submit(lookup) -> ack (hop probe)
  kCellLookup,         ///< PlacementService::submit(lookup) -> ack (hop probe)
  kCount
};

const char* span_name(SpanName name);

inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t request = 0;
  std::uint32_t parent = kNoParent;
  SpanName name = SpanName::kCount;
};

/// One thread's span storage, sized up front. Recording past capacity
/// drops the span and counts it.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity) { spans_.reserve(capacity); }

  /// Opens a span starting now; returns its id for close() and children.
  std::uint32_t open(SpanName name, std::uint64_t request = 0,
                     std::uint32_t parent = kNoParent);
  void close(std::uint32_t id);
  /// Records a span whose endpoints were timed elsewhere (e.g. a submit on
  /// this thread whose ack resolved later).
  std::uint32_t add(SpanName name, std::uint64_t request, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint32_t parent = kNoParent);

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Owns every thread's buffer. Disabled tracers hand out null buffers, and
/// every recording helper accepts null, so untraced runs pay one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// A fresh buffer for one thread (null when disabled). Thread-safe.
  SpanBuffer* buffer(std::size_t capacity);

  /// Durations (us) of every span with this name.
  std::vector<double> durations_us(SpanName name) const;
  /// Self times (us): duration minus the time covered by child spans.
  std::vector<double> self_us(SpanName name) const;
  std::size_t span_count() const;
  std::uint64_t dropped() const;

  /// Writes every span: a header line "prvm-spans v1 <names...>", then per
  /// buffer a line "buffer <k> <count>" followed by `count` packed Span
  /// records (32 bytes each, little-endian). False on IO failure.
  bool write(const std::filesystem::path& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

/// RAII span on a possibly-null buffer.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, SpanName name, std::uint64_t request = 0,
             std::uint32_t parent = kNoParent)
      : buffer_(buffer), id_(buffer != nullptr ? buffer->open(name, request, parent) : 0) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t id() const { return buffer_ != nullptr ? id_ : kNoParent; }

 private:
  SpanBuffer* buffer_;
  std::uint32_t id_;
};

}  // namespace bench
