#include "trace.hpp"

#include <fstream>
#include <string>

#include "obs/metrics.hpp"

namespace bench {

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kGraphBuild: return "core.graph_build";
    case SpanName::kTableBuild: return "core.table_build";
    case SpanName::kServiceStart: return "service.start";
    case SpanName::kSubmitToAck: return "service.submit_to_ack";
    case SpanName::kEngineFillPlace: return "placement.fill_place";
    case SpanName::kEnginePlace: return "placement.place";
    case SpanName::kEngineReject: return "placement.reject";
    case SpanName::kRemove: return "cluster.remove";
    case SpanName::kWalRead: return "wal.read";
    case SpanName::kRecover: return "service.recover";
    case SpanName::kJsonDecode: return "codec.json.decode";
    case SpanName::kJsonEncode: return "codec.json.encode";
    case SpanName::kBinDecode: return "codec.bin.decode";
    case SpanName::kBinEncode: return "codec.bin.encode";
    case SpanName::kSocketOp: return "socket.op";
    case SpanName::kSocketUtil: return "socket.util";
    case SpanName::kRouterPlace: return "router.place";
    case SpanName::kRouterGroupedPlace: return "router.grouped_place";
    case SpanName::kRouterLookup: return "router.lookup";
    case SpanName::kCellLookup: return "cells.lookup";
    case SpanName::kCount: break;
  }
  return "?";
}

std::uint32_t SpanBuffer::open(SpanName name, std::uint64_t request, std::uint32_t parent) {
  const std::uint64_t now = prvm::obs::now_ns();
  return add(name, request, now, now, parent);
}

void SpanBuffer::close(std::uint32_t id) {
  if (id < spans_.size()) spans_[id].end_ns = prvm::obs::now_ns();
}

std::uint32_t SpanBuffer::add(SpanName name, std::uint64_t request, std::uint64_t start_ns,
                              std::uint64_t end_ns, std::uint32_t parent) {
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return kNoParent;
  }
  spans_.push_back(Span{start_ns, end_ns, request, parent, name});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

SpanBuffer* Tracer::buffer(std::size_t capacity) {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<SpanBuffer>(capacity));
  return buffers_.back().get();
}

std::vector<double> Tracer::durations_us(SpanName name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans()) {
      if (span.name == name) out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return out;
}

std::vector<double> Tracer::self_us(SpanName name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& buffer : buffers_) {
    const std::vector<Span>& spans = buffer->spans();
    // Children never overlap each other (one thread records them in turn),
    // so the covered part of a parent is the sum of its children.
    std::vector<std::uint64_t> covered(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent < spans.size()) covered[span.parent] += span.end_ns - span.start_ns;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name != name) continue;
      const std::uint64_t total = spans[i].end_ns - spans[i].start_ns;
      const std::uint64_t self = total > covered[i] ? total - covered[i] : 0;
      out.push_back(static_cast<double>(self) / 1e3);
    }
  }
  return out;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->spans().size();
  return n;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->dropped();
  return n;
}

bool Tracer::write(const std::filesystem::path& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << "prvm-spans v1";
  for (std::size_t n = 0; n < static_cast<std::size_t>(SpanName::kCount); ++n) {
    out << ' ' << span_name(static_cast<SpanName>(n));
  }
  out << '\n';
  for (std::size_t k = 0; k < buffers_.size(); ++k) {
    const std::vector<Span>& spans = buffers_[k]->spans();
    out << "buffer " << k << ' ' << spans.size() << '\n';
    for (const Span& span : spans) {
      const std::uint32_t name = static_cast<std::uint32_t>(span.name);
      out.write(reinterpret_cast<const char*>(&span.start_ns), 8);
      out.write(reinterpret_cast<const char*>(&span.end_ns), 8);
      out.write(reinterpret_cast<const char*>(&span.request), 8);
      out.write(reinterpret_cast<const char*>(&span.parent), 4);
      out.write(reinterpret_cast<const char*>(&name), 4);
    }
  }
  return static_cast<bool>(out);
}

}  // namespace bench
