#include "core/score_table.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/check.hpp"
#include "common/worker_pool.hpp"
#include "core/bpru.hpp"

namespace prvm {

namespace {

// FNV-1a, good enough for a cache fingerprint (not security-relevant).
class Fnv {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void mix_double(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// 'R2': the best_ array turned demand-major and node numbering turned
// canonical; R1 caches would deserialize into the wrong layout, so the
// magic bump invalidates them wholesale. 'R3' / image 'I2': the per-demand
// ranked-key arena is gone (I1 images carry its sections, which I2 readers
// would misread as the hash index), so older files are rebuilt.
constexpr char kMagic[8] = {'P', 'R', 'V', 'M', 'S', 'C', 'R', '3'};
constexpr char kImageMagic[8] = {'P', 'R', 'V', 'M', 'S', 'C', 'I', '2'};

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
void read_pod(std::istream& is, T& value) {
  is.read(reinterpret_cast<char*>(&value), sizeof value);
  PRVM_REQUIRE(is.good(), "truncated score-table file");
}

/// Section alignment of the image format: every array starts on a 64-byte
/// boundary so mapped pointers are cache-line (and type-) aligned.
constexpr std::size_t align_up(std::size_t offset) { return (offset + 63) & ~std::size_t{63}; }

}  // namespace

/// An open read-only mapping of an image file; destroyed when the last
/// ScoreTable serving from it goes away.
struct ScoreTable::Image {
  const std::byte* base = nullptr;
  std::size_t length = 0;

  ~Image() {
    if (base != nullptr) {
      ::munmap(const_cast<std::byte*>(base), length);
    }
  }
};

std::string ScoreTable::digest(const ProfileShape& shape,
                               const std::vector<QuantizedDemand>& demands,
                               const ScoreTableOptions& options) {
  Fnv fnv;
  for (const DimensionGroup& g : shape.groups()) {
    fnv.mix(static_cast<std::uint64_t>(g.kind));
    fnv.mix(static_cast<std::uint64_t>(g.count));
    fnv.mix(static_cast<std::uint64_t>(g.capacity));
  }
  fnv.mix(demands.size());
  for (const QuantizedDemand& d : demands) {
    for (const auto& items : d.group_items) {
      fnv.mix(items.size());
      for (int item : items) fnv.mix(static_cast<std::uint64_t>(item));
    }
  }
  fnv.mix_double(options.pagerank.damping);
  fnv.mix_double(options.pagerank.epsilon);
  fnv.mix(static_cast<std::uint64_t>(options.direction));
  fnv.mix(static_cast<std::uint64_t>(options.apply_bpru));
  fnv.mix(static_cast<std::uint64_t>(options.normalize_to_max));
  std::ostringstream os;
  os << std::hex << fnv.value();
  return os.str();
}

ScoreTable ScoreTable::build(const ProfileGraph& graph, const ScoreTableOptions& options) {
  const PageRankResult pr = [&] {
    if (options.direction == VoteDirection::kForwardAsPrinted) {
      return compute_pagerank(graph.graph(), options.pagerank);
    }
    // Reverse every edge and run the identical iteration with the teleport
    // mass pinned on the best reachable profile(s): rank(P) becomes the
    // damped, branching-discounted weight of the paths P -> best — the
    // "convergence of transferring to the best profile" of §V-A.
    Digraph reversed(graph.graph().node_count());
    for (NodeId u = 0; u < graph.graph().node_count(); ++u) {
      for (NodeId v : graph.graph().successors(u)) reversed.add_edge(v, u);
    }
    reversed.finalize();
    // Teleport to the sinks with maximum utilization (the best profile when
    // the VM set can tile the capacity exactly).
    const std::vector<NodeId> sinks = graph.sink_nodes();
    PRVM_CHECK(!sinks.empty(), "a finite profile DAG must have sinks");
    double best_util = 0.0;
    for (NodeId s : sinks) best_util = std::max(best_util, graph.utilization(s));
    std::vector<double> teleport(graph.graph().node_count(), 0.0);
    for (NodeId s : sinks) {
      if (graph.utilization(s) >= best_util - 1e-12) teleport[s] = 1.0;
    }
    return compute_pagerank(reversed, options.pagerank, teleport);
  }();

  std::vector<double> scores = pr.scores;
  if (options.apply_bpru) {
    const std::vector<double> bpru = compute_bpru(graph);
    for (std::size_t i = 0; i < scores.size(); ++i) scores[i] *= bpru[i];
  }
  if (options.normalize_to_max) {
    const double max = *std::max_element(scores.begin(), scores.end());
    if (max > 0.0) {
      for (double& s : scores) s /= max;
    }
  }

  ScoreTable table;
  table.shape_ = graph.shape();
  table.demand_count_ = graph.demands().size();
  table.digest_ = digest(graph.shape(), graph.demands(), options);
  table.iterations_ = pr.iterations;
  table.converged_ = pr.converged;

  const std::size_t n = graph.node_count();
  table.node_count_ = n;
  table.keys_.resize(n);
  table.scores_.resize(n);
  table.index_.reserve(n);
  for (NodeId u = 0; u < n; ++u) {
    table.keys_[u] = graph.key_of(u);
    table.scores_[u] = static_cast<float>(scores[u]);
    table.index_.try_emplace(table.keys_[u], u);
  }

  table.best_.assign(n * table.demand_count_, BestEntry{});
  for (std::size_t t = 0; t < table.demand_count_; ++t) table.fill_demand_block(graph, t);
  return table;
}

ScoreTable ScoreTable::extend(const ScoreTable& base, const ProfileGraph& graph,
                              bool graph_changed, const ScoreTableOptions& options) {
  if (graph_changed) {
    // New nodes or edges change the PageRank mass distribution, so every
    // score is stale: full recompute (the graph itself was still grown
    // incrementally, which is where the BFS savings live).
    return build(graph, options);
  }
  PRVM_REQUIRE(base.shape_ == graph.shape(), "extend: shape mismatch");
  PRVM_REQUIRE(base.node_count_ == graph.node_count(),
               "extend: node count mismatch for an unchanged graph");
  PRVM_REQUIRE(graph.demands().size() >= base.demand_count_,
               "extend: demand list shrank");

  // Same graph + same options => PageRank, BPRU and normalization are
  // untouched: node keys and scores carry over verbatim, and the old demand
  // blocks are already exactly what a fresh build would compute. Only the
  // appended demand blocks need work.
  ScoreTable table;
  table.shape_ = graph.shape();
  table.node_count_ = base.node_count_;
  table.demand_count_ = graph.demands().size();
  table.digest_ = digest(graph.shape(), graph.demands(), options);
  table.iterations_ = base.iterations_;
  table.converged_ = base.converged_;

  const std::size_t n = base.node_count_;
  table.keys_.assign(base.keys_data(), base.keys_data() + n);
  for (NodeId u = 0; u < n; ++u) {
    PRVM_REQUIRE(table.keys_[u] == graph.key_of(u),
                 "extend: base table and graph disagree on node numbering");
  }
  table.scores_.assign(base.scores_data(), base.scores_data() + n);
  table.index_.reserve(n);
  for (NodeId u = 0; u < n; ++u) table.index_.try_emplace(table.keys_[u], u);

  table.best_.assign(n * table.demand_count_, BestEntry{});
  std::memcpy(table.best_.data(), base.best_data(),
              n * base.demand_count_ * sizeof(BestEntry));
  for (std::size_t t = base.demand_count_; t < table.demand_count_; ++t) {
    table.fill_demand_block(graph, t);
  }
  return table;
}

void ScoreTable::fill_demand_block(const ProfileGraph& graph, std::size_t t) {
  // Best-successor pass for one VM type: the highest-scoring canonical
  // outcome across anti-collocation permutations. Embarrassingly parallel
  // over nodes; comparisons run on the stored float scores so build and
  // extend make bit-identical choices.
  BestEntry* row = best_.data() + t * node_count_;
  const float* scores = scores_.data();
  auto work = [&, row, scores](std::size_t u) {
    BestEntry entry;
    for (NodeId v : graph.successors_for_demand(static_cast<NodeId>(u), t)) {
      const float s = scores[v];
      if (entry.successor == kNoFit || s > entry.score) {
        entry.score = s;
        entry.successor = v;
      }
    }
    row[u] = entry;
  };
  if (node_count_ < 256) {
    for (std::size_t u = 0; u < node_count_; ++u) work(u);
  } else {
    WorkerPool::shared().parallel_for(0, node_count_, work);
  }
}

std::span<const ScoreTable::BestEntry> ScoreTable::best_row(std::size_t demand_index) const {
  PRVM_REQUIRE(demand_index < demand_count_, "demand index out of range");
  return {best_data() + demand_index * node_count_, node_count_};
}

std::optional<double> ScoreTable::find(ProfileKey key) const {
  const NodeId* node = index_find(key);
  if (node == nullptr) return std::nullopt;
  return static_cast<double>(scores_data()[*node]);
}

std::optional<NodeId> ScoreTable::node_of(ProfileKey key) const {
  const NodeId* node = index_find(key);
  if (node == nullptr) return std::nullopt;
  return *node;
}

std::optional<ScoreTable::Best> ScoreTable::best_after_node(NodeId node,
                                                            std::size_t demand_index) const {
  PRVM_REQUIRE(demand_index < demand_count_, "demand index out of range");
  PRVM_REQUIRE(node < node_count_, "node out of range");
  const BestEntry& entry = best_data()[demand_index * node_count_ + node];
  if (entry.successor == kNoFit) return std::nullopt;
  return Best{static_cast<double>(entry.score), keys_data()[entry.successor]};
}

double ScoreTable::score(ProfileKey key) const {
  const auto s = find(key);
  PRVM_REQUIRE(s.has_value(), "profile not present in score table");
  return *s;
}

std::optional<ScoreTable::Best> ScoreTable::best_after(ProfileKey current,
                                                       std::size_t demand_index) const {
  PRVM_REQUIRE(demand_index < demand_count_, "demand index out of range");
  const NodeId* node = index_find(current);
  PRVM_REQUIRE(node != nullptr, "profile not present in score table");
  const BestEntry& entry = best_data()[demand_index * node_count_ + *node];
  if (entry.successor == kNoFit) return std::nullopt;
  return Best{static_cast<double>(entry.score), keys_data()[entry.successor]};
}

void ScoreTable::save(const std::filesystem::path& path) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  PRVM_REQUIRE(os.is_open(), "cannot open score-table file for writing: " + path.string());
  os.write(kMagic, sizeof kMagic);

  const std::uint64_t digest_len = digest_.size();
  write_pod(os, digest_len);
  os.write(digest_.data(), static_cast<std::streamsize>(digest_.size()));

  const std::uint64_t group_count = shape_.groups().size();
  write_pod(os, group_count);
  for (const DimensionGroup& g : shape_.groups()) {
    write_pod(os, static_cast<std::int32_t>(g.kind));
    write_pod(os, static_cast<std::int32_t>(g.count));
    write_pod(os, static_cast<std::int32_t>(g.capacity));
  }

  write_pod(os, static_cast<std::uint64_t>(demand_count_));
  write_pod(os, static_cast<std::uint64_t>(node_count_));
  os.write(reinterpret_cast<const char*>(keys_data()),
           static_cast<std::streamsize>(node_count_ * sizeof(ProfileKey)));
  os.write(reinterpret_cast<const char*>(scores_data()),
           static_cast<std::streamsize>(node_count_ * sizeof(float)));
  os.write(reinterpret_cast<const char*>(best_data()),
           static_cast<std::streamsize>(node_count_ * demand_count_ * sizeof(BestEntry)));
  write_pod(os, static_cast<std::int32_t>(iterations_));
  write_pod(os, static_cast<std::uint8_t>(converged_));
  PRVM_REQUIRE(os.good(), "error writing score-table file: " + path.string());
}

ScoreTable ScoreTable::load(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  PRVM_REQUIRE(is.is_open(), "cannot open score-table file: " + path.string());
  char magic[sizeof kMagic];
  is.read(magic, sizeof magic);
  PRVM_REQUIRE(is.good() && std::memcmp(magic, kMagic, sizeof kMagic) == 0,
               "not a score-table file: " + path.string());

  ScoreTable table;
  std::uint64_t digest_len = 0;
  read_pod(is, digest_len);
  PRVM_REQUIRE(digest_len < 256, "corrupt score-table digest");
  table.digest_.resize(digest_len);
  is.read(table.digest_.data(), static_cast<std::streamsize>(digest_len));

  std::uint64_t group_count = 0;
  read_pod(is, group_count);
  PRVM_REQUIRE(group_count >= 1 && group_count < 64, "corrupt score-table shape");
  std::vector<DimensionGroup> groups;
  groups.reserve(group_count);
  for (std::uint64_t g = 0; g < group_count; ++g) {
    std::int32_t kind = 0, count = 0, capacity = 0;
    read_pod(is, kind);
    read_pod(is, count);
    read_pod(is, capacity);
    groups.push_back(DimensionGroup{static_cast<ResourceKind>(kind), count, capacity});
  }
  table.shape_ = ProfileShape(std::move(groups));

  std::uint64_t demand_count = 0, node_count = 0;
  read_pod(is, demand_count);
  read_pod(is, node_count);
  PRVM_REQUIRE(node_count < static_cast<std::uint64_t>(kNoFit), "corrupt score-table node count");
  PRVM_REQUIRE(demand_count < 1024, "corrupt score-table demand count");
  table.demand_count_ = demand_count;
  table.node_count_ = node_count;
  table.keys_.resize(node_count);
  table.scores_.resize(node_count);
  table.best_.resize(node_count * demand_count);
  is.read(reinterpret_cast<char*>(table.keys_.data()),
          static_cast<std::streamsize>(node_count * sizeof(ProfileKey)));
  is.read(reinterpret_cast<char*>(table.scores_.data()),
          static_cast<std::streamsize>(node_count * sizeof(float)));
  is.read(reinterpret_cast<char*>(table.best_.data()),
          static_cast<std::streamsize>(table.best_.size() * sizeof(BestEntry)));
  std::int32_t iterations = 0;
  std::uint8_t converged = 0;
  read_pod(is, iterations);
  read_pod(is, converged);
  table.iterations_ = iterations;
  table.converged_ = converged != 0;

  table.index_.reserve(node_count);
  for (NodeId u = 0; u < node_count; ++u) table.index_.try_emplace(table.keys_[u], u);
  return table;
}

void ScoreTable::save_image(const std::filesystem::path& path) const {
  PRVM_REQUIRE(!is_mapped(), "saving an image from a mapped table is redundant");
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  PRVM_REQUIRE(os.is_open(), "cannot open image file for writing: " + path.string());

  const std::uint64_t index_capacity = index_.capacity();
  os.write(kImageMagic, sizeof kImageMagic);
  write_pod(os, static_cast<std::uint64_t>(node_count_));
  write_pod(os, static_cast<std::uint64_t>(demand_count_));
  write_pod(os, index_capacity);
  write_pod(os, static_cast<std::int64_t>(iterations_));
  write_pod(os, static_cast<std::uint64_t>(converged_));
  write_pod(os, static_cast<std::uint64_t>(digest_.size()));
  write_pod(os, static_cast<std::uint64_t>(shape_.groups().size()));
  os.write(digest_.data(), static_cast<std::streamsize>(digest_.size()));
  for (const DimensionGroup& g : shape_.groups()) {
    write_pod(os, static_cast<std::int32_t>(g.kind));
    write_pod(os, static_cast<std::int32_t>(g.count));
    write_pod(os, static_cast<std::int32_t>(g.capacity));
  }

  // Sections, each padded to a 64-byte boundary (same walk as map_image).
  std::size_t offset = static_cast<std::size_t>(os.tellp());
  const auto section = [&](const void* data, std::size_t bytes) {
    const std::size_t aligned = align_up(offset);
    for (; offset < aligned; ++offset) os.put('\0');
    os.write(reinterpret_cast<const char*>(data), static_cast<std::streamsize>(bytes));
    offset += bytes;
  };
  section(keys_.data(), node_count_ * sizeof(ProfileKey));
  section(scores_.data(), node_count_ * sizeof(float));
  section(best_.data(), node_count_ * demand_count_ * sizeof(BestEntry));
  section(index_.keys_data(), index_capacity * sizeof(std::uint64_t));
  section(index_.values_data(), index_capacity * sizeof(NodeId));
  section(index_.full_data(), index_capacity * sizeof(std::uint8_t));
  PRVM_REQUIRE(os.good(), "error writing image file: " + path.string());
}

ScoreTable ScoreTable::map_image(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  PRVM_REQUIRE(fd >= 0, "cannot open image file: " + path.string());
  struct ::stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    PRVM_REQUIRE(false, "cannot stat image file: " + path.string());
  }
  const auto length = static_cast<std::size_t>(st.st_size);
  void* base = ::mmap(nullptr, length, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  PRVM_REQUIRE(base != MAP_FAILED, "mmap failed on image file: " + path.string());
  auto image = std::make_shared<Image>();
  image->base = static_cast<const std::byte*>(base);
  image->length = length;

  // Bounds-checked header cursor; a truncated or alien file throws instead
  // of reading past the mapping.
  std::size_t offset = 0;
  const auto take = [&](std::size_t bytes) {
    PRVM_REQUIRE(offset + bytes <= length, "truncated image file: " + path.string());
    const std::byte* p = image->base + offset;
    offset += bytes;
    return p;
  };
  const auto take_u64 = [&] {
    std::uint64_t v = 0;
    std::memcpy(&v, take(sizeof v), sizeof v);
    return v;
  };
  PRVM_REQUIRE(std::memcmp(take(sizeof kImageMagic), kImageMagic, sizeof kImageMagic) == 0,
               "not a score-table image: " + path.string());

  ScoreTable table;
  table.node_count_ = take_u64();
  table.demand_count_ = take_u64();
  const std::uint64_t index_capacity = take_u64();
  std::int64_t iterations = 0;
  std::memcpy(&iterations, take(sizeof iterations), sizeof iterations);
  table.iterations_ = static_cast<int>(iterations);
  table.converged_ = take_u64() != 0;
  const std::uint64_t digest_len = take_u64();
  const std::uint64_t group_count = take_u64();
  PRVM_REQUIRE(digest_len < 256 && group_count >= 1 && group_count < 64,
               "corrupt image header: " + path.string());
  PRVM_REQUIRE(index_capacity != 0 && (index_capacity & (index_capacity - 1)) == 0,
               "corrupt image index capacity: " + path.string());
  table.digest_.assign(reinterpret_cast<const char*>(take(digest_len)), digest_len);
  std::vector<DimensionGroup> groups;
  groups.reserve(group_count);
  for (std::uint64_t g = 0; g < group_count; ++g) {
    std::int32_t raw[3];
    std::memcpy(raw, take(sizeof raw), sizeof raw);
    groups.push_back(DimensionGroup{static_cast<ResourceKind>(raw[0]), raw[1], raw[2]});
  }
  table.shape_ = ProfileShape(std::move(groups));

  const auto section = [&](std::size_t bytes) {
    offset = align_up(offset);
    return take(bytes);
  };
  const std::size_t n = table.node_count_;
  const std::size_t d = table.demand_count_;
  table.img_keys_ = reinterpret_cast<const ProfileKey*>(section(n * sizeof(ProfileKey)));
  table.img_scores_ = reinterpret_cast<const float*>(section(n * sizeof(float)));
  table.img_best_ = reinterpret_cast<const BestEntry*>(section(n * d * sizeof(BestEntry)));
  const auto* idx_keys =
      reinterpret_cast<const std::uint64_t*>(section(index_capacity * sizeof(std::uint64_t)));
  const auto* idx_values =
      reinterpret_cast<const NodeId*>(section(index_capacity * sizeof(NodeId)));
  const auto* idx_full =
      reinterpret_cast<const std::uint8_t*>(section(index_capacity * sizeof(std::uint8_t)));
  table.index_view_ = FlatMap64View<NodeId>(idx_keys, idx_values, idx_full,
                                            static_cast<std::size_t>(index_capacity));
  table.image_ = std::move(image);
  return table;
}

}  // namespace prvm
