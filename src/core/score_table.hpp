// The Profile → PageRank-score table (paper §V-B) plus the best-successor
// cache that makes Algorithm 2's inner loop a hash lookup.
//
// Build pipeline: profile graph -> Algorithm 1 PageRank -> BPRU discount ->
// optional normalization to the table maximum (so scores from differently
// sized graphs — M3 vs C3 PMs — are comparable) -> per-(profile, VM-type)
// best successor.
//
// Storage is flat and demand-major: best_[slot * n + node] so one VM type's
// entries are one contiguous block (the datacenter's pick index reads one
// row per VM type, the constrained sweep walks a fixed slot across nodes,
// and extending the table with new VM types appends whole blocks). Every
// hot access is a plain array load of an 8-byte BestEntry.
//
// The table is self-contained after build (the graph can be discarded) and
// has three persistence forms: save()/load() (owned binary cache, because
// building the EC2-scale graphs takes seconds-to-minutes and the paper
// notes the table "is relatively stable during a certain period of time"),
// save_image()/map_image() (a page-aligned read-only image mapped with
// mmap, so N cell processes of one host share one physical copy), and
// extend() (grow an existing table in place when the catalog gains VM
// types; byte-identical to a fresh build, sublinear when the profile graph
// did not change).
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/flat_map.hpp"
#include "core/profile_graph.hpp"
#include "pagerank/pagerank.hpp"

namespace prvm {

/// Which way votes flow in the profile graph.
///
/// The paper's prose defines profile quality as "the capability of this
/// profile to develop to the best profile" (§V-A) and ranks [3,3,3,3] above
/// [4,4,2,2]; but Algorithm 1 *as printed* (each profile votes for its
/// successors, uniform teleport) produces the opposite ordering — nearly
/// saturated profiles have few out-links, so their votes concentrate and
/// rank pools in dead-end-adjacent deep profiles, which measurably degrades
/// placement (hot cores, migration storms). kReverseToBest runs the
/// identical iteration on the reversed graph with the teleport mass pinned
/// on the best reachable profile: rank(P) is then the damped,
/// branching-discounted weight of all paths P -> best — exactly the
/// "convergence of transferring to the best profile", preferring fuller
/// (closer to best), balanced (more ways to reach best) profiles and
/// zeroing dead ends. It is the default; kForwardAsPrinted reproduces the
/// literal pseudocode and is exercised by the ablation bench.
enum class VoteDirection { kReverseToBest, kForwardAsPrinted };

struct ScoreTableOptions {
  PageRankOptions pagerank;
  VoteDirection direction = VoteDirection::kReverseToBest;
  /// Apply the BPRU discount (Algorithm 1 line 19). Off only for ablation.
  bool apply_bpru = true;
  /// Rescale so the highest score is 1.0, making tables of different PM
  /// types comparable during placement.
  bool normalize_to_max = true;
};

class ScoreTable {
 public:
  /// One best-successor entry: the score of the best profile reachable by
  /// one placement, and that profile's node. 8 bytes, so a cache line holds
  /// eight candidates of the fallback sweep.
  struct BestEntry {
    float score = 0.0F;
    NodeId successor = kNoFit;
  };
  static constexpr NodeId kNoFit = static_cast<NodeId>(-1);

  /// Builds the table from a freshly constructed profile graph.
  static ScoreTable build(const ProfileGraph& graph, const ScoreTableOptions& options = {});

  /// Extends `base` to cover `graph`'s (longer) demand list; `base` must
  /// have been built over the same shape with a prefix of graph's demands.
  /// When `graph_changed` is false (ProfileGraph::extend reported no new
  /// node or edge) the node set and scores are reused verbatim and only the
  /// new demand blocks are computed — O(nodes x new demands) instead of a
  /// full PageRank rebuild. Either way the result is byte-identical to
  /// build(graph, options), which the differential suite asserts.
  static ScoreTable extend(const ScoreTable& base, const ProfileGraph& graph,
                           bool graph_changed, const ScoreTableOptions& options = {});

  const ProfileShape& shape() const { return shape_; }
  std::size_t size() const { return node_count_; }
  std::size_t demand_count() const { return demand_count_; }

  /// Score of a canonical profile; nullopt if the profile is not in the
  /// graph (unreachable from empty under the VM set).
  std::optional<double> find(ProfileKey key) const;

  /// Score of a profile known to be in the table (throws otherwise).
  double score(ProfileKey key) const;

  struct Best {
    double score = 0.0;       ///< score of the best successor profile
    ProfileKey successor = 0; ///< that profile's key
  };

  /// Best resulting profile of placing VM type `demand_index` on `current`
  /// (the max over anti-collocation permutations, Algorithm 2 lines 6-7);
  /// nullopt if the VM does not fit.
  std::optional<Best> best_after(ProfileKey current, std::size_t demand_index) const;

  /// Node id of a canonical profile, if present. Node-keyed accessors below
  /// let hot paths resolve the hash once and reuse the id.
  std::optional<NodeId> node_of(ProfileKey key) const;
  ProfileKey key_of(NodeId node) const { return keys_data()[node]; }
  std::optional<Best> best_after_node(NodeId node, std::size_t demand_index) const;

  /// The contiguous best-successor block of one VM type, indexed by node —
  /// the raw form of best_after_node for hot loops (no optional, no key
  /// resolution; check entry.successor != kNoFit).
  std::span<const BestEntry> best_row(std::size_t demand_index) const;

  /// Diagnostics from the build.
  int pagerank_iterations() const { return iterations_; }
  bool pagerank_converged() const { return converged_; }

  /// Binary persistence. The file embeds a digest of (shape, options,
  /// demand fingerprint); load() verifies it and throws on mismatch.
  void save(const std::filesystem::path& path) const;
  static ScoreTable load(const std::filesystem::path& path);

  /// Read-only image persistence: save_image() writes every array (keys,
  /// scores, best entries, hash index) into one page-aligned file;
  /// map_image() mmaps it MAP_SHARED|PROT_READ and serves every
  /// accessor straight from the mapping — multiple processes mapping the
  /// same file share one physical copy of the table. The mapping is held by
  /// the returned table (and any copies of it) until the last one dies.
  void save_image(const std::filesystem::path& path) const;
  static ScoreTable map_image(const std::filesystem::path& path);

  /// True when the table is served from a map_image() mapping.
  bool is_mapped() const { return image_ != nullptr; }

  /// Digest string identifying (shape, demands, options); doubles as the
  /// cache-file naming scheme. Computable without building the graph.
  static std::string digest(const ProfileShape& shape,
                            const std::vector<QuantizedDemand>& demands,
                            const ScoreTableOptions& options);

  /// The digest this table was built with (for cache validation).
  const std::string& digest_string() const { return digest_; }

 private:
  ScoreTable() = default;

  /// Computes the best-successor block of demand `t` into best_ (which must
  /// already span [t * n, (t+1) * n)). The comparisons run on the stored
  /// float scores (identical between build and extend, which is what makes
  /// extend byte-identical).
  void fill_demand_block(const ProfileGraph& graph, std::size_t t);

  /// An open mmap; shared_ptr so copies of a mapped table stay cheap and
  /// the mapping lives exactly as long as someone serves from it.
  struct Image;

  /// Accessors below serve from the owned vectors or the mapped image.
  const ProfileKey* keys_data() const { return image_ ? img_keys_ : keys_.data(); }
  const float* scores_data() const { return image_ ? img_scores_ : scores_.data(); }
  const BestEntry* best_data() const { return image_ ? img_best_ : best_.data(); }
  const NodeId* index_find(ProfileKey key) const {
    return image_ ? index_view_.find(key) : index_.find(key);
  }

  ProfileShape shape_{std::vector<DimensionGroup>{DimensionGroup{}}};
  std::size_t node_count_ = 0;
  std::size_t demand_count_ = 0;
  std::vector<ProfileKey> keys_;
  std::vector<float> scores_;
  std::vector<BestEntry> best_;  ///< demand-major: [demand * node_count_ + node]
  FlatMap64<NodeId> index_;
  std::string digest_;
  int iterations_ = 0;
  bool converged_ = false;

  // Mapped-image state (null/empty for owned tables).
  std::shared_ptr<const Image> image_;
  const ProfileKey* img_keys_ = nullptr;
  const float* img_scores_ = nullptr;
  const BestEntry* img_best_ = nullptr;
  FlatMap64View<NodeId> index_view_;
};

}  // namespace prvm
