// PageRankVM (paper Algorithm 2): the core contribution.
//
// For a given VM, every used PM is scored by the PageRank value of the best
// profile reachable by hosting the VM there (maximum over anti-collocation
// permutations, precomputed in the ScoreTable's best-successor cache); the
// VM goes to the PM with the highest score, with the winning permutation
// materialized into concrete core/disk assignments. If no used PM fits, the
// first unused PM with sufficient resources is activated. The optional
// 2-choice mode (§V-C closing remark) scores two randomly sampled used PMs
// instead of scanning the whole used list.
//
// Two engines implement the scan. The legacy linear engine scores every
// used PM (O(fleet) per VM, the paper's Algorithm 2 as printed). The
// indexed engine (default) reads the pick off the datacenter's PickIndex:
// one winner tree per VM type over all PMs, keyed by best-successor score
// with the lower activation sequence winning ties — exactly the linear
// scan's "first maximal PM in used order" — so an unconstrained pick is one
// root read, and the datacenter pays O(V log N) per place()/remove() to
// keep the trees exact. place() attaches the engine's score tables to a
// datacenter that has none or another set. Constrained picks (migration
// re-placement with exclude/allow) sweep the datacenter's struct-of-arrays
// bucket index instead, prefiltered by the branchless residual mask. The
// chosen PM is identical to the linear scan for every VM (asserted by the
// differential test). All per-pick state lives in engine-owned scratch, so
// steady-state picks are allocation-free (asserted by the counting-allocator
// test).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "core/catalog_graphs.hpp"
#include "obs/metrics.hpp"
#include "placement/algorithm.hpp"

namespace prvm {

struct PageRankVmOptions {
  bool two_choice = false;  ///< sample 2 used PMs instead of scanning all
  std::uint64_t seed = 1;   ///< RNG seed for 2-choice sampling
  /// Use the datacenter's pick index (same placements, O(1) pick per VM).
  /// Off = the literal linear scan, kept for differential tests/ablation.
  bool use_index = true;
  /// Registry for the engine's prvm_engine_* counters (score lookups, index
  /// probes, rep-cache hits). Null = obs::Registry::global().
  obs::Registry* metrics = nullptr;
};

class PageRankVm final : public PlacementAlgorithm {
 public:
  explicit PageRankVm(std::shared_ptr<const ScoreTableSet> tables,
                      PageRankVmOptions options = {});

  std::string_view name() const override { return "PageRankVM"; }
  AlgorithmKind kind() const override { return AlgorithmKind::kPageRankVm; }

  std::optional<PmIndex> place(Datacenter& dc, const Vm& vm,
                               const PlacementConstraints& constraints = {}) override;

  /// A provisional placement decision computed against a frozen `dc` without
  /// mutating it: the winning PM plus everything a caller needs to validate
  /// the decision against a later datacenter state and commit it verbatim —
  /// the score and activation-sequence tie-break witness, the PM's profile
  /// at decision time, and the concrete dimension assignments realizing the
  /// best successor. The service's parallel batch pipeline runs speculate()
  /// concurrently on per-partition engine clones (the datacenter read path
  /// is const and cache-free; the engine's own scratch makes each *clone*
  /// single-threaded).
  struct Speculation {
    PmIndex pm = 0;
    double score = 0.0;         ///< placement_score at decision time (unused when activated)
    std::uint64_t act_seq = 0;  ///< activation_seq(pm) (tie-break witness)
    ProfileKey profile = 0;     ///< pm's canonical profile at decision time
    bool activated = false;     ///< chosen off the free list (no used PM fit)
    DemandPlacement placement;  ///< concrete assignments realizing the best successor
  };

  /// Allocation-free form: fills `out` (whose vectors are reused across
  /// calls) and returns true on a decision. Returns false when no PM fits,
  /// when `dc` has no pick index attached for this engine's tables, or when
  /// the engine options (linear scan, 2-choice sampling) make speculation
  /// unsupported — in every case the caller must fall back to the serial
  /// place() path.
  bool speculate(const Datacenter& dc, const Vm& vm, const PlacementConstraints& constraints,
                 Speculation& out);

  std::optional<Speculation> speculate(const Datacenter& dc, const Vm& vm,
                                       const PlacementConstraints& constraints = {});

  /// Score of placing `vm_type` on PM `i` right now: the PageRank value of
  /// the best resulting profile; nullopt when the VM does not fit. Exposed
  /// for tests and for the migration policy.
  std::optional<double> placement_score(const Datacenter& dc, PmIndex i,
                                        std::size_t vm_type) const;

  /// As above, but accumulates table lookups into `lookups` instead of
  /// bumping the score-lookup counter itself; the linear-scan hot loop uses
  /// this to flush one batched metric update per scan.
  std::optional<double> placement_score(const Datacenter& dc, PmIndex i, std::size_t vm_type,
                                        std::uint64_t& lookups) const;

  const ScoreTableSet& tables() const { return *tables_; }

  /// Attaches this engine's score tables to `dc`'s pick index unless they
  /// already are (a no-op for the linear and 2-choice engines, which never
  /// read it). place() does this itself; callers that speculate on a
  /// freshly recovered datacenter call it once up front.
  void attach_index(Datacenter& dc) const;

 private:
  /// Places `vm` on PM `i` using the permutation whose canonical outcome has
  /// the highest score (via the representative cache when indexing is on).
  void place_best_permutation(Datacenter& dc, PmIndex i, const Vm& vm);

  /// Linear engine: Algorithm 2 as printed (plus 2-choice sampling).
  std::optional<PmIndex> pick_linear(Datacenter& dc, const Vm& vm,
                                     const PlacementConstraints& constraints);

  /// True when place() and speculate() pick through the datacenter's index.
  bool indexed() const { return options_.use_index && !options_.two_choice; }

  /// Indexed engine, no constraints: the root of `dc`'s pick tree for
  /// `vm_type` (the index must be attached to this engine's tables). On
  /// success also reports the winning score (saves the caller a lookup).
  static bool pick_indexed(const Datacenter& dc, std::size_t vm_type, PmIndex& out_pm,
                           double& out_score);

  /// Indexed engine with exclude/allow constraints (migration re-placement).
  bool pick_indexed_constrained(const Datacenter& dc, std::size_t vm_type,
                                const PlacementConstraints& constraints, PmIndex& out_pm,
                                double& out_score);

  /// Lazily builds need_masks_ from the first datacenter seen (an engine
  /// serves one catalog — the score tables are already per-catalog).
  void ensure_masks(const Datacenter& dc);

  /// A placement of `vm` on PM `i` realizing the best successor, computed in
  /// canonical-profile space once per (PM type, profile, VM type) and mapped
  /// onto the PM's concrete dimension permutation. Writes into `out`
  /// (reusing its storage); allocation-free on a rep-cache hit.
  void cached_placement_into(const Datacenter& dc, PmIndex i, const Vm& vm,
                             DemandPlacement& out);

  std::shared_ptr<const ScoreTableSet> tables_;
  PageRankVmOptions options_;
  Rng rng_;

  /// Counters resolved once at construction (options_.metrics or the global
  /// registry). Incrementing through the pointers is lock-free and valid
  /// from const scoring paths — the engine itself is not mutated.
  struct Metrics {
    obs::Counter* place_calls = nullptr;     ///< place() invocations
    obs::Counter* linear_scored = nullptr;   ///< PMs scored by the legacy scan
    obs::Counter* score_lookups = nullptr;   ///< best-successor table lookups
    obs::Counter* rep_cache_hits = nullptr;  ///< best-permutation cache hits
    obs::Counter* rep_cache_misses = nullptr;
  };
  Metrics m_;

  /// One scored live bucket of the constrained scan: the dense slot pins the
  /// bucket without holding a pointer into the (stable during a pick) index.
  struct ScoredBucket {
    float score;
    std::uint32_t pm_type;
    std::uint32_t slot;
  };

  // Scratch and caches for the indexed engine (one engine per thread; these
  // make place() non-reentrant but allocation-free at steady state).
  std::vector<ScoredBucket> scored_;
  std::vector<std::uint64_t> need_masks_;  ///< [pm_type * vm_types + vm_type]
  std::size_t mask_vm_types_ = 0;
  bool masks_ready_ = false;
  std::vector<int> order_scratch_;
  std::vector<int> levels_scratch_;
  DemandPlacement placement_scratch_;
  FlatMap64<std::uint32_t> rep_index_;  // (pm_type, node, slot) -> rep slot
  std::vector<std::vector<std::pair<int, int>>> rep_assignments_;
};

}  // namespace prvm
