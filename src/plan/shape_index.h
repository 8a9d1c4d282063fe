#ifndef ORCASTREAM_PLAN_SHAPE_INDEX_H_
#define ORCASTREAM_PLAN_SHAPE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <unordered_map>
#include <vector>

#include "plan/plan_cache.h"
#include "plan/planner.h"

namespace orcastream::plan {

/// The filter values one registered predicate carries, one (deduplicated)
/// vector per indexable attribute; an empty vector means the predicate is
/// a wildcard on that attribute.
using AttributeValues = std::vector<std::vector<std::string>>;

/// Planner introspection counters, aggregatable across registries.
struct PlanStats {
  uint64_t plans_compiled = 0;    ///< Planner::Compile runs (cumulative)
  uint64_t replans = 0;           ///< compiles beyond the first per shape
  uint64_t planned_lookups = 0;   ///< lookups answered by a compiled plan
  uint64_t fallback_lookups = 0;  ///< lookups the skew guard sent back
  uint64_t shapes = 0;            ///< live predicate-shape groups

  PlanStats& operator+=(const PlanStats& other) {
    plans_compiled += other.plans_compiled;
    replans += other.replans;
    planned_lookups += other.planned_lookups;
    fallback_lookups += other.fallback_lookups;
    shapes += other.shapes;
    return *this;
  }
};

/// The predicate planner's execution engine: groups registered predicates
/// by *shape* — the bitmask of indexable attributes they filter on — and
/// maintains per-shape posting lists (value → ascending positions) for
/// every attribute in the shape. A lookup evaluates each shape group as an
/// ordered intersection: probe the attribute with the smallest estimated
/// bucket first (per the group's CompiledPlan), short-circuit the group as
/// soon as a probe comes back empty, and intersect the first bucket
/// against the rest by binary search. Groups partition the positions, so
/// the union of group results needs only a final sort to restore
/// registration order.
///
/// Correctness does not depend on plan quality: Collect returns a
/// *candidate superset* (tombstoned positions included) and the caller
/// re-runs the full predicate over every candidate, exactly like the
/// legacy fixed-order merge — a mis-ordered or stale plan costs time,
/// never results. The skew guard is the one case where the planner
/// declines: when the first probed bucket is wildly larger than the
/// estimate the plan was ordered by, Collect returns false and the caller
/// runs its fixed-order path.
///
/// Threading: Add/Kill/Clear/Prepare mutate and must run on the owning
/// (sim) thread with lookups quiesced — the same discipline the owning
/// ScopeRegistry's stores already obey. Lookups run on that thread too
/// (every snapshot round is matched there); Collect is const and its only
/// writes are the relaxed atomic lookup counters, so concurrent lookups
/// would still be safe. Plans are compiled eagerly by Prepare at mutation
/// time, never lazily inside a lookup.
class ShapeIndex {
 public:
  static constexpr size_t kMaxAttrs = 8;

  explicit ShapeIndex(size_t attr_count, PlannerPolicy policy = PlannerPolicy());

  // --- Mutation (owning thread only) --------------------------------------

  /// Indexes one predicate at `position`. Positions must be added in
  /// ascending order between Clears (true for slot stores: registration
  /// appends, and rebuilds replay live slots in position order), which is
  /// what keeps every posting vector sorted for the binary-search
  /// intersection.
  void Add(uint32_t position, const AttributeValues& values);

  /// Tombstones one predicate's posting entries (live counters drop; the
  /// entries themselves stay until the next Clear, mirroring the owning
  /// store's tombstone-then-compact lifecycle). `values` must be the same
  /// (deduplicated) values the position was Added with.
  void Kill(uint32_t position, const AttributeValues& values);

  /// Drops all groups and cached plans (store rebuild: compaction,
  /// migration re-sort, registry Clear). Lookup counters survive.
  void Clear();

  /// Recompiles the plan of every group whose cardinalities changed since
  /// the last call. The owning registry calls this at the end of each
  /// mutating operation — the generation/sequence lifecycle events that
  /// drive the epoch — so lookups never compile.
  void Prepare();

  // --- Lookup (const, thread-safe against concurrent lookups) -------------

  /// Collects the planned candidate positions for the given probe values
  /// (one per attribute, in attribute order) into `out`, sorted ascending.
  /// Returns false when the skew guard fired — `out` is unspecified and
  /// the caller must use its fixed-order fallback path.
  bool Collect(std::initializer_list<const std::string*> probes,
               std::vector<uint32_t>* out) const;

  // --- Introspection -------------------------------------------------------

  PlanStats stats() const;
  const CompiledPlan* plan(uint32_t shape) const { return cache_.Find(shape); }
  uint64_t epoch() const { return epoch_; }
  size_t group_count() const { return groups_.size(); }
  size_t attr_count() const { return attr_count_; }
  const Planner& planner() const { return planner_; }

 private:
  /// One posting list: positions ascending, tombstoned entries retained
  /// until Clear (the live counter is what lookups short-circuit on).
  struct Posting {
    std::vector<uint32_t> positions;
    size_t live = 0;
  };

  /// All predicates sharing one shape: per-attribute posting maps, the
  /// incremental cardinalities the plan is compiled from, and the full
  /// member list (`all`) — which for the wildcard group (shape 0) is the
  /// only index there is.
  struct Group {
    explicit Group(size_t attr_count)
        : postings(attr_count), stats(attr_count) {}
    std::vector<std::unordered_map<std::string, Posting>> postings;
    CardinalityStats stats;
    Posting all;
    bool dirty = true;
  };

  uint32_t ShapeOf(const AttributeValues& values) const;

  /// Appends one group's intersection result to `out`; false when the
  /// skew guard fired.
  bool CollectGroup(uint32_t shape, const Group& group,
                    const std::string* const* probes,
                    std::vector<uint32_t>* out) const;

  size_t attr_count_;
  Planner planner_;
  std::unordered_map<uint32_t, Group> groups_;
  PlanCache cache_;
  /// Bumped by every Add/Kill/Clear — i.e. by every registration
  /// (sequence advance), unregistration/retirement (generation event),
  /// compaction, and migration of the owning store.
  uint64_t epoch_ = 0;
  mutable std::atomic<uint64_t> planned_lookups_{0};
  mutable std::atomic<uint64_t> fallback_lookups_{0};
};

}  // namespace orcastream::plan

#endif  // ORCASTREAM_PLAN_SHAPE_INDEX_H_
