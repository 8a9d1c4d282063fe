#ifndef ORCASTREAM_PLAN_CARDINALITY_STATS_H_
#define ORCASTREAM_PLAN_CARDINALITY_STATS_H_

#include <cstddef>
#include <vector>

namespace orcastream::plan {

/// Live-vs-total cardinality of one inverted-index attribute within a
/// predicate-shape group: how many distinct values are indexed, how many
/// posting entries exist (tombstoned entries included — they stay in the
/// posting vectors until the owning store rebuilds), and how many of those
/// entries are still live.
struct AttributeStats {
  size_t buckets = 0;  ///< distinct values indexed since the last Reset
  size_t entries = 0;  ///< posting entries, tombstoned included
  size_t live = 0;     ///< posting entries whose subscope is still live

  size_t dead() const { return entries - live; }

  /// The planner's selectivity estimate: expected live entries in one
  /// probed bucket, assuming uniform spread across the distinct values.
  /// The skew guard exists precisely because this assumption fails on
  /// skewed populations.
  double avg_live_bucket() const {
    return buckets == 0 ? 0.0
                        : static_cast<double>(live) / static_cast<double>(buckets);
  }
};

/// Per-attribute cardinalities for one shape group, maintained
/// incrementally by ShapeIndex on every register (OnInsert), unregister /
/// retire (OnKill), and index rebuild (Reset) — never by
/// scanning the postings. The planner orders its intersection plan from
/// these counters alone.
class CardinalityStats {
 public:
  explicit CardinalityStats(size_t attr_count) : attrs_(attr_count) {}

  /// One posting entry added under `attr`; `new_bucket` when the value
  /// had no posting yet.
  void OnInsert(size_t attr, bool new_bucket) {
    AttributeStats& stats = attrs_[attr];
    if (new_bucket) ++stats.buckets;
    ++stats.entries;
    ++stats.live;
  }

  /// One posting entry under `attr` tombstoned (the entry itself stays in
  /// the posting vector until the next rebuild).
  void OnKill(size_t attr) {
    AttributeStats& stats = attrs_[attr];
    if (stats.live > 0) --stats.live;
  }

  void Reset() {
    for (AttributeStats& stats : attrs_) stats = AttributeStats{};
  }

  const AttributeStats& attribute(size_t attr) const { return attrs_[attr]; }
  size_t attr_count() const { return attrs_.size(); }

 private:
  std::vector<AttributeStats> attrs_;
};

}  // namespace orcastream::plan

#endif  // ORCASTREAM_PLAN_CARDINALITY_STATS_H_
