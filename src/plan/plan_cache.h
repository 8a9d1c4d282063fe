#ifndef ORCASTREAM_PLAN_PLAN_CACHE_H_
#define ORCASTREAM_PLAN_PLAN_CACHE_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "plan/planner.h"

namespace orcastream::plan {

/// Compiled plans keyed by predicate shape. Invalidation is epoch-driven
/// and handled by ShapeIndex::Prepare — every registry lifecycle event
/// that can change cardinalities (a registration consuming a sequence
/// number, a generation retirement, a compaction rebuild) bumps the
/// index epoch and marks the touched groups dirty; Prepare then re-Puts
/// a fresh plan. Find deliberately serves plans of
/// any epoch: lookups run concurrently and a momentarily stale plan only
/// mis-orders probes, never changes results.
class PlanCache {
 public:
  /// The cached plan for `shape`, of whatever epoch; nullptr when the
  /// shape has never been compiled (or the cache was cleared by an index
  /// rebuild).
  const CompiledPlan* Find(uint32_t shape) const {
    auto it = plans_.find(shape);
    return it == plans_.end() ? nullptr : &it->second;
  }

  /// Installs (or replaces) the plan for its shape. Counts one compile,
  /// and one replan when this shape had been compiled before — including
  /// recompiles after Clear, so churn-driven re-planning is visible.
  void Put(CompiledPlan plan) {
    ++compiles_;
    if (!ever_compiled_.insert(plan.shape).second) ++replans_;
    plans_[plan.shape] = std::move(plan);
  }

  /// Drops every plan (index rebuild); counters survive so the replan
  /// history stays observable.
  void Clear() { plans_.clear(); }

  size_t size() const { return plans_.size(); }
  uint64_t compiles() const { return compiles_; }
  uint64_t replans() const { return replans_; }

 private:
  std::unordered_map<uint32_t, CompiledPlan> plans_;
  std::unordered_set<uint32_t> ever_compiled_;
  uint64_t compiles_ = 0;
  uint64_t replans_ = 0;
};

}  // namespace orcastream::plan

#endif  // ORCASTREAM_PLAN_PLAN_CACHE_H_
