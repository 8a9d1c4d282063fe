#include "plan/shape_index.h"

#include <algorithm>

namespace orcastream::plan {

ShapeIndex::ShapeIndex(size_t attr_count, PlannerPolicy policy)
    : attr_count_(attr_count < kMaxAttrs ? attr_count : kMaxAttrs),
      planner_(policy) {}

uint32_t ShapeIndex::ShapeOf(const AttributeValues& values) const {
  // Attributes past attr_count_ are not indexed, so they cannot shape a
  // group either: a predicate filtering only there is a wildcard here
  // (Collect returns a candidate superset either way).
  uint32_t shape = 0;
  for (size_t attr = 0; attr < attr_count_ && attr < values.size(); ++attr) {
    if (!values[attr].empty()) shape |= 1u << attr;
  }
  return shape;
}

void ShapeIndex::Add(uint32_t position, const AttributeValues& values) {
  uint32_t shape = ShapeOf(values);
  auto [it, inserted] = groups_.try_emplace(shape, attr_count_);
  Group& group = it->second;
  group.all.positions.push_back(position);
  ++group.all.live;
  for (size_t attr = 0; attr < attr_count_ && attr < values.size(); ++attr) {
    for (const std::string& value : values[attr]) {
      auto [pit, fresh] = group.postings[attr].try_emplace(value);
      pit->second.positions.push_back(position);
      ++pit->second.live;
      group.stats.OnInsert(attr, fresh);
    }
  }
  group.dirty = true;
  ++epoch_;
}

void ShapeIndex::Kill(uint32_t /*position*/, const AttributeValues& values) {
  auto it = groups_.find(ShapeOf(values));
  if (it == groups_.end()) return;
  Group& group = it->second;
  if (group.all.live > 0) --group.all.live;
  for (size_t attr = 0; attr < attr_count_ && attr < values.size(); ++attr) {
    for (const std::string& value : values[attr]) {
      auto pit = group.postings[attr].find(value);
      if (pit == group.postings[attr].end()) continue;
      if (pit->second.live > 0) --pit->second.live;
      group.stats.OnKill(attr);
    }
  }
  group.dirty = true;
  ++epoch_;
}

void ShapeIndex::Clear() {
  groups_.clear();
  cache_.Clear();
  ++epoch_;
}

void ShapeIndex::Prepare() {
  for (auto& [shape, group] : groups_) {
    if (!group.dirty) continue;
    group.dirty = false;
    // The wildcard group has no attributes to order — nothing to plan.
    if (shape == 0) continue;
    cache_.Put(planner_.Compile(shape, group.stats, epoch_));
  }
}

bool ShapeIndex::CollectGroup(uint32_t shape, const Group& group,
                              const std::string* const* probes,
                              std::vector<uint32_t>* out) const {
  if (group.all.live == 0) return true;
  if (shape == 0) {
    // Wildcard predicates match any probe; every member is a candidate.
    out->insert(out->end(), group.all.positions.begin(),
                group.all.positions.end());
    return true;
  }

  // Probe order: the compiled plan's, or ascending attributes for a group
  // Prepare has not seen yet (order affects only speed — fresh groups are
  // planned by the next Prepare).
  size_t order[kMaxAttrs];
  double expected[kMaxAttrs];
  size_t steps = 0;
  const CompiledPlan* plan = cache_.Find(shape);
  if (plan != nullptr) {
    for (const PlanStep& step : plan->steps) {
      order[steps] = step.attr;
      expected[steps] = step.expected_live;
      ++steps;
    }
  } else {
    for (size_t attr = 0; attr < attr_count_; ++attr) {
      if ((shape & (1u << attr)) == 0) continue;
      order[steps] = attr;
      expected[steps] = -1.0;
      ++steps;
    }
  }

  // A non-zero shape (masked to attr_count_ by ShapeOf) has at least one
  // probe step.
  const Posting* postings[kMaxAttrs] = {};
  for (size_t i = 0; i < steps; ++i) {
    const auto& index = group.postings[order[i]];
    auto it = index.find(*probes[order[i]]);
    if (it == index.end() || it->second.live == 0) {
      // Empty probe — the whole conjunction is empty for this group.
      return true;
    }
    if (i == 0 && expected[0] >= 0.0 &&
        planner_.SkewGuardTriggered(expected[0], it->second.live)) {
      return false;
    }
    postings[i] = &it->second;
  }

  const Posting& first = *postings[0];
  if (steps == 1) {
    out->insert(out->end(), first.positions.begin(), first.positions.end());
    return true;
  }
  for (uint32_t position : first.positions) {
    bool in_all = true;
    for (size_t i = 1; i < steps; ++i) {
      const auto& positions = postings[i]->positions;
      if (!std::binary_search(positions.begin(), positions.end(), position)) {
        in_all = false;
        break;
      }
    }
    if (in_all) out->push_back(position);
  }
  return true;
}

bool ShapeIndex::Collect(std::initializer_list<const std::string*> probes,
                         std::vector<uint32_t>* out) const {
  out->clear();
  const std::string* probe_array[kMaxAttrs] = {nullptr};
  size_t count = 0;
  for (const std::string* probe : probes) {
    if (count >= attr_count_) break;
    probe_array[count++] = probe;
  }
  for (const auto& [shape, group] : groups_) {
    if (!CollectGroup(shape, group, probe_array, out)) {
      fallback_lookups_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  // Groups partition the position space, so the concatenation holds no
  // duplicates; sorting restores registration order.
  std::sort(out->begin(), out->end());
  planned_lookups_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

PlanStats ShapeIndex::stats() const {
  PlanStats stats;
  stats.plans_compiled = cache_.compiles();
  stats.replans = cache_.replans();
  stats.planned_lookups = planned_lookups_.load(std::memory_order_relaxed);
  stats.fallback_lookups = fallback_lookups_.load(std::memory_order_relaxed);
  stats.shapes = groups_.size();
  return stats;
}

}  // namespace orcastream::plan
