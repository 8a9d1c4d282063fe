#include "orca/sharded_scope_registry.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace orcastream::orca {

namespace {

/// Application filters a subscope routes by. UserEventScope has none (user
/// events carry no application), so its subscopes are always residual.
const std::vector<std::string>* ApplicationsOf(const ScopeFilters& scope) {
  return &scope.applications();
}
const std::vector<std::string>* ApplicationsOf(const UserEventScope&) {
  return nullptr;
}

}  // namespace

ShardedScopeRegistry::ShardedScopeRegistry(size_t shard_count)
    : shards_(shard_count == 0 ? 1 : shard_count) {}

// --- Shard map --------------------------------------------------------------

const ScopeRegistry* ShardedScopeRegistry::OwnerOf(
    const std::string& application) const {
  auto it = routes_.find(application);
  return it == routes_.end() ? nullptr : &shards_[it->second.shard];
}

int ShardedScopeRegistry::shard_of(const std::string& application) const {
  auto it = routes_.find(application);
  return it == routes_.end() ? -1 : static_cast<int>(it->second.shard);
}

uint32_t ShardedScopeRegistry::PlaceApplications(
    const std::vector<std::string>& applications) {
  // Existing assignments must all agree; a subscope whose applications are
  // pinned to different shards would need to live in several shards (and
  // then dedup on lookup), so it goes to the residual shard instead —
  // rare, and still correct because the residual shard is always
  // consulted.
  uint32_t target = 0;
  bool assigned = false;
  for (const std::string& application : applications) {
    auto it = routes_.find(application);
    if (it == routes_.end()) continue;
    if (!assigned) {
      target = it->second.shard;
      assigned = true;
    } else if (it->second.shard != target) {
      return kResidual;
    }
  }
  if (!assigned) {
    target = static_cast<uint32_t>(std::hash<std::string>{}(
                                       applications.front()) %
                                   shards_.size());
  }
  // Pin any still-unassigned applications to the chosen shard and take
  // one reference per filter entry (released symmetrically).
  for (const std::string& application : applications) {
    auto [it, inserted] = routes_.try_emplace(application,
                                              AppRoute{target, 0});
    ++it->second.refs;
  }
  return target;
}

void ShardedScopeRegistry::ReleaseApplications(const Placement& placement) {
  for (const std::string& application : placement.applications) {
    auto it = routes_.find(application);
    if (it == routes_.end()) continue;
    if (--it->second.refs == 0) routes_.erase(it);
  }
}

// --- Registration lifecycle -------------------------------------------------

template <typename Scope>
void ShardedScopeRegistry::RegisterImpl(Scope scope) {
  const std::vector<std::string>* applications = ApplicationsOf(scope);
  Placement placement;
  placement.generation = current_generation_;
  if (applications != nullptr && !applications->empty()) {
    placement.shard = PlaceApplications(*applications);
    if (placement.shard != kResidual) placement.applications = *applications;
  }
  ScopeRegistry& registry = RegistryAt(placement.shard);
  placements_[scope.key()].push_back(std::move(placement));
  // One global sequence across all shards: the per-shard results stay
  // mergeable into overall registration order.
  registry.set_next_sequence(next_sequence_++);
  registry.Register(std::move(scope));
}

void ShardedScopeRegistry::Register(OperatorMetricScope scope) {
  RegisterImpl(std::move(scope));
}
void ShardedScopeRegistry::Register(PeMetricScope scope) {
  RegisterImpl(std::move(scope));
}
void ShardedScopeRegistry::Register(PeFailureScope scope) {
  RegisterImpl(std::move(scope));
}
void ShardedScopeRegistry::Register(JobEventScope scope) {
  RegisterImpl(std::move(scope));
}
void ShardedScopeRegistry::Register(UserEventScope scope) {
  RegisterImpl(std::move(scope));
}

size_t ShardedScopeRegistry::Unregister(const std::string& key) {
  auto it = placements_.find(key);
  if (it == placements_.end()) return 0;
  // One Unregister per distinct shard holding the key (a shard removes
  // every subscope under the key in one call).
  std::vector<uint32_t> targets;
  for (const Placement& placement : it->second) {
    ReleaseApplications(placement);
    if (std::find(targets.begin(), targets.end(), placement.shard) ==
        targets.end()) {
      targets.push_back(placement.shard);
    }
  }
  placements_.erase(it);
  size_t removed = 0;
  for (uint32_t target : targets) removed += RegistryAt(target).Unregister(key);
  return removed;
}

bool ShardedScopeRegistry::HasKey(const std::string& key) const {
  // The placement map tracks every key's shard(s); each ref is verified
  // against the shard's live slots (retirement tombstones slots before
  // the placement entry is scrubbed on some paths).
  auto it = placements_.find(key);
  if (it != placements_.end()) {
    for (const Placement& placement : it->second) {
      if (RegistryAt(placement.shard).HasKey(key)) return true;
    }
  }
  return residual_.HasKey(key);
}

ShardedScopeRegistry::Generation ShardedScopeRegistry::BeginGeneration() {
  // All shards are constructed together and only ever advanced here, so
  // their generation counters stay in lockstep and the residual shard's
  // id speaks for all of them.
  for (ScopeRegistry& shard : shards_) shard.BeginGeneration();
  current_generation_ = residual_.BeginGeneration();
  return current_generation_;
}

size_t ShardedScopeRegistry::RetireGeneration(Generation generation) {
  // Release the retired registrations' shard-map references first; the
  // per-shard retire below tombstones the slots themselves.
  for (auto it = placements_.begin(); it != placements_.end();) {
    auto& placements = it->second;
    placements.erase(
        std::remove_if(placements.begin(), placements.end(),
                       [&](const Placement& placement) {
                         if (placement.generation != generation) return false;
                         ReleaseApplications(placement);
                         return true;
                       }),
        placements.end());
    it = placements.empty() ? placements_.erase(it) : std::next(it);
  }
  size_t removed = 0;
  for (ScopeRegistry& shard : shards_) {
    removed += shard.RetireGeneration(generation);
  }
  removed += residual_.RetireGeneration(generation);
  return removed;
}

void ShardedScopeRegistry::Clear() {
  for (ScopeRegistry& shard : shards_) shard.Clear();
  residual_.Clear();
  routes_.clear();
  placements_.clear();
  // Generation and sequence counters stay monotonic, matching
  // ScopeRegistry::Clear.
}

size_t ShardedScopeRegistry::size() const {
  size_t total = residual_.size();
  for (const ScopeRegistry& shard : shards_) total += shard.size();
  return total;
}

void ShardedScopeRegistry::set_compaction_threshold(size_t threshold) {
  for (ScopeRegistry& shard : shards_) {
    shard.set_compaction_threshold(threshold);
  }
  residual_.set_compaction_threshold(threshold);
}

size_t ShardedScopeRegistry::dead_count() const {
  size_t total = residual_.dead_count();
  for (const ScopeRegistry& shard : shards_) total += shard.dead_count();
  return total;
}

size_t ShardedScopeRegistry::compaction_count() const {
  size_t total = residual_.compaction_count();
  for (const ScopeRegistry& shard : shards_) {
    total += shard.compaction_count();
  }
  return total;
}

void ShardedScopeRegistry::set_predicate_planner(bool enabled) {
  for (ScopeRegistry& shard : shards_) {
    shard.set_predicate_planner(enabled);
  }
  residual_.set_predicate_planner(enabled);
}

plan::PlanStats ShardedScopeRegistry::plan_stats() const {
  plan::PlanStats stats = residual_.plan_stats();
  for (const ScopeRegistry& shard : shards_) stats += shard.plan_stats();
  return stats;
}

// --- Matching ---------------------------------------------------------------

std::vector<std::string> ShardedScopeRegistry::MergeBySequence(
    std::vector<SeqKey> a, std::vector<SeqKey> b) {
  std::vector<std::string> merged;
  merged.reserve(a.size() + b.size());
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].sequence < b[j].sequence) {
      merged.push_back(std::move(a[i++].key));
    } else {
      merged.push_back(std::move(b[j++].key));
    }
  }
  for (; i < a.size(); ++i) merged.push_back(std::move(a[i].key));
  for (; j < b.size(); ++j) merged.push_back(std::move(b[j].key));
  return merged;
}

template <typename Query, typename... Args>
std::vector<std::string> ShardedScopeRegistry::LookupMerged(
    const Query& query, Args&&... args) const {
  auto it = routes_.find(query.application);
  if (it == routes_.end()) {
    // An unassigned application has no shard-resident subscope that could
    // match it, so the residual shard alone is the complete answer.
    return residual_.MatchedKeys(query, args...);
  }
  return MergeBySequence(
      shards_[it->second.shard].MatchedSeqKeys(query, args...),
      residual_.MatchedSeqKeys(query, args...));
}

std::vector<std::string> ShardedScopeRegistry::MatchedKeys(
    const OperatorMetricContext& context, const GraphView& graph) const {
  return LookupMerged(context, graph);
}

std::vector<std::string> ShardedScopeRegistry::MatchedKeys(
    const PeMetricContext& context) const {
  return LookupMerged(context);
}

std::vector<std::string> ShardedScopeRegistry::MatchedKeys(
    const PeFailureContext& context, const GraphView& graph) const {
  return LookupMerged(context, graph);
}

std::vector<std::string> ShardedScopeRegistry::MatchedKeys(
    const JobEventContext& context, bool is_submission) const {
  return LookupMerged(context, is_submission);
}

std::vector<std::string> ShardedScopeRegistry::MatchedKeys(
    const UserEventContext& context) const {
  // Every UserEventScope lives in the residual shard (no application
  // filters), so no merge is needed.
  return residual_.MatchedKeys(context);
}

// --- Batch matching ---------------------------------------------------------

template <typename Query, typename... Args>
std::vector<std::vector<std::string>> ShardedScopeRegistry::MatchBatch(
    const std::vector<Query>& queries, Args&&... args) const {
  std::vector<std::vector<std::string>> results;
  results.reserve(queries.size());
  for (const Query& query : queries) {
    results.push_back(LookupMerged(query, args...));
  }
  return results;
}

std::vector<std::vector<std::string>>
ShardedScopeRegistry::MatchOperatorMetricBatch(
    const std::vector<OperatorMetricSample>& samples,
    const GraphView& graph) const {
  return MatchBatch(samples, graph);
}

std::vector<std::vector<std::string>>
ShardedScopeRegistry::MatchOperatorMetricBatch(
    const std::vector<OperatorMetricContext>& contexts,
    const GraphView& graph) const {
  return MatchBatch(contexts, graph);
}

std::vector<std::vector<std::string>> ShardedScopeRegistry::MatchPeMetricBatch(
    const std::vector<PeMetricSample>& samples) const {
  return MatchBatch(samples);
}

std::vector<std::vector<std::string>> ShardedScopeRegistry::MatchPeMetricBatch(
    const std::vector<PeMetricContext>& contexts) const {
  return MatchBatch(contexts);
}

}  // namespace orcastream::orca
