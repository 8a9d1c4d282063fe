#include "orca/scope_registry.h"

#include <algorithm>
#include <utility>

#include "orca/scope_matcher.h"

namespace orcastream::orca {

namespace {

/// Runs `match` over the candidate positions (already in registration
/// order) and collects key + registration sequence of the matching live
/// subscopes. Tombstoned slots are skipped here rather than scrubbed from
/// the index buckets, so unregistration stays O(1) until compaction
/// reclaims the positions.
template <typename Slot, typename Match>
std::vector<SeqKey> SeqKeysOf(const std::vector<Slot>& slots,
                              const std::vector<uint32_t>& candidates,
                              Match match) {
  std::vector<SeqKey> matched;
  for (uint32_t position : candidates) {
    const Slot& slot = slots[position];
    if (slot.live && match(slot.scope)) {
      matched.push_back(SeqKey{slot.sequence, slot.scope.key()});
    }
  }
  return matched;
}

/// MatchedKeys = MatchedSeqKeys minus the sequence annotations.
std::vector<std::string> StripSeq(std::vector<SeqKey> seq_keys) {
  std::vector<std::string> keys;
  keys.reserve(seq_keys.size());
  for (SeqKey& seq_key : seq_keys) keys.push_back(std::move(seq_key.key));
  return keys;
}

/// The seed's linear scan: every live subscope, in registration order.
template <typename Slot, typename Match>
std::vector<std::string> KeysOfAll(const std::vector<Slot>& slots,
                                   Match match) {
  std::vector<std::string> matched;
  for (const Slot& slot : slots) {
    if (slot.live && match(slot.scope)) matched.push_back(slot.scope.key());
  }
  return matched;
}

/// Copy of `values` with duplicates removed (a filter may legally repeat
/// a value; the planner's Add/Kill must see each value once).
std::vector<std::string> Deduped(const std::vector<std::string>& values) {
  std::vector<std::string> out = values;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

// --- Index insertion --------------------------------------------------------

plan::AttributeValues ScopeRegistry::PlanValuesOf(
    const OperatorMetricScope& scope) {
  plan::AttributeValues values(3);
  values[0] = Deduped(scope.metric_names());
  values[1] = Deduped(scope.applications());
  values[2] = Deduped(scope.operator_names());
  return values;
}

plan::AttributeValues ScopeRegistry::PlanValuesOf(const PeMetricScope& scope) {
  plan::AttributeValues values(3);
  values[0] = Deduped(scope.metric_names());
  std::vector<std::string> pes;
  pes.reserve(scope.pes().size());
  for (common::PeId pe : scope.pes()) pes.push_back(std::to_string(pe.value()));
  std::sort(pes.begin(), pes.end());
  pes.erase(std::unique(pes.begin(), pes.end()), pes.end());
  values[1] = std::move(pes);
  values[2] = Deduped(scope.applications());
  return values;
}

void ScopeRegistry::IndexScope(const OperatorMetricScope& scope,
                               uint32_t position) {
  if (!scope.metric_names().empty()) {
    for (const auto& metric : scope.metric_names()) {
      operator_metric_by_metric_[metric].push_back(position);
    }
    BumpIndex(kOpMetricByMetric, scope.metric_names().size());
  } else if (!scope.applications().empty()) {
    for (const auto& application : scope.applications()) {
      operator_metric_by_application_[application].push_back(position);
    }
    BumpIndex(kOpMetricByApplication, scope.applications().size());
  } else {
    operator_metric_residual_.push_back(position);
    BumpIndex(kOpMetricResidual, 1);
  }
  if (operator_metric_plan_ != nullptr) {
    operator_metric_plan_->Add(position, PlanValuesOf(scope));
  }
}

void ScopeRegistry::IndexScope(const PeMetricScope& scope, uint32_t position) {
  if (!scope.metric_names().empty()) {
    for (const auto& metric : scope.metric_names()) {
      pe_metric_by_metric_[metric].push_back(position);
    }
    BumpIndex(kPeMetricByMetric, scope.metric_names().size());
  } else if (!scope.pes().empty()) {
    for (common::PeId pe : scope.pes()) {
      pe_metric_by_pe_[pe.value()].push_back(position);
    }
    BumpIndex(kPeMetricByPe, scope.pes().size());
  } else if (!scope.applications().empty()) {
    for (const auto& application : scope.applications()) {
      pe_metric_by_application_[application].push_back(position);
    }
    BumpIndex(kPeMetricByApplication, scope.applications().size());
  } else {
    pe_metric_residual_.push_back(position);
    BumpIndex(kPeMetricResidual, 1);
  }
  if (pe_metric_plan_ != nullptr) {
    pe_metric_plan_->Add(position, PlanValuesOf(scope));
  }
}

void ScopeRegistry::IndexScope(const PeFailureScope& scope,
                               uint32_t position) {
  if (!scope.applications().empty()) {
    for (const auto& application : scope.applications()) {
      pe_failure_by_application_[application].push_back(position);
    }
    BumpIndex(kPeFailureByApplication, scope.applications().size());
  } else {
    pe_failure_residual_.push_back(position);
    BumpIndex(kPeFailureResidual, 1);
  }
}

void ScopeRegistry::IndexScope(const JobEventScope& scope, uint32_t position) {
  if (!scope.applications().empty()) {
    for (const auto& application : scope.applications()) {
      job_event_by_application_[application].push_back(position);
    }
    BumpIndex(kJobEventByApplication, scope.applications().size());
  } else {
    job_event_residual_.push_back(position);
    BumpIndex(kJobEventResidual, 1);
  }
}

void ScopeRegistry::IndexScope(const UserEventScope& scope,
                               uint32_t position) {
  if (!scope.names().empty()) {
    for (const auto& name : scope.names()) {
      user_event_by_name_[name].push_back(position);
    }
    BumpIndex(kUserEventByName, scope.names().size());
  } else {
    user_event_residual_.push_back(position);
    BumpIndex(kUserEventResidual, 1);
  }
}

void ScopeRegistry::UnindexScope(const OperatorMetricScope& scope,
                                 uint32_t position) {
  if (!scope.metric_names().empty()) {
    DropIndex(kOpMetricByMetric, scope.metric_names().size());
  } else if (!scope.applications().empty()) {
    DropIndex(kOpMetricByApplication, scope.applications().size());
  } else {
    DropIndex(kOpMetricResidual, 1);
  }
  if (operator_metric_plan_ != nullptr) {
    operator_metric_plan_->Kill(position, PlanValuesOf(scope));
  }
}

void ScopeRegistry::UnindexScope(const PeMetricScope& scope,
                                 uint32_t position) {
  if (!scope.metric_names().empty()) {
    DropIndex(kPeMetricByMetric, scope.metric_names().size());
  } else if (!scope.pes().empty()) {
    DropIndex(kPeMetricByPe, scope.pes().size());
  } else if (!scope.applications().empty()) {
    DropIndex(kPeMetricByApplication, scope.applications().size());
  } else {
    DropIndex(kPeMetricResidual, 1);
  }
  if (pe_metric_plan_ != nullptr) {
    pe_metric_plan_->Kill(position, PlanValuesOf(scope));
  }
}

void ScopeRegistry::UnindexScope(const PeFailureScope& scope, uint32_t) {
  if (!scope.applications().empty()) {
    DropIndex(kPeFailureByApplication, scope.applications().size());
  } else {
    DropIndex(kPeFailureResidual, 1);
  }
}

void ScopeRegistry::UnindexScope(const JobEventScope& scope, uint32_t) {
  if (!scope.applications().empty()) {
    DropIndex(kJobEventByApplication, scope.applications().size());
  } else {
    DropIndex(kJobEventResidual, 1);
  }
}

void ScopeRegistry::UnindexScope(const UserEventScope& scope, uint32_t) {
  if (!scope.names().empty()) {
    DropIndex(kUserEventByName, scope.names().size());
  } else {
    DropIndex(kUserEventResidual, 1);
  }
}

void ScopeRegistry::ClearIndexesFor(const Store<OperatorMetricScope>&) {
  operator_metric_by_metric_.clear();
  operator_metric_by_application_.clear();
  operator_metric_residual_.clear();
  ResetIndex(kOpMetricByMetric);
  ResetIndex(kOpMetricByApplication);
  ResetIndex(kOpMetricResidual);
  if (operator_metric_plan_ != nullptr) operator_metric_plan_->Clear();
}

void ScopeRegistry::ClearIndexesFor(const Store<PeMetricScope>&) {
  pe_metric_by_metric_.clear();
  pe_metric_by_pe_.clear();
  pe_metric_by_application_.clear();
  pe_metric_residual_.clear();
  ResetIndex(kPeMetricByMetric);
  ResetIndex(kPeMetricByPe);
  ResetIndex(kPeMetricByApplication);
  ResetIndex(kPeMetricResidual);
  if (pe_metric_plan_ != nullptr) pe_metric_plan_->Clear();
}

void ScopeRegistry::ClearIndexesFor(const Store<PeFailureScope>&) {
  pe_failure_by_application_.clear();
  pe_failure_residual_.clear();
  ResetIndex(kPeFailureByApplication);
  ResetIndex(kPeFailureResidual);
}

void ScopeRegistry::ClearIndexesFor(const Store<JobEventScope>&) {
  job_event_by_application_.clear();
  job_event_residual_.clear();
  ResetIndex(kJobEventByApplication);
  ResetIndex(kJobEventResidual);
}

void ScopeRegistry::ClearIndexesFor(const Store<UserEventScope>&) {
  user_event_by_name_.clear();
  user_event_residual_.clear();
  ResetIndex(kUserEventByName);
  ResetIndex(kUserEventResidual);
}

// --- Registration lifecycle -------------------------------------------------

template <typename Scope>
void ScopeRegistry::RegisterIn(Store<Scope>& store, ScopeType type,
                               Scope scope) {
  uint32_t position = static_cast<uint32_t>(store.slots.size());
  IndexScope(scope, position);
  key_map_[scope.key()].push_back(SlotRef{type, position});
  store.slots.push_back(Slot<Scope>{std::move(scope), current_generation_,
                                    next_sequence_++, /*live=*/true});
}

void ScopeRegistry::Register(OperatorMetricScope scope) {
  RegisterIn(operator_metric_, ScopeType::kOperatorMetric, std::move(scope));
  PreparePlans();
}
void ScopeRegistry::Register(PeMetricScope scope) {
  RegisterIn(pe_metric_, ScopeType::kPeMetric, std::move(scope));
  PreparePlans();
}
void ScopeRegistry::Register(PeFailureScope scope) {
  RegisterIn(pe_failure_, ScopeType::kPeFailure, std::move(scope));
}
void ScopeRegistry::Register(JobEventScope scope) {
  RegisterIn(job_event_, ScopeType::kJobEvent, std::move(scope));
}
void ScopeRegistry::Register(UserEventScope scope) {
  RegisterIn(user_event_, ScopeType::kUserEvent, std::move(scope));
}

template <typename Scope>
bool ScopeRegistry::Kill(Store<Scope>& store, uint32_t position) {
  Slot<Scope>& slot = store.slots[position];
  if (!slot.live) return false;
  UnindexScope(slot.scope, position);
  slot.live = false;
  ++store.dead;
  return true;
}

size_t ScopeRegistry::Unregister(const std::string& key) {
  auto it = key_map_.find(key);
  if (it == key_map_.end()) return 0;
  size_t removed = 0;
  for (const SlotRef& ref : it->second) {
    switch (ref.type) {
      case ScopeType::kOperatorMetric:
        removed += Kill(operator_metric_, ref.position) ? 1 : 0;
        break;
      case ScopeType::kPeMetric:
        removed += Kill(pe_metric_, ref.position) ? 1 : 0;
        break;
      case ScopeType::kPeFailure:
        removed += Kill(pe_failure_, ref.position) ? 1 : 0;
        break;
      case ScopeType::kJobEvent:
        removed += Kill(job_event_, ref.position) ? 1 : 0;
        break;
      case ScopeType::kUserEvent:
        removed += Kill(user_event_, ref.position) ? 1 : 0;
        break;
    }
  }
  key_map_.erase(it);
  MaybeCompact();
  PreparePlans();
  return removed;
}

bool ScopeRegistry::HasKey(const std::string& key) const {
  auto it = key_map_.find(key);
  if (it == key_map_.end()) return false;
  for (const SlotRef& ref : it->second) {
    if (RefLive(ref)) return true;
  }
  return false;
}

ScopeRegistry::Generation ScopeRegistry::BeginGeneration() {
  return ++current_generation_;
}

template <typename Scope>
size_t ScopeRegistry::RetireGenerationIn(
    Store<Scope>& store, Generation generation,
    std::vector<std::string>& retired_keys) {
  size_t removed = 0;
  for (uint32_t position = 0;
       position < static_cast<uint32_t>(store.slots.size()); ++position) {
    Slot<Scope>& slot = store.slots[position];
    if (slot.live && slot.generation == generation) {
      UnindexScope(slot.scope, position);
      slot.live = false;
      ++store.dead;
      ++removed;
      retired_keys.push_back(slot.scope.key());
    }
  }
  return removed;
}

bool ScopeRegistry::RefLive(const SlotRef& ref) const {
  switch (ref.type) {
    case ScopeType::kOperatorMetric:
      return operator_metric_.slots[ref.position].live;
    case ScopeType::kPeMetric:
      return pe_metric_.slots[ref.position].live;
    case ScopeType::kPeFailure:
      return pe_failure_.slots[ref.position].live;
    case ScopeType::kJobEvent:
      return job_event_.slots[ref.position].live;
    case ScopeType::kUserEvent:
      return user_event_.slots[ref.position].live;
  }
  return false;
}

size_t ScopeRegistry::RetireGeneration(Generation generation) {
  std::vector<std::string> retired_keys;
  size_t removed =
      RetireGenerationIn(operator_metric_, generation, retired_keys) +
      RetireGenerationIn(pe_metric_, generation, retired_keys) +
      RetireGenerationIn(pe_failure_, generation, retired_keys) +
      RetireGenerationIn(job_event_, generation, retired_keys) +
      RetireGenerationIn(user_event_, generation, retired_keys);
  if (removed > 0) {
    // Scrub only the retired keys' refs — a key shared with another
    // (live) generation keeps its surviving refs. Compaction (if it
    // fires) rebuilds the whole map with renumbered positions anyway.
    for (const std::string& key : retired_keys) {
      auto it = key_map_.find(key);
      if (it == key_map_.end()) continue;
      auto& refs = it->second;
      refs.erase(std::remove_if(refs.begin(), refs.end(),
                                [this](const SlotRef& ref) {
                                  return !RefLive(ref);
                                }),
                 refs.end());
      if (refs.empty()) key_map_.erase(it);
    }
    MaybeCompact();
    PreparePlans();
  }
  return removed;
}

void ScopeRegistry::Clear() {
  operator_metric_ = {};
  pe_metric_ = {};
  pe_failure_ = {};
  job_event_ = {};
  user_event_ = {};
  ClearIndexesFor(operator_metric_);
  ClearIndexesFor(pe_metric_);
  ClearIndexesFor(pe_failure_);
  ClearIndexesFor(job_event_);
  ClearIndexesFor(user_event_);
  key_map_.clear();
  // current_generation_ and next_sequence_ stay monotonic so a stale
  // generation id can never alias a later logic's registrations and
  // sequence-based merge order survives a Clear.
}

// --- Predicate planner ------------------------------------------------------

void ScopeRegistry::set_predicate_planner(bool enabled) {
  if (!enabled) {
    operator_metric_plan_.reset();
    pe_metric_plan_.reset();
    return;
  }
  operator_metric_plan_ = std::make_unique<plan::ShapeIndex>(3, planner_policy_);
  pe_metric_plan_ = std::make_unique<plan::ShapeIndex>(3, planner_policy_);
  // Rebuild from the live slots (dead positions are simply absent from
  // the postings — lookups never need them).
  for (uint32_t position = 0;
       position < static_cast<uint32_t>(operator_metric_.slots.size());
       ++position) {
    const auto& slot = operator_metric_.slots[position];
    if (slot.live) operator_metric_plan_->Add(position, PlanValuesOf(slot.scope));
  }
  for (uint32_t position = 0;
       position < static_cast<uint32_t>(pe_metric_.slots.size()); ++position) {
    const auto& slot = pe_metric_.slots[position];
    if (slot.live) pe_metric_plan_->Add(position, PlanValuesOf(slot.scope));
  }
  PreparePlans();
}

void ScopeRegistry::set_planner_policy(const plan::PlannerPolicy& policy) {
  planner_policy_ = policy;
  if (predicate_planner()) set_predicate_planner(true);
}

void ScopeRegistry::PreparePlans() {
  if (operator_metric_plan_ != nullptr) operator_metric_plan_->Prepare();
  if (pe_metric_plan_ != nullptr) pe_metric_plan_->Prepare();
}

plan::PlanStats ScopeRegistry::plan_stats() const {
  plan::PlanStats stats;
  if (operator_metric_plan_ != nullptr) stats += operator_metric_plan_->stats();
  if (pe_metric_plan_ != nullptr) stats += pe_metric_plan_->stats();
  return stats;
}

std::vector<ScopeRegistry::IndexCardinality> ScopeRegistry::index_stats()
    const {
  auto entry = [this](const char* name, IndexId id, size_t buckets) {
    return IndexCardinality{name, buckets, index_cards_[id].entries,
                            index_cards_[id].live};
  };
  auto residual_buckets = [](const Bucket& bucket) -> size_t {
    return bucket.empty() ? 0 : 1;
  };
  return {
      entry("operator_metric.by_metric", kOpMetricByMetric,
            operator_metric_by_metric_.size()),
      entry("operator_metric.by_application", kOpMetricByApplication,
            operator_metric_by_application_.size()),
      entry("operator_metric.residual", kOpMetricResidual,
            residual_buckets(operator_metric_residual_)),
      entry("pe_metric.by_metric", kPeMetricByMetric,
            pe_metric_by_metric_.size()),
      entry("pe_metric.by_pe", kPeMetricByPe, pe_metric_by_pe_.size()),
      entry("pe_metric.by_application", kPeMetricByApplication,
            pe_metric_by_application_.size()),
      entry("pe_metric.residual", kPeMetricResidual,
            residual_buckets(pe_metric_residual_)),
      entry("pe_failure.by_application", kPeFailureByApplication,
            pe_failure_by_application_.size()),
      entry("pe_failure.residual", kPeFailureResidual,
            residual_buckets(pe_failure_residual_)),
      entry("job_event.by_application", kJobEventByApplication,
            job_event_by_application_.size()),
      entry("job_event.residual", kJobEventResidual,
            residual_buckets(job_event_residual_)),
      entry("user_event.by_name", kUserEventByName,
            user_event_by_name_.size()),
      entry("user_event.residual", kUserEventResidual,
            residual_buckets(user_event_residual_)),
  };
}

size_t ScopeRegistry::size() const {
  return operator_metric_.live_count() + pe_metric_.live_count() +
         pe_failure_.live_count() + job_event_.live_count() +
         user_event_.live_count();
}

size_t ScopeRegistry::dead_count() const {
  return operator_metric_.dead + pe_metric_.dead + pe_failure_.dead +
         job_event_.dead + user_event_.dead;
}

// --- Compaction -------------------------------------------------------------

template <typename Scope, typename ClearIndexes>
bool ScopeRegistry::CompactStore(Store<Scope>& store,
                                 ClearIndexes clear_indexes) {
  if (store.dead < compaction_threshold_) return false;
  if (store.dead * 2 < store.slots.size()) return false;
  std::vector<Slot<Scope>> live;
  live.reserve(store.live_count());
  for (Slot<Scope>& slot : store.slots) {
    if (slot.live) live.push_back(std::move(slot));
  }
  store.slots = std::move(live);
  store.dead = 0;
  clear_indexes();
  for (uint32_t position = 0;
       position < static_cast<uint32_t>(store.slots.size()); ++position) {
    IndexScope(store.slots[position].scope, position);
  }
  ++compactions_;
  return true;
}

void ScopeRegistry::MaybeCompact() {
  bool moved = false;
  moved |= CompactStore(operator_metric_,
                        [this] { ClearIndexesFor(operator_metric_); });
  moved |= CompactStore(pe_metric_, [this] { ClearIndexesFor(pe_metric_); });
  moved |= CompactStore(pe_failure_,
                        [this] { ClearIndexesFor(pe_failure_); });
  moved |= CompactStore(job_event_, [this] { ClearIndexesFor(job_event_); });
  moved |= CompactStore(user_event_,
                        [this] { ClearIndexesFor(user_event_); });
  if (moved) RebuildKeyMap();
}

void ScopeRegistry::RebuildKeyMap() {
  key_map_.clear();
  auto add_store = [this](const auto& store, ScopeType type) {
    for (uint32_t position = 0;
         position < static_cast<uint32_t>(store.slots.size()); ++position) {
      const auto& slot = store.slots[position];
      if (!slot.live) continue;
      key_map_[slot.scope.key()].push_back(SlotRef{type, position});
    }
  };
  add_store(operator_metric_, ScopeType::kOperatorMetric);
  add_store(pe_metric_, ScopeType::kPeMetric);
  add_store(pe_failure_, ScopeType::kPeFailure);
  add_store(job_event_, ScopeType::kJobEvent);
  add_store(user_event_, ScopeType::kUserEvent);
}

// --- Candidate gathering ----------------------------------------------------

const ScopeRegistry::Bucket* ScopeRegistry::Lookup(const StringIndex& index,
                                                   const std::string& key) {
  auto it = index.find(key);
  return it == index.end() ? nullptr : &it->second;
}

const ScopeRegistry::Bucket* ScopeRegistry::Lookup(const PeIndex& index,
                                                   common::PeId pe) {
  auto it = index.find(pe.value());
  return it == index.end() ? nullptr : &it->second;
}

std::vector<uint32_t> ScopeRegistry::GatherCandidates(
    std::initializer_list<const Bucket*> buckets) {
  size_t total = 0;
  for (const Bucket* bucket : buckets) {
    if (bucket != nullptr) total += bucket->size();
  }
  std::vector<uint32_t> candidates;
  candidates.reserve(total);
  for (const Bucket* bucket : buckets) {
    if (bucket == nullptr) continue;
    candidates.insert(candidates.end(), bucket->begin(), bucket->end());
  }
  // Each bucket is ascending (positions are appended in registration
  // order); the merged list must be restored to registration order, and a
  // subscope indexed under several values of one attribute must still be
  // tested only once.
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return candidates;
}

// --- Indexed matching -------------------------------------------------------

std::vector<SeqKey> ScopeRegistry::MatchedSeqKeys(
    const OperatorMetricSample& sample, const GraphView& graph) const {
  auto match = [&](const OperatorMetricScope& scope) {
    return MatchOperatorMetric(scope, sample, graph);
  };
  if (operator_metric_plan_ != nullptr) {
    std::vector<uint32_t> candidates;
    if (operator_metric_plan_->Collect(
            {&sample.metric, &sample.application, &sample.instance_name},
            &candidates)) {
      return SeqKeysOf(operator_metric_.slots, candidates, match);
    }
    // Skew guard fired: the planned first probe was far larger than its
    // estimate, so the fixed-order merge below is the safer bet.
  }
  auto candidates = GatherCandidates(
      {Lookup(operator_metric_by_metric_, sample.metric),
       Lookup(operator_metric_by_application_, sample.application),
       &operator_metric_residual_});
  return SeqKeysOf(operator_metric_.slots, candidates, match);
}

std::vector<SeqKey> ScopeRegistry::MatchedSeqKeys(
    const OperatorMetricContext& context, const GraphView& graph) const {
  return MatchedSeqKeys(SampleOf(context), graph);
}

std::vector<SeqKey> ScopeRegistry::MatchedSeqKeys(
    const PeMetricSample& sample) const {
  auto match = [&](const PeMetricScope& scope) {
    return MatchPeMetric(scope, sample);
  };
  if (pe_metric_plan_ != nullptr) {
    const std::string pe_probe = std::to_string(sample.pe.value());
    std::vector<uint32_t> candidates;
    if (pe_metric_plan_->Collect(
            {&sample.metric, &pe_probe, &sample.application}, &candidates)) {
      return SeqKeysOf(pe_metric_.slots, candidates, match);
    }
  }
  auto candidates = GatherCandidates(
      {Lookup(pe_metric_by_metric_, sample.metric),
       Lookup(pe_metric_by_pe_, sample.pe),
       Lookup(pe_metric_by_application_, sample.application),
       &pe_metric_residual_});
  return SeqKeysOf(pe_metric_.slots, candidates, match);
}

std::vector<SeqKey> ScopeRegistry::MatchedSeqKeys(
    const PeMetricContext& context) const {
  return MatchedSeqKeys(SampleOf(context));
}

std::vector<SeqKey> ScopeRegistry::MatchedSeqKeys(
    const PeFailureContext& context, const GraphView& graph) const {
  auto candidates = GatherCandidates(
      {Lookup(pe_failure_by_application_, context.application),
       &pe_failure_residual_});
  return SeqKeysOf(pe_failure_.slots, candidates,
                   [&](const PeFailureScope& scope) {
                     return MatchPeFailure(scope, context, graph);
                   });
}

std::vector<SeqKey> ScopeRegistry::MatchedSeqKeys(
    const JobEventContext& context, bool is_submission) const {
  auto candidates = GatherCandidates(
      {Lookup(job_event_by_application_, context.application),
       &job_event_residual_});
  return SeqKeysOf(job_event_.slots, candidates,
                   [&](const JobEventScope& scope) {
                     return MatchJobEvent(scope, context, is_submission);
                   });
}

std::vector<SeqKey> ScopeRegistry::MatchedSeqKeys(
    const UserEventContext& context) const {
  auto candidates =
      GatherCandidates({Lookup(user_event_by_name_, context.name),
                        &user_event_residual_});
  return SeqKeysOf(user_event_.slots, candidates,
                   [&](const UserEventScope& scope) {
                     return MatchUserEvent(scope, context);
                   });
}

std::vector<std::string> ScopeRegistry::MatchedKeys(
    const OperatorMetricSample& sample, const GraphView& graph) const {
  return StripSeq(MatchedSeqKeys(sample, graph));
}

std::vector<std::string> ScopeRegistry::MatchedKeys(
    const OperatorMetricContext& context, const GraphView& graph) const {
  return MatchedKeys(SampleOf(context), graph);
}

std::vector<std::string> ScopeRegistry::MatchedKeys(
    const PeMetricSample& sample) const {
  return StripSeq(MatchedSeqKeys(sample));
}

std::vector<std::string> ScopeRegistry::MatchedKeys(
    const PeMetricContext& context) const {
  return MatchedKeys(SampleOf(context));
}

std::vector<std::string> ScopeRegistry::MatchedKeys(
    const PeFailureContext& context, const GraphView& graph) const {
  return StripSeq(MatchedSeqKeys(context, graph));
}

std::vector<std::string> ScopeRegistry::MatchedKeys(
    const JobEventContext& context, bool is_submission) const {
  return StripSeq(MatchedSeqKeys(context, is_submission));
}

std::vector<std::string> ScopeRegistry::MatchedKeys(
    const UserEventContext& context) const {
  return StripSeq(MatchedSeqKeys(context));
}

// --- Linear-scan reference path ---------------------------------------------

std::vector<std::string> ScopeRegistry::MatchedKeysLinear(
    const OperatorMetricSample& sample, const GraphView& graph) const {
  return KeysOfAll(operator_metric_.slots,
                   [&](const OperatorMetricScope& scope) {
                     return MatchOperatorMetric(scope, sample, graph);
                   });
}

std::vector<std::string> ScopeRegistry::MatchedKeysLinear(
    const OperatorMetricContext& context, const GraphView& graph) const {
  return MatchedKeysLinear(SampleOf(context), graph);
}

std::vector<std::string> ScopeRegistry::MatchedKeysLinear(
    const PeMetricSample& sample) const {
  return KeysOfAll(pe_metric_.slots, [&](const PeMetricScope& scope) {
    return MatchPeMetric(scope, sample);
  });
}

std::vector<std::string> ScopeRegistry::MatchedKeysLinear(
    const PeMetricContext& context) const {
  return MatchedKeysLinear(SampleOf(context));
}

std::vector<std::string> ScopeRegistry::MatchedKeysLinear(
    const PeFailureContext& context, const GraphView& graph) const {
  return KeysOfAll(pe_failure_.slots, [&](const PeFailureScope& scope) {
    return MatchPeFailure(scope, context, graph);
  });
}

std::vector<std::string> ScopeRegistry::MatchedKeysLinear(
    const JobEventContext& context, bool is_submission) const {
  return KeysOfAll(job_event_.slots, [&](const JobEventScope& scope) {
    return MatchJobEvent(scope, context, is_submission);
  });
}

std::vector<std::string> ScopeRegistry::MatchedKeysLinear(
    const UserEventContext& context) const {
  return KeysOfAll(user_event_.slots, [&](const UserEventScope& scope) {
    return MatchUserEvent(scope, context);
  });
}

}  // namespace orcastream::orca
