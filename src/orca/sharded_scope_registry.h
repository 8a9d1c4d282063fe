#ifndef ORCASTREAM_ORCA_SHARDED_SCOPE_REGISTRY_H_
#define ORCASTREAM_ORCA_SHARDED_SCOPE_REGISTRY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "orca/event_scope.h"
#include "orca/events.h"
#include "orca/graph_view.h"
#include "orca/scope_registry.h"

namespace orcastream::orca {

/// Partitions the subscope population across N ScopeRegistry shards keyed
/// by application — the multi-application scale-out of §4.1/§4.2 event
/// detection (an ORCA service manages *many* applications concurrently;
/// one registry holding every application's subscopes makes every SRM
/// round contend on one structure).
///
/// **Shard map.** Each application is assigned to a shard the first time a
/// subscope filtering on it is registered (hash of the application name
/// unless a multi-application subscope pins it — see below) and the
/// assignment is reference-counted: when the last shard-resident subscope
/// filtering on an application is unregistered or retired, the assignment
/// is dropped. An assignment never moves while it is held; load skew
/// across shards is not rebalanced. Subscopes route by their application
/// filters:
///
///   - no application filter (wildcards, and every UserEventScope — user
///     events carry no application) → the always-consulted *residual
///     shard*;
///   - application filters that all map to one shard → that shard (a
///     subscope naming several applications assigns any still-unassigned
///     ones to the same shard);
///   - application filters already pinned to *different* shards → the
///     residual shard (correct for any filter combination, just not
///     partitioned).
///
/// **Lookups.** An event for application A consults exactly two
/// registries — A's owning shard (none if A is unassigned) and the
/// residual shard — and merges the two result lists by registration
/// sequence number, so the returned keys are byte-identical to what a
/// single ScopeRegistry fed the same registration stream would return
/// (the equivalence oracle kept by tests/sharded_scope_registry_test.cc,
/// alongside the linear-scan oracle).
///
/// **Lifecycle.** Register/Unregister/BeginGeneration/RetireGeneration
/// mirror ScopeRegistry exactly; generations advance in lockstep across
/// all shards so `ReplaceLogic`/`Shutdown` retirement semantics are
/// preserved per shard.
///
/// **Snapshot matching.** The batch entry points match one whole SRM
/// round on the calling thread, through borrowed sample views, and return
/// exactly what per-sample MatchedKeys calls would. It stays serial: one
/// shard's serial match already runs far past the linear scan, and
/// per-round worker threads slowed the rest of the round (view building,
/// publishing) by more than they saved.
class ShardedScopeRegistry {
 public:
  using Generation = ScopeRegistry::Generation;

  /// `shard_count` is clamped to at least 1. With one shard every
  /// application routes to it — semantically the single-registry setup
  /// with a separate residual store.
  explicit ShardedScopeRegistry(size_t shard_count = 4);

  ShardedScopeRegistry(const ShardedScopeRegistry&) = delete;
  ShardedScopeRegistry& operator=(const ShardedScopeRegistry&) = delete;

  // --- Registration lifecycle (mirrors ScopeRegistry) ---------------------

  void Register(OperatorMetricScope scope);
  void Register(PeMetricScope scope);
  void Register(PeFailureScope scope);
  void Register(JobEventScope scope);
  void Register(UserEventScope scope);

  /// Removes every live subscope registered under `key`, across all
  /// shards. Returns the number of subscopes removed.
  size_t Unregister(const std::string& key);

  /// True when any shard (including the residual) still holds a live
  /// subscope under `key` — i.e. the key would still be matchable. Used
  /// by the EventBus to prune queued failure events whose matched keys
  /// all belong to a retired generation.
  bool HasKey(const std::string& key) const;

  /// Opens a new scope generation on every shard (they advance in
  /// lockstep) and returns the common id.
  Generation BeginGeneration();

  /// Removes every live subscope registered under `generation`, across
  /// all shards, releasing their shard-map references. Returns the number
  /// of subscopes removed.
  size_t RetireGeneration(Generation generation);

  Generation current_generation() const { return current_generation_; }

  void Clear();

  size_t size() const;
  bool empty() const { return size() == 0; }

  // --- Matching (owning shard ∪ residual shard, registration order) -------

  std::vector<std::string> MatchedKeys(const OperatorMetricContext& context,
                                       const GraphView& graph) const;
  std::vector<std::string> MatchedKeys(const PeMetricContext& context) const;
  std::vector<std::string> MatchedKeys(const PeFailureContext& context,
                                       const GraphView& graph) const;
  std::vector<std::string> MatchedKeys(const JobEventContext& context,
                                       bool is_submission) const;
  std::vector<std::string> MatchedKeys(const UserEventContext& context) const;

  // --- Batch matching: one SRM round -------------------------------------

  /// results[i] == MatchedKeys(samples[i], graph) for every i, on the
  /// calling thread. The context-vector overloads serve callers that hold
  /// owned contexts (tests, benches).
  std::vector<std::vector<std::string>> MatchOperatorMetricBatch(
      const std::vector<OperatorMetricSample>& samples,
      const GraphView& graph) const;
  std::vector<std::vector<std::string>> MatchOperatorMetricBatch(
      const std::vector<OperatorMetricContext>& contexts,
      const GraphView& graph) const;
  std::vector<std::vector<std::string>> MatchPeMetricBatch(
      const std::vector<PeMetricSample>& samples) const;
  std::vector<std::vector<std::string>> MatchPeMetricBatch(
      const std::vector<PeMetricContext>& contexts) const;

  // --- Shard-map introspection (tests, benches) ---------------------------

  size_t shard_count() const { return shards_.size(); }
  /// Shard currently owning `application`, or -1 while unassigned.
  int shard_of(const std::string& application) const;
  /// Applications currently holding a shard assignment.
  size_t tracked_applications() const { return routes_.size(); }
  const ScopeRegistry& shard(size_t index) const { return shards_[index]; }
  const ScopeRegistry& residual_shard() const { return residual_; }

  /// Forwards to every shard (see ScopeRegistry::set_compaction_threshold).
  void set_compaction_threshold(size_t threshold);
  size_t dead_count() const;
  size_t compaction_count() const;

  // --- Predicate planner (see ScopeRegistry::set_predicate_planner) --------

  /// Enables/disables the src/plan/ predicate planner on every shard and
  /// the residual shard.
  void set_predicate_planner(bool enabled);
  bool predicate_planner() const { return residual_.predicate_planner(); }
  /// Planner counters summed across all shards and the residual shard.
  plan::PlanStats plan_stats() const;

 private:
  /// Placement of the residual shard in shard-id terms.
  static constexpr uint32_t kResidual = UINT32_MAX;

  /// One shard assignment: the owning shard plus the number of
  /// shard-resident subscopes whose filters reference the application
  /// (the assignment is dropped when it reaches zero).
  struct AppRoute {
    uint32_t shard = 0;
    size_t refs = 0;
  };

  /// Bookkeeping for one registration: where it went and which
  /// applications it holds shard-map references on (empty when placed in
  /// the residual shard).
  struct Placement {
    uint32_t shard = kResidual;
    std::vector<std::string> applications;
    Generation generation = 0;
  };

  ScopeRegistry& RegistryAt(uint32_t shard) {
    return shard == kResidual ? residual_ : shards_[shard];
  }
  const ScopeRegistry& RegistryAt(uint32_t shard) const {
    return shard == kResidual ? residual_ : shards_[shard];
  }
  const ScopeRegistry* OwnerOf(const std::string& application) const;

  /// Decides the owning shard for a subscope's application filters and
  /// takes one shard-map reference per application on success; returns
  /// kResidual (no references) when existing assignments conflict.
  uint32_t PlaceApplications(const std::vector<std::string>& applications);
  void ReleaseApplications(const Placement& placement);

  template <typename Scope>
  void RegisterImpl(Scope scope);

  /// The one authoritative lookup: residual shard alone when no shard
  /// owns the application, else owner ∪ residual merged by sequence.
  /// Both the per-sample and batch paths go through it.
  template <typename Query, typename... Args>
  std::vector<std::string> LookupMerged(const Query& query,
                                        Args&&... args) const;
  template <typename Query, typename... Args>
  std::vector<std::vector<std::string>> MatchBatch(
      const std::vector<Query>& queries, Args&&... args) const;

  /// Merges two sequence-ascending shard results back into overall
  /// registration order.
  static std::vector<std::string> MergeBySequence(std::vector<SeqKey> a,
                                                  std::vector<SeqKey> b);

  std::vector<ScopeRegistry> shards_;
  ScopeRegistry residual_;
  /// application → owning shard + reference count (the shard map).
  std::unordered_map<std::string, AppRoute> routes_;
  /// key → live registrations under it (mirrors the per-shard key maps so
  /// Unregister/RetireGeneration can release shard-map references).
  std::unordered_map<std::string, std::vector<Placement>> placements_;
  Generation current_generation_ = 0;
  /// Global registration sequence driving every shard's counter.
  uint64_t next_sequence_ = 0;
};

}  // namespace orcastream::orca

#endif  // ORCASTREAM_ORCA_SHARDED_SCOPE_REGISTRY_H_
