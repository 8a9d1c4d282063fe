#ifndef ORCASTREAM_ORCA_SCOPE_REGISTRY_H_
#define ORCASTREAM_ORCA_SCOPE_REGISTRY_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "orca/event_scope.h"
#include "orca/events.h"
#include "orca/graph_view.h"
#include "plan/shape_index.h"

namespace orcastream::orca {

/// One matched subscope key together with the registration *sequence
/// number* of the subscope that produced it. Sequence numbers are assigned
/// monotonically at registration time, never reused, and preserved across
/// compaction, so results from two registries whose registrations were
/// interleaved under one shared counter can be merged back into overall
/// registration order — the contract ShardedScopeRegistry builds on.
struct SeqKey {
  uint64_t sequence = 0;
  std::string key;
};

/// Owns every subscope registered with the ORCA service (§4.1) and answers
/// "which subscope keys does this event match?".
///
/// Instead of testing each event against every registered subscope (the
/// seed's linear scan), the registry builds inverted indexes keyed by the
/// cheap discriminating attributes — metric name, application name,
/// user-event name, PE id. Each subscope is indexed under exactly one
/// attribute (the cheapest one it filters on); subscopes with no indexable
/// filter live in a small always-checked residual set. A lookup gathers
/// the candidate subscopes from the relevant index buckets plus the
/// residual set and only runs the full match predicates
/// (MatchOperatorMetric etc.) against those, so the result — including the
/// registration order of the returned keys — is identical to the linear
/// scan, which is preserved as the *Linear reference path for equivalence
/// tests and benchmarks.
///
/// Registration is a managed lifecycle, not append-only: the paper's
/// registerEventScope is a dynamic call (orchestration logic registers
/// scopes when it initializes, replacement logic registers its own on its
/// fresh start event, §7), so scopes can also be *unregistered* — either
/// individually by key, or wholesale by retiring the *generation* the
/// owning logic registered them under. Removal tombstones the stored slot
/// (index buckets keep the dead position and lookups skip it); once dead
/// slots pass a threshold the affected store is compacted — slots are
/// renumbered preserving registration order and the indexes rebuilt — so
/// `MatchedKeys` stays allocation-light under arbitrary register/unregister
/// churn while remaining byte-identical to `MatchedKeysLinear`.
class ScopeRegistry {
 public:
  /// Ownership tag for a batch of registrations (one per loaded ORCA
  /// logic). Registrations under a generation nobody retires — e.g. the
  /// initial generation 0, or a fresh one begun after a retire — are
  /// effectively unowned and survive logic turnover.
  using Generation = uint64_t;

  // --- Registration lifecycle (§4.1, §7) ---------------------------------

  void Register(OperatorMetricScope scope);
  void Register(PeMetricScope scope);
  void Register(PeFailureScope scope);
  void Register(JobEventScope scope);
  void Register(UserEventScope scope);

  /// Removes every live subscope registered under `key`, across all five
  /// scope types. Returns the number of subscopes removed.
  size_t Unregister(const std::string& key);

  /// True when at least one live subscope is registered under `key` (of
  /// any scope type). Retired/unregistered keys answer false even before
  /// compaction scrubs their slots.
  bool HasKey(const std::string& key) const;

  /// Opens a new scope generation; subsequent Register calls are tagged
  /// with it until the next BeginGeneration. Used by OrcaService to tag
  /// each loaded logic's registrations so they can be retired atomically.
  Generation BeginGeneration();

  /// Removes every live subscope registered under `generation`. Returns
  /// the number of subscopes removed.
  size_t RetireGeneration(Generation generation);

  Generation current_generation() const { return current_generation_; }

  /// Aligns the generation counter with a sibling registry's. Only used
  /// when ShardedScopeRegistry grows a fresh shard at runtime: every shard
  /// advances its counter in lockstep (BeginGeneration), so a late-born
  /// shard must join at the wrapper's current generation or its
  /// RetireGeneration ids would drift from its siblings'.
  void set_current_generation(Generation generation) {
    current_generation_ = generation;
  }

  /// Sequence number the next Register call will stamp its subscope with.
  /// ShardedScopeRegistry drives the counters of all its shards from one
  /// global counter (set before every Register) so per-shard results can
  /// be merged back into overall registration order; a standalone registry
  /// just consumes its own monotonic counter.
  uint64_t next_sequence() const { return next_sequence_; }
  void set_next_sequence(uint64_t sequence) { next_sequence_ = sequence; }

  void Clear();

  /// Number of live (registered and not unregistered) subscopes.
  size_t size() const;
  bool empty() const { return size() == 0; }

  // --- Subscope migration (shard rebalancing) -----------------------------

  /// One subscope lifted out of a registry with its identity intact: the
  /// scope itself plus the generation and global sequence number it was
  /// registered under. InsertExtracted replays it into another registry
  /// so retirement semantics and sequence-merge order survive the move.
  struct ExtractedScope {
    std::variant<OperatorMetricScope, PeMetricScope, PeFailureScope,
                 JobEventScope, UserEventScope>
        scope;
    Generation generation = 0;
    uint64_t sequence = 0;
  };

  /// Removes every live subscope registered under the given keys and
  /// returns them with their generation/sequence stamps, for insertion
  /// into a sibling registry. The donor registry compacts as needed; its
  /// match results afterwards are as if the keys had never been
  /// registered here.
  std::vector<ExtractedScope> ExtractKeys(
      const std::vector<std::string>& keys);

  /// Re-registers extracted subscopes preserving their original
  /// generation and sequence stamps, then restores the per-store
  /// invariant that live slot positions ascend by sequence (the order
  /// MatchedSeqKeys and the linear oracle both rely on). Sequences must
  /// come from the same global counter as this registry's — true for any
  /// two shards of one ShardedScopeRegistry.
  void InsertExtracted(std::vector<ExtractedScope> extracted);

  // --- Indexed matching (the hot path) ----------------------------------

  /// Keys of all live subscopes the event matches, in registration order.
  /// Metric samples match through their borrowed views; the context
  /// overloads adapt through SampleOf.
  std::vector<std::string> MatchedKeys(const OperatorMetricSample& sample,
                                       const GraphView& graph) const;
  std::vector<std::string> MatchedKeys(const OperatorMetricContext& context,
                                       const GraphView& graph) const;
  std::vector<std::string> MatchedKeys(const PeMetricSample& sample) const;
  std::vector<std::string> MatchedKeys(const PeMetricContext& context) const;
  std::vector<std::string> MatchedKeys(const PeFailureContext& context,
                                       const GraphView& graph) const;
  std::vector<std::string> MatchedKeys(const JobEventContext& context,
                                       bool is_submission) const;
  std::vector<std::string> MatchedKeys(const UserEventContext& context) const;

  /// Same results as MatchedKeys, annotated with each matching subscope's
  /// registration sequence number (ascending — registration order within
  /// one registry is ascending sequence order). This is the shard-facing
  /// form: ShardedScopeRegistry merges one shard's result with the
  /// residual shard's by sequence to restore overall registration order.
  std::vector<SeqKey> MatchedSeqKeys(const OperatorMetricSample& sample,
                                     const GraphView& graph) const;
  std::vector<SeqKey> MatchedSeqKeys(const OperatorMetricContext& context,
                                     const GraphView& graph) const;
  std::vector<SeqKey> MatchedSeqKeys(const PeMetricSample& sample) const;
  std::vector<SeqKey> MatchedSeqKeys(const PeMetricContext& context) const;
  std::vector<SeqKey> MatchedSeqKeys(const PeFailureContext& context,
                                     const GraphView& graph) const;
  std::vector<SeqKey> MatchedSeqKeys(const JobEventContext& context,
                                     bool is_submission) const;
  std::vector<SeqKey> MatchedSeqKeys(const UserEventContext& context) const;

  // --- Linear-scan reference path ----------------------------------------

  /// Byte-identical semantics to MatchedKeys, implemented as the seed's
  /// scan over every registered subscope. Kept as the equivalence oracle
  /// and the benchmark baseline.
  std::vector<std::string> MatchedKeysLinear(
      const OperatorMetricSample& sample, const GraphView& graph) const;
  std::vector<std::string> MatchedKeysLinear(
      const OperatorMetricContext& context, const GraphView& graph) const;
  std::vector<std::string> MatchedKeysLinear(
      const PeMetricSample& sample) const;
  std::vector<std::string> MatchedKeysLinear(
      const PeMetricContext& context) const;
  std::vector<std::string> MatchedKeysLinear(const PeFailureContext& context,
                                             const GraphView& graph) const;
  std::vector<std::string> MatchedKeysLinear(const JobEventContext& context,
                                             bool is_submission) const;
  std::vector<std::string> MatchedKeysLinear(
      const UserEventContext& context) const;

  // --- Predicate planner (src/plan/) --------------------------------------

  /// Enables planned evaluation for the metric match paths: compound
  /// predicates are grouped by shape (the set of indexable attributes
  /// they filter on) and each lookup runs the shape's compiled
  /// intersection plan — probe the smallest estimated bucket first,
  /// intersect outward, short-circuit on empty — instead of the
  /// fixed-order union-then-filter merge. Results are byte-identical to
  /// MatchedKeysLinear either way (the full predicates re-run over every
  /// candidate); when the skew guard distrusts a plan's estimates the
  /// lookup silently falls back to the fixed-order merge. Enabling on a
  /// populated registry rebuilds the plan indexes from the live slots.
  void set_predicate_planner(bool enabled);
  bool predicate_planner() const { return operator_metric_plan_ != nullptr; }

  /// Skew-guard tuning; takes effect immediately (rebuilds the plan
  /// indexes when the planner is enabled).
  void set_planner_policy(const plan::PlannerPolicy& policy);

  /// Combined planner counters of both metric shape indexes.
  plan::PlanStats plan_stats() const;

  /// The shape indexes themselves (tests inspect compiled plans).
  const plan::ShapeIndex* operator_metric_plan() const {
    return operator_metric_plan_.get();
  }
  const plan::ShapeIndex* pe_metric_plan() const {
    return pe_metric_plan_.get();
  }

  // --- Index cardinality introspection ------------------------------------

  /// Live-vs-tombstoned cardinality of one inverted index, maintained
  /// incrementally at register/unregister/retire/compaction time — no
  /// scan. `buckets` counts the distinct indexed values right now;
  /// `entries` counts posting entries including tombstoned ones (they
  /// stay in the buckets until the owning store compacts); `live` counts
  /// entries whose slot is still live. After a compaction rebuilds a
  /// store's indexes, its entries == live (dead() == 0), reconciling with
  /// the store contributing nothing to dead_count().
  struct IndexCardinality {
    const char* index = "";
    size_t buckets = 0;
    size_t entries = 0;
    size_t live = 0;

    size_t dead() const { return entries - live; }
  };
  /// One entry per inverted index (residual sets included), in a fixed
  /// order.
  std::vector<IndexCardinality> index_stats() const;

  // --- Tombstone / compaction introspection (tests, benches) -------------

  /// Tombstoned slots not yet reclaimed by compaction, across all stores.
  size_t dead_count() const;
  /// How many store compactions have run since construction.
  size_t compaction_count() const { return compactions_; }
  /// A store compacts once it holds at least `threshold` dead slots AND
  /// dead slots are at least half the store (the ratio keeps compaction
  /// cost amortized O(1) per unregister). Default 16; tests lower it to
  /// force compaction under small workloads.
  void set_compaction_threshold(size_t threshold) {
    compaction_threshold_ = threshold == 0 ? 1 : threshold;
  }
  size_t compaction_threshold() const { return compaction_threshold_; }

 private:
  using Bucket = std::vector<uint32_t>;
  using StringIndex = std::unordered_map<std::string, Bucket>;
  using PeIndex = std::unordered_map<int64_t, Bucket>;

  /// One stored subscope. Unregistration tombstones the slot in place
  /// (live = false) so index bucket positions stay valid until the next
  /// compaction renumbers them.
  template <typename Scope>
  struct Slot {
    Scope scope;
    Generation generation = 0;
    uint64_t sequence = 0;
    bool live = true;
  };

  /// Per-scope-type storage: the slots in registration order plus the
  /// count of tombstoned slots awaiting compaction.
  template <typename Scope>
  struct Store {
    std::vector<Slot<Scope>> slots;
    size_t dead = 0;

    size_t live_count() const { return slots.size() - dead; }
  };

  enum class ScopeType : uint8_t {
    kOperatorMetric,
    kPeMetric,
    kPeFailure,
    kJobEvent,
    kUserEvent,
  };
  /// Locates one stored subscope for the key map.
  struct SlotRef {
    ScopeType type;
    uint32_t position;
  };

  /// Candidate subscope positions for an event: the union of the relevant
  /// index buckets and the residual set, deduplicated and restored to
  /// registration order. Tombstoned positions are filtered later, at match
  /// time.
  static std::vector<uint32_t> GatherCandidates(
      std::initializer_list<const Bucket*> buckets);
  static const Bucket* Lookup(const StringIndex& index,
                              const std::string& key);
  static const Bucket* Lookup(const PeIndex& index, common::PeId pe);

  /// Identifies one inverted index for the incremental cardinality
  /// counters (index_stats()).
  enum IndexId : uint8_t {
    kOpMetricByMetric = 0,
    kOpMetricByApplication,
    kOpMetricResidual,
    kPeMetricByMetric,
    kPeMetricByPe,
    kPeMetricByApplication,
    kPeMetricResidual,
    kPeFailureByApplication,
    kPeFailureResidual,
    kJobEventByApplication,
    kJobEventResidual,
    kUserEventByName,
    kUserEventResidual,
    kIndexCount,
  };
  /// entries/live counters of one index; bucket counts come from the maps
  /// themselves (O(1) size()).
  struct IndexCard {
    size_t entries = 0;
    size_t live = 0;
  };
  void BumpIndex(IndexId id, size_t count) {
    index_cards_[id].entries += count;
    index_cards_[id].live += count;
  }
  void DropIndex(IndexId id, size_t count) {
    IndexCard& card = index_cards_[id];
    card.live = card.live >= count ? card.live - count : 0;
  }
  void ResetIndex(IndexId id) { index_cards_[id] = IndexCard{}; }

  // Index-insert for one scope at a given position; used by Register and
  // replayed over live slots when a store is rebuilt after compaction.
  // Also feeds the incremental cardinality counters and (for the metric
  // stores) the planner's shape indexes, so plan state rebuilds in
  // lockstep with the legacy indexes.
  void IndexScope(const OperatorMetricScope& scope, uint32_t position);
  void IndexScope(const PeMetricScope& scope, uint32_t position);
  void IndexScope(const PeFailureScope& scope, uint32_t position);
  void IndexScope(const JobEventScope& scope, uint32_t position);
  void IndexScope(const UserEventScope& scope, uint32_t position);

  // Tombstone-side counterpart of IndexScope: decrements the cardinality
  // counters and tombstones the planner postings for one slot being
  // killed (Unregister, generation retirement, migration extraction).
  // Must run while slot.scope is still intact.
  void UnindexScope(const OperatorMetricScope& scope, uint32_t position);
  void UnindexScope(const PeMetricScope& scope, uint32_t position);
  void UnindexScope(const PeFailureScope& scope, uint32_t position);
  void UnindexScope(const JobEventScope& scope, uint32_t position);
  void UnindexScope(const UserEventScope& scope, uint32_t position);

  /// The planner's view of a metric scope: its indexable attribute values
  /// (deduplicated, so Add/Kill stay symmetric). Operator-metric
  /// attributes: metric, application, operator name; PE-metric: metric,
  /// PE id (stringified), application.
  static plan::AttributeValues PlanValuesOf(const OperatorMetricScope& scope);
  static plan::AttributeValues PlanValuesOf(const PeMetricScope& scope);

  /// Recompiles dirty plans; called at the end of every mutating public
  /// operation (mutations run on the owning thread with lookups
  /// quiesced, so lookups never see a compile in flight).
  void PreparePlans();

  // Clears every index member belonging to one store — the single place
  // that knows which index members a store owns (Clear and compaction
  // must stay in lockstep with IndexScope).
  void ClearIndexesFor(const Store<OperatorMetricScope>&);
  void ClearIndexesFor(const Store<PeMetricScope>&);
  void ClearIndexesFor(const Store<PeFailureScope>&);
  void ClearIndexesFor(const Store<JobEventScope>&);
  void ClearIndexesFor(const Store<UserEventScope>&);

  template <typename Scope>
  void RegisterIn(Store<Scope>& store, ScopeType type, Scope scope);

  /// RegisterIn with an explicit generation + sequence (the migration
  /// replay path; does not consume this registry's counters).
  template <typename Scope>
  void AppendExtracted(Store<Scope>& store, ScopeType type, Scope scope,
                       Generation generation, uint64_t sequence);
  /// Moves one live slot's scope + stamps into `out` and tombstones the
  /// slot; false if it was already dead.
  template <typename Scope>
  bool TakeSlot(Store<Scope>& store, uint32_t position,
                std::vector<ExtractedScope>& out);
  /// Re-establishes ascending-sequence slot order for one store after
  /// out-of-order appends: drops dead slots, sorts live ones by sequence,
  /// rebuilds the store's indexes. Returns true when positions moved.
  template <typename Scope, typename ClearIndexes>
  bool RestoreSequenceOrder(Store<Scope>& store, ClearIndexes clear_indexes);

  /// Tombstones the slot if live; updates the store's dead count.
  template <typename Scope>
  bool Kill(Store<Scope>& store, uint32_t position);

  /// Tombstones the generation's slots; appends their keys to
  /// `retired_keys` so RetireGeneration can scrub the key map in time
  /// proportional to the retired set, not the whole registry.
  template <typename Scope>
  size_t RetireGenerationIn(Store<Scope>& store, Generation generation,
                            std::vector<std::string>& retired_keys);

  /// Whether the slot a key-map ref points at is still live.
  bool RefLive(const SlotRef& ref) const;

  /// Compacts any store whose dead count passed the threshold, then
  /// rebuilds the key map if anything moved.
  void MaybeCompact();
  template <typename Scope, typename ClearIndexes>
  bool CompactStore(Store<Scope>& store, ClearIndexes clear_indexes);
  void RebuildKeyMap();

  // Operator metric subscopes: indexed by metric name, else by
  // application, else residual.
  Store<OperatorMetricScope> operator_metric_;
  StringIndex operator_metric_by_metric_;
  StringIndex operator_metric_by_application_;
  Bucket operator_metric_residual_;

  // PE metric subscopes: indexed by metric name, else PE id, else
  // application, else residual.
  Store<PeMetricScope> pe_metric_;
  StringIndex pe_metric_by_metric_;
  PeIndex pe_metric_by_pe_;
  StringIndex pe_metric_by_application_;
  Bucket pe_metric_residual_;

  // PE failure subscopes: indexed by application, else residual.
  Store<PeFailureScope> pe_failure_;
  StringIndex pe_failure_by_application_;
  Bucket pe_failure_residual_;

  // Job event subscopes: indexed by application, else residual.
  Store<JobEventScope> job_event_;
  StringIndex job_event_by_application_;
  Bucket job_event_residual_;

  // User event subscopes: indexed by event name, else residual.
  Store<UserEventScope> user_event_;
  StringIndex user_event_by_name_;
  Bucket user_event_residual_;

  /// key → live slots registered under it (keys are normally unique, but
  /// duplicates are tolerated: Unregister removes them all). Rebuilt
  /// whenever compaction renumbers positions.
  std::unordered_map<std::string, std::vector<SlotRef>> key_map_;

  /// Incremental per-index cardinalities (see index_stats()).
  std::array<IndexCard, kIndexCount> index_cards_{};

  /// Planner state — null while disabled. Only the two metric stores get
  /// shape indexes: they are the stores with several indexable attributes
  /// (the other scope types have at most one, where the legacy
  /// first-non-empty index is already the best plan).
  std::unique_ptr<plan::ShapeIndex> operator_metric_plan_;
  std::unique_ptr<plan::ShapeIndex> pe_metric_plan_;
  plan::PlannerPolicy planner_policy_;

  Generation current_generation_ = 0;
  uint64_t next_sequence_ = 0;
  size_t compaction_threshold_ = 16;
  size_t compactions_ = 0;
};

}  // namespace orcastream::orca

#endif  // ORCASTREAM_ORCA_SCOPE_REGISTRY_H_
