#!/usr/bin/env bash
# Runs the event-routing benchmarks and emits BENCH_event_routing.json at
# the repo root — the perf trajectory record for the EventBus +
# ScopeRegistry delivery pipeline (see ARCHITECTURE.md).
#
# Usage: scripts/bench.sh [--only KEY] [build-dir]   (default: build)
#
# --only reruns a single gated key and merge-updates its section of the
# recorded JSON, leaving every other section untouched. Keys:
#   scope_matching | scope_matching_churn | scope_matching_sharded
#   scope_matching_zipf | scope_matching_plan
#   event_delivery | event_delivery_async | event_delivery_async_actuating
#   latency_slo

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

ONLY=""
BUILD_DIR=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --only)
      [[ $# -ge 2 ]] || { echo "--only needs a key" >&2; exit 2; }
      ONLY="$2"
      shift 2
      ;;
    *)
      BUILD_DIR="$1"
      shift
      ;;
  esac
done
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build}"

# Which benchmark binary feeds each gated key.
RUN_SCOPE=0 RUN_SCALE=0 RUN_PLAN=0 RUN_DELIVERY=0 RUN_LATENCY=0
case "$ONLY" in
  "")
    RUN_SCOPE=1 RUN_SCALE=1 RUN_PLAN=1 RUN_DELIVERY=1 RUN_LATENCY=1 ;;
  scope_matching|scope_matching_churn|scope_matching_sharded)
    RUN_SCOPE=1 ;;
  scope_matching_zipf)
    RUN_SCALE=1 ;;
  scope_matching_plan)
    RUN_PLAN=1 ;;
  event_delivery|event_delivery_async|event_delivery_async_actuating)
    RUN_DELIVERY=1 ;;
  latency_slo)
    RUN_LATENCY=1 ;;
  *)
    echo "unknown --only key: $ONLY" >&2
    exit 2
    ;;
esac

TARGETS=()
(( RUN_SCOPE ))    && TARGETS+=(bench_scope_matching)
(( RUN_SCALE ))    && TARGETS+=(bench_scope_scale)
(( RUN_PLAN ))     && TARGETS+=(bench_predicate_plan)
(( RUN_DELIVERY )) && TARGETS+=(bench_event_delivery)

missing=0
for target in "${TARGETS[@]:+${TARGETS[@]}}"; do
  [[ -x "$BUILD_DIR/$target" ]] || missing=1
done
if (( missing )); then
  echo "building benches in $BUILD_DIR ..." >&2
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD_DIR" -j --target "${TARGETS[@]}"
fi

SCOPE_JSON="$BUILD_DIR/bench_scope_matching.json"
DELIVERY_JSON="$BUILD_DIR/bench_event_delivery.json"
SCALE_JSON="$BUILD_DIR/bench_scope_scale.json"
PLAN_JSON="$BUILD_DIR/bench_predicate_plan.json"

if (( RUN_SCOPE )); then
  "$BUILD_DIR/bench_scope_matching" \
    --benchmark_filter='Registry|Sharded' \
    --benchmark_format=json >"$SCOPE_JSON"
fi
if (( RUN_DELIVERY )); then
  "$BUILD_DIR/bench_event_delivery" \
    --benchmark_filter='BM_UserEventBurstDispatch|BM_EventBusRawDispatch|BM_MultiAppDelivery' \
    --benchmark_format=json >"$DELIVERY_JSON"
fi
if (( RUN_SCALE )); then
  "$BUILD_DIR/bench_scope_scale" \
    --benchmark_format=json >"$SCALE_JSON"
fi
if (( RUN_PLAN )); then
  "$BUILD_DIR/bench_predicate_plan" \
    --benchmark_filter='BM_Plan' \
    --benchmark_format=json >"$PLAN_JSON"
fi

if (( RUN_SCOPE || RUN_SCALE || RUN_PLAN || RUN_DELIVERY )); then
  RUN_SCOPE=$RUN_SCOPE RUN_SCALE=$RUN_SCALE RUN_PLAN=$RUN_PLAN \
  RUN_DELIVERY=$RUN_DELIVERY ONLY=$ONLY \
  python3 - "$SCOPE_JSON" "$DELIVERY_JSON" "$SCALE_JSON" "$PLAN_JSON" \
    "$REPO_ROOT/BENCH_event_routing.json" <<'EOF'
import json
import os
import sys

scope_path, delivery_path, scale_path, plan_path, out_path = sys.argv[1:6]
run_scope = os.environ["RUN_SCOPE"] == "1"
run_scale = os.environ["RUN_SCALE"] == "1"
run_plan = os.environ["RUN_PLAN"] == "1"
run_delivery = os.environ["RUN_DELIVERY"] == "1"
only = os.environ["ONLY"]

def load(path):
    with open(path) as f:
        return json.load(f)["benchmarks"]

def require(benches, name, field="items_per_second"):
    """Value of `field` for bench `name` (exact, or `name` plus
    benchmark-appended modifiers like /iterations:N/real_time). A missing
    bench or field is a recording bug — fail with the key, not a
    KeyError."""
    for bench in benches:
        if bench["name"] == name or bench["name"].startswith(name + "/"):
            if bench.get("error_occurred"):
                sys.exit(f"FAIL: benchmark '{bench['name']}' errored: "
                         f"{bench.get('error_message', 'unknown')}")
            if field not in bench:
                sys.exit(f"FAIL: benchmark '{bench['name']}' reported no "
                         f"'{field}' (counter renamed or benchmark "
                         "errored?)")
            return bench[field]
    sys.exit(f"FAIL: benchmark '{name}' missing from benchmark output "
             "(renamed, filtered out, or failed to run?)")

# Merge-update: sections not recomputed this run keep their recorded
# values. `--only KEY` recomputes the benchmark binary behind KEY but
# merges and gates KEY alone; sibling keys fed by the same binary keep
# their recorded values.
result = {}
if os.path.exists(out_path):
    with open(out_path) as f:
        result = json.load(f)

result["bench"] = "event_routing"
result["description"] = (
    "ScopeRegistry indexed routing vs preserved linear-scan reference at "
    "1k subscopes x 10k samples (static and register/match/unregister "
    "churn workloads), ShardedScopeRegistry multi-app SRM rounds at "
    "1/2/4/8 shards, million-scope Zipf-skew matching + delivery latency, "
    "predicate-planner ordered intersection vs fixed-order candidate "
    "merge, plus EventBus dispatch throughput (events/s)")

fresh = {}

if run_scope:
    scope = load(scope_path)
    indexed = require(scope, "BM_RegistryIndexed/1000/10000")
    linear = require(scope, "BM_RegistryLinearScan/1000/10000")
    churn_indexed = require(scope, "BM_RegistryChurnIndexed/1000/10000")
    churn_linear = require(scope, "BM_RegistryChurnLinear/1000/10000")
    sharded = {
        n: require(scope, f"BM_ShardedSnapshot/{n}/1000/10000/real_time")
        for n in (1, 2, 4, 8)
    }
    sharded_linear = require(scope, "BM_ShardedSnapshotLinear/1000/10000")
    fresh["scope_matching"] = {
        "indexed_items_per_second": indexed,
        "linear_items_per_second": linear,
        "speedup": indexed / linear,
        "required_speedup": 5.0,
    }
    fresh["scope_matching_churn"] = {
        "indexed_items_per_second": churn_indexed,
        "linear_items_per_second": churn_linear,
        "speedup": churn_indexed / churn_linear,
        "required_speedup": 5.0,
    }
    # One whole multi-app SRM round (8 apps, 1k subscopes x 10k samples)
    # matched through ShardedScopeRegistry on the calling thread, vs the
    # linear scan over the same subscope population. The 4-shard case is
    # gated.
    fresh["scope_matching_sharded"] = {
        "sharded_items_per_second": {
            f"shards_{n}": value for n, value in sharded.items()
        },
        "indexed_items_per_second": sharded[4],
        "linear_items_per_second": sharded_linear,
        "speedup": sharded[4] / sharded_linear,
        "required_speedup": 5.0,
    }

if run_scale:
    scale = load(scale_path)
    zipf_sticky = "BM_ZipfMatchSticky/16/20000"
    zipf_unweighted = "BM_ZipfDeliveryUnweighted/100000"
    zipf_weighted = "BM_ZipfDeliveryWeighted/100000"
    unweighted_p99 = require(scale, zipf_unweighted, "p99_us")
    weighted_p99 = require(scale, zipf_weighted, "p99_us")
    # Million-scope scale under Zipf(s=1.1) skew: 1M subscopes across 10k
    # applications. Matching keeps each application on the shard its
    # first registration hashed it to (hot_shard_share = the hottest
    # shard's fraction of the round's samples; its floor is the head
    # application's traffic share). Delivery pushes 100k skewed events
    # through the async EventBus on a worker pool: FIFO one-at-a-time vs
    # weighted dispatch with 64-delivery batching, gated on p99
    # publish-to-handler latency (lower is better; speedup =
    # unweighted_p99/weighted_p99).
    fresh["scope_matching_zipf"] = {
        "scopes": 1000000,
        "applications": 10000,
        "zipf_s": 1.1,
        "sticky_items_per_second": require(scale, zipf_sticky),
        "sticky_hot_shard_share": require(scale, zipf_sticky,
                                          "hot_shard_share"),
        "delivery_unweighted_p50_us": require(scale, zipf_unweighted,
                                              "p50_us"),
        "delivery_unweighted_p99_us": unweighted_p99,
        "delivery_weighted_p50_us": require(scale, zipf_weighted, "p50_us"),
        "delivery_weighted_p99_us": weighted_p99,
        "speedup": unweighted_p99 / weighted_p99,
        "required_speedup": 2.0,
    }

if run_plan:
    plan = load(plan_path)
    planned = require(plan, "BM_PlanMatchPlanned/8000/2000/2000")
    fixed = require(plan, "BM_PlanMatchFixedOrder/8000/2000/2000")
    # Predicate planner (src/plan/): cardinality-ordered intersection
    # plans vs the fixed metric→application candidate merge on a
    # multi-tenant population (8k subscopes, 2k applications, 4 hot
    # metric names — hot metric buckets hold ~2k candidates while
    # application buckets hold ~4). Results are byte-identical; the
    # bench verifies planned == MatchedKeysLinear before timing. The
    # churn pair prices plan recompilation into the planned path.
    fresh["scope_matching_plan"] = {
        "planned_items_per_second": planned,
        "fixed_order_items_per_second": fixed,
        "linear_items_per_second":
            require(plan, "BM_PlanMatchLinear/8000/2000/2000"),
        "churn_planned_items_per_second":
            require(plan, "BM_PlanChurnPlanned/8000/2000/2000"),
        "churn_fixed_order_items_per_second":
            require(plan, "BM_PlanChurnFixedOrder/8000/2000/2000"),
        "speedup": planned / fixed,
        "required_speedup": 2.0,
    }

if run_delivery:
    delivery = load(delivery_path)
    fresh["event_delivery"] = {
        "service_burst_1000_items_per_second":
            require(delivery, "BM_UserEventBurstDispatch/1000"),
        "bus_raw_1000_items_per_second":
            require(delivery, "BM_EventBusRawDispatch/1000"),
    }
    # Per-application ordered queues on the ThreadPoolExecutor vs the
    # serial FIFO, 8 applications with blocking (sleep-modelled) handler
    # latency. The async layer overlaps the latency across applications,
    # so it must clear >=2x even on a single-core host.
    fresh["event_delivery_async"] = {
        "async_items_per_second":
            require(delivery, "BM_MultiAppDeliveryAsync/8/real_time"),
        "serial_items_per_second":
            require(delivery, "BM_MultiAppDeliverySerial/8/real_time"),
        "speedup": None,
        "required_speedup": 2.0,
    }
    # Same comparison with *actuating* handlers: every delivery performs
    # two OrcaContext actuations (staged + marshalled to the publishing
    # thread on the pool path, immediate on the serial path). Staging
    # must not eat the async win.
    fresh["event_delivery_async_actuating"] = {
        "async_items_per_second":
            require(delivery,
                    "BM_MultiAppDeliveryActuatingAsync/8/real_time"),
        "serial_items_per_second":
            require(delivery,
                    "BM_MultiAppDeliveryActuatingSerial/8/real_time"),
        "speedup": None,
        "required_speedup": 2.0,
    }
    for label in ("event_delivery_async", "event_delivery_async_actuating"):
        async_ips = fresh[label]["async_items_per_second"]
        serial_ips = fresh[label]["serial_items_per_second"]
        fresh[label]["speedup"] = async_ips / serial_ips

computed = [only] if only else list(fresh)
for label in computed:
    result[label] = fresh[label]

with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")

print(f"wrote {out_path}")
failed = False
for label in computed:
    if "speedup" not in result[label]:
        continue
    speedup = result[label]["speedup"]
    required = result[label]["required_speedup"]
    print(f"{label} speedup: "
          + (f"{speedup:.1f}x" if speedup else "n/a")
          + f" (required {required:g}x)")
    if speedup is not None and speedup < required:
        print(f"FAIL: {label} speedup below required {required:g}x",
              file=sys.stderr)
        failed = True
if failed:
    sys.exit(1)
EOF
fi

# --- Detection→actuation latency SLOs (soak scenarios) ----------------------
# Runs the three soak scenarios on the serial oracle via bench_latency_slo
# and gates the per-category reaction quantiles against the scenario SLO
# table (mirrors src/harness/slo_report.cc; all times are virtual seconds).

if (( ! RUN_LATENCY )); then
  exit 0
fi

if [[ ! -x "$BUILD_DIR/bench_latency_slo" ]]; then
  echo "building bench_latency_slo in $BUILD_DIR ..." >&2
  cmake --build "$BUILD_DIR" -j --target bench_latency_slo
fi

LATENCY_JSON="$BUILD_DIR/bench_latency_slo.json"
"$BUILD_DIR/bench_latency_slo" --benchmark_format=json >"$LATENCY_JSON"

python3 - "$LATENCY_JSON" "$REPO_ROOT/BENCH_latency_slo.json" <<'EOF'
import json
import sys

latency_path, out_path = sys.argv[1:3]

with open(latency_path) as f:
    benches = json.load(f)["benchmarks"]

SCENARIOS = {
    "iot_fleet": "BM_IotFleetReaction",
    "fraud_pipeline": "BM_FraudPipelineReaction",
    "geo_trending": "BM_GeoTrendingReaction",
}

# category -> (p50 max, p99 max, min sample count); must match
# DefaultScenarioSlos() in src/harness/slo_report.cc.
SLOS = {
    "operatorMetric": (6.0, 12.0, 2),
    "peFailure": (2.0, 4.0, 1),
    "start": (2.0, 4.0, 1),
}

def require(name, field):
    """Counter `field` of bench `name`. A missing bench or counter is a
    recording bug — fail with the key, not a KeyError."""
    for bench in benches:
        if bench["name"] == name or bench["name"].startswith(name + "/"):
            if bench.get("error_occurred"):
                sys.exit(f"FAIL: benchmark '{name}' errored: "
                         f"{bench.get('error_message', 'unknown')} "
                         "(scenario invariants violated?)")
            if field not in bench:
                sys.exit(f"FAIL: benchmark '{name}' reported no '{field}' "
                         "(category never recorded a reaction sample, or "
                         "counter renamed?)")
            return bench[field]
    sys.exit(f"FAIL: benchmark '{name}' missing from benchmark output "
             "(renamed, filtered out, or failed to run?)")

failed = False
result = {
    "bench": "latency_slo",
    "description": "Detection→actuation reaction latency of the three soak "
                   "scenarios (iot_fleet elastic scaling, fraud_pipeline "
                   "model hot-swap, geo_trending cross-app dependencies) on "
                   "the serial oracle at the full 180 s duration with the "
                   "fault script on. Quantiles are virtual seconds from the "
                   "detection stamp (SRM collection / SAM failure "
                   "detection) to the actuation landing; the per-category "
                   "SLO table mirrors src/harness/slo_report.cc.",
    "slos": {
        category: {"p50_max_s": p50, "p99_max_s": p99, "min_count": count}
        for category, (p50, p99, count) in SLOS.items()
    },
    "scenarios": {},
}
for scenario, bench_name in SCENARIOS.items():
    entry = {"events_delivered": require(bench_name, "events")}
    for category, (p50_max, p99_max, min_count) in SLOS.items():
        count = require(bench_name, f"{category}_count")
        p50 = require(bench_name, f"{category}_p50_s")
        p99 = require(bench_name, f"{category}_p99_s")
        entry[category] = {
            "count": count,
            "p50_s": p50,
            "p99_s": p99,
            "max_s": require(bench_name, f"{category}_max_s"),
        }
        print(f"{scenario}/{category}: p50 {p50:.3f}s p99 {p99:.3f}s "
              f"({count:.0f} samples; SLO {p50_max:g}/{p99_max:g})")
        if count < min_count:
            print(f"FAIL: {scenario}/{category} recorded {count:.0f} "
                  f"samples, need >= {min_count}", file=sys.stderr)
            failed = True
        if p50 > p50_max:
            print(f"FAIL: {scenario}/{category} p50 {p50:.3f}s exceeds "
                  f"SLO {p50_max:g}s", file=sys.stderr)
            failed = True
        if p99 > p99_max:
            print(f"FAIL: {scenario}/{category} p99 {p99:.3f}s exceeds "
                  f"SLO {p99_max:g}s", file=sys.stderr)
            failed = True
    result["scenarios"][scenario] = entry

with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")

print(f"wrote {out_path}")
if failed:
    sys.exit(1)
EOF
