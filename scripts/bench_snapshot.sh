#!/usr/bin/env bash
# Perf-trajectory snapshot: run table1 on a small fixed grid and distill
# each cell's per-variant simulated instruction cycles + modelled time
# (deterministic) and host simulation wall-clock (volatile, machine-
# dependent) into BENCH_table1.json at the repo root, then the serving,
# sharding, ropes, fusion and memprof baselines into their BENCH_*.json
# files. Commit the refreshed files alongside performance-relevant PRs so
# later PRs can diff both the modelled cost and the simulator's own speed
# against this baseline.
#
# Usage: scripts/bench_snapshot.sh [table1.json [serving.json
#                                   [sharding.json [ropes.json]]]]
#        scripts/bench_snapshot.sh --check
#
# --check regenerates all six snapshots into a temporary directory and
# fails on any difference from the committed files outside the volatile
# fields (git_sha, install_ms and the host wall-clock fields), so modelled
# drift cannot land silently.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${BUILD_DIR:-$repo/build}"

work="$(mktemp -d "${TMPDIR:-/tmp}/bench_snapshot_XXXX")"
trap 'rm -rf "$work"' EXIT

check=0
if [[ "${1:-}" == "--check" ]]; then
  check=1
  shift
  set -- "$work/BENCH_table1.json" "$work/BENCH_serving.json" \
    "$work/BENCH_sharding.json" "$work/BENCH_ropes.json"
  FUSION_JSON="$work/BENCH_fusion.json"
  MEMPROF_JSON="$work/BENCH_memprof.json"
fi
out="${1:-$repo/BENCH_table1.json}"

if [[ ! -x "$build/bench/table1" ]]; then
  echo "== building table1 =="
  cmake -S "$repo" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$build" -j "$(nproc 2>/dev/null || echo 4)" --target table1
fi

raw="$work/table1_raw.json"
batch_raw="$work/table1_batch_raw.json"

echo "== table1 (pc+nn, 512 points) =="
"$build/bench/table1" --benchmarks=pc,nn --points=512 \
  --json="$raw" --json-volatile >/dev/null

echo "== table1 --batch (all five, 512 points/bodies) =="
"$build/bench/table1" --batch --points=512 --bodies=512 \
  --json="$batch_raw" >/dev/null

python3 - "$raw" "$batch_raw" "$out" <<'PY'
import json, sys

raw_path, batch_path, out_path = sys.argv[1], sys.argv[2], sys.argv[3]
with open(raw_path) as f:
    report = json.load(f)
with open(batch_path) as f:
    batch_report = json.load(f)

snapshot = {
    "schema": "treetrav.bench_snapshot/v1",
    "source": "table1 --benchmarks=pc,nn --points=512",
    "git_sha": report.get("git_sha", "unknown"),
    "cells": [],
}
for row in report["rows"]:
    cfg = row["config"]
    cell = {
        "benchmark": cfg["algo"],
        "input": cfg["input"],
        "order": "sorted" if cfg["sorted"] else "unsorted",
        "n": cfg["n"],
        "variants": {},
    }
    for name, v in row["variants"].items():
        if not v.get("ok", False):
            cell["variants"][name] = {"error": v.get("error", "failed")}
            continue
        entry = {
            "instr_cycles": v["stats"]["instr_cycles"],
            "modelled_ms": v["time_ms"],
            "host_sim_wall_ms": v.get("sim_wall_ms"),
        }
        if "selection" in v:
            entry["selection"] = {
                "chosen": v["selection"]["chosen"],
                "mean_similarity": v["selection"]["mean_similarity"],
                "baseline_similarity": v["selection"]["baseline_similarity"],
                "sampling_cycles": v["selection"]["sampling_cycles"],
            }
        cell["variants"][name] = entry
    snapshot["cells"].append(cell)

# Batched columns: the five Table-1 kernels as one simulated launch.
# Per-kernel numbers equal the solo rows by contract; what this snapshot
# tracks is the schedule accounting and the amortized transfer saving.
b = batch_report.get("batch")
if b is not None:
    batch = {
        "source": "table1 --batch --points=512 --bodies=512",
        "policy": b["policy"],
        "variant": b["variant"],
        "residency": b["residency"],
        "total_chunks": b["total_chunks"],
        "rounds": b["rounds"],
        "switches": b["switches"],
        "transfer": {
            "amortized_ms": b["transfer"]["amortized_ms"],
            "summed_solo_ms": b["transfer"]["summed_solo_ms"],
        },
        "kernels": {},
    }
    for k in b["kernels"]:
        if not k.get("ok", False):
            batch["kernels"][k["kernel"]] = {"error": k.get("error", "failed")}
            continue
        batch["kernels"][k["kernel"]] = {
            "instr_cycles": k["stats"]["instr_cycles"],
            "modelled_ms": k["time_ms"],
            "solo_transfer_ms": k["solo_transfer_ms"],
        }
    snapshot["batch"] = batch

with open(out_path, "w") as f:
    json.dump(snapshot, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {out_path} ({len(snapshot['cells'])} cells)")
PY

# Serving baseline: the same pc+nn pool under an open-loop Poisson trace
# at a pinned rate, distilled into BENCH_serving.json -- headline
# percentiles, queue telemetry, and the drain-cadence sweep. Everything
# in it is modelled time, so the file only changes when behavior does.
serving_out="${2:-$repo/BENCH_serving.json}"
serving_raw="$work/serving_raw.json"

if [[ ! -x "$build/bench/serving" ]]; then
  echo "== building serving =="
  cmake --build "$build" -j "$(nproc 2>/dev/null || echo 4)" --target serving
fi

echo "== serving (pc+nn pool, 256 queries, poisson @ 400 qps) =="
"$build/bench/serving" --benchmarks=pc,nn --points=512 --queries=256 \
  --rate-qps=400 --json="$serving_raw" >/dev/null

python3 - "$serving_raw" "$serving_out" <<'PY'
import json, sys

raw_path, out_path = sys.argv[1], sys.argv[2]
with open(raw_path) as f:
    report = json.load(f)

s = report["serving"]
snapshot = {
    "schema": "treetrav.bench_snapshot.serving/v1",
    "source": "serving --benchmarks=pc,nn --points=512 --queries=256 "
              "--rate-qps=400",
    "git_sha": report.get("git_sha", "unknown"),
    "arrivals": s["arrivals"],
    "rate_qps": s["rate_qps"],
    "queries": s["queries"],
    "drain_policy": s["drain_policy"],
    "completed": s["completed"],
    "dropped": s["dropped"],
    "drains": len(s["drains"]),
    "throughput_qps": s["throughput_qps"],
    "occupancy": s["occupancy"],
    "latency_ms": {k: s["latency_ms"][k] for k in ("p50", "p95", "p99", "max")},
    "queue_delay_p50_ms": s["queue_delay_ms"]["p50"],
    "queue": s["queue"],
    "transfer": {
        "amortized_ms": s["transfer"]["amortized_ms"],
        "summed_solo_ms": s["transfer"]["summed_solo_ms"],
    },
    "sweep": [
        {
            "max_delay_ms": p["max_delay_ms"],
            "drains": p["drains"],
            "mean_batch": p["mean_batch"],
            "p50_ms": p["p50_ms"],
            "p99_ms": p["p99_ms"],
            "transfer_saved_ms": p["transfer_saved_ms"],
        }
        for p in s["sweep"]
    ],
}
with open(out_path, "w") as f:
    json.dump(snapshot, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {out_path} ({len(snapshot['sweep'])} sweep points)")
PY

# Sharding baseline: the same pc+nn pool split across the simulated
# device group, distilled into BENCH_sharding.json -- per-kernel
# makespan speedup, per-device load balance, and the device-count x
# chunk-size sweep. All modelled time; changes only when behavior does.
sharding_out="${3:-$repo/BENCH_sharding.json}"
sharding_raw="$work/sharding_raw.json"

if [[ ! -x "$build/bench/sharding" ]]; then
  echo "== building sharding =="
  cmake --build "$build" -j "$(nproc 2>/dev/null || echo 4)" --target sharding
fi

echo "== sharding (pc+nn pool, 1,2,4 devices) =="
"$build/bench/sharding" --benchmarks=pc,nn --points=512 \
  --json="$sharding_raw" >/dev/null

python3 - "$sharding_raw" "$sharding_out" <<'PY'
import json, sys

raw_path, out_path = sys.argv[1], sys.argv[2]
with open(raw_path) as f:
    report = json.load(f)

d = report["devices"]
snapshot = {
    "schema": "treetrav.bench_snapshot.sharding/v1",
    "source": "sharding --benchmarks=pc,nn --points=512",
    "git_sha": report.get("git_sha", "unknown"),
    "devices": d["devices"],
    "chunk_points": d["chunk_points"],
    "policy": d["policy"],
    "variant": d["variant"],
    "single_device_ms": d["single_device_ms"],
    "makespan_ms": d["makespan_ms"],
    "speedup": d["speedup"],
    "kernels": {},
    "sweep": [
        {
            "devices": p["devices"],
            "chunk_points": p["chunk_points"],
            "speedup": p["speedup"],
            "overlap_efficiency": p["overlap_efficiency"],
        }
        for p in d["sweep"]
    ],
}
for k in d["kernels"]:
    if not k.get("ok", False):
        snapshot["kernels"][k["kernel"]] = {"error": k.get("error", "failed")}
        continue
    snapshot["kernels"][k["kernel"]] = {
        "points": k["points"],
        "chunks": k["chunks"],
        "variant": k["variant"],
        "single_device_ms": k["single_device_ms"],
        "makespan_ms": k["makespan_ms"],
        "speedup": k["speedup"],
        "per_device": [
            {
                "device": p["device"],
                "chunks": p["chunks"],
                "steals": p["steals"],
                "busy_ms": p["busy_ms"],
                "overlap_ms": p["overlap_ms"],
            }
            for p in k["per_device"]
        ],
    }
with open(out_path, "w") as f:
    json.dump(snapshot, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {out_path} ({len(snapshot['sweep'])} sweep points)")
PY

# Ropes baseline: the static-ropes-vs-autoropes ablation plus the
# stackless x cache-size sweep, distilled into BENCH_ropes.json -- per
# (benchmark, order, variant) the modelled time, DRAM transactions,
# node-cache hit rate, the stack bucket (pinned at zero for stackless
# compositions) and the speedup over the per-warp shared-memory stack.
# All modelled time; changes only when behavior does.
ropes_out="${4:-$repo/BENCH_ropes.json}"
ropes_raw="$work/ropes_raw.json"

if [[ ! -x "$build/bench/ablation_ropes" ]]; then
  echo "== building ablation_ropes =="
  cmake --build "$build" -j "$(nproc 2>/dev/null || echo 4)" \
    --target ablation_ropes
fi

echo "== ablation_ropes (pc+bh, 512 points, stackless cache sweep) =="
"$build/bench/ablation_ropes" --points=512 --json-volatile \
  --json="$ropes_raw" >/dev/null

python3 - "$ropes_raw" "$ropes_out" <<'PY'
import json, sys

raw_path, out_path = sys.argv[1], sys.argv[2]
with open(raw_path) as f:
    report = json.load(f)

tables = {t["name"]: t for t in report.get("tables", [])}

def rows_as_dicts(table):
    header = table["header"]
    return [dict(zip(header, cells)) for cells in table["rows"]]

# Host wall-clock of the rope install pass (a volatile table), per
# (benchmark, order); autoropes rows install nothing.
install = {(r["Benchmark"], r["Order"]): float(r["Install(ms)"])
           for r in rows_as_dicts(tables["ropes_install"])}

snapshot = {
    "schema": "treetrav.bench_snapshot.ropes/v1",
    "source": "ablation_ropes --points=512",
    "git_sha": report.get("git_sha", "unknown"),
    "ablation": [
        {
            "benchmark": r["Benchmark"],
            "order": r["Order"],
            "type": r["Type"],
            "technique": r["Technique"],
            "modelled_ms": float(r["Time(ms)"]),
            "dram_transactions": int(r["DRAM txn"]),
            "install_ms": install[(r["Benchmark"], r["Order"])]
                          if r["Technique"] == "static-ropes" else 0.0,
        }
        for r in rows_as_dicts(tables["ablation_ropes"])
    ],
    "stackless_sweep": [
        {
            "benchmark": r["Benchmark"],
            "order": r["Order"],
            "variant": r["Variant"],
            "cache_kib": r["Cache(KiB)"],
            "modelled_ms": float(r["Time(ms)"]),
            "dram_transactions": int(r["DRAM txn"]),
            "hit_rate_pct": float(r["Hit%"]),
            "stack_cycles": float(r["Stack cyc"]),
            "speedup_vs_stack": float(r["Speedup vs stack"]),
        }
        for r in rows_as_dicts(tables["stackless_cache_sweep"])
    ],
}
for p in snapshot["stackless_sweep"]:
    assert p["stack_cycles"] == 0.0, f"stackless row charged stack cycles: {p}"
with open(out_path, "w") as f:
    json.dump(snapshot, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {out_path} ({len(snapshot['stackless_sweep'])} sweep points)")
PY

# Fusion baseline: both fused traversal pairs (k-NN + NN over one kd-tree;
# consecutive BH timesteps over a refit octree) against their sequential
# baselines, distilled into BENCH_fusion.json -- per (pair, variant) the
# fused vs summed-constituent lane visits, the visit / mem_stall cycle
# savings, the shared-load elision count, and the byte-identity verdict.
# All modelled time; changes only when behavior does.
fusion_out="${FUSION_JSON:-$repo/BENCH_fusion.json}"
fusion_raw="$work/fusion_raw.json"

if [[ ! -x "$build/bench/fusion" ]]; then
  echo "== building fusion =="
  cmake --build "$build" -j "$(nproc 2>/dev/null || echo 4)" --target fusion
fi

echo "== fusion (both pairs, 512 points/bodies) =="
"$build/bench/fusion" --points=512 --bodies=512 \
  --json="$fusion_raw" >/dev/null

python3 - "$fusion_raw" "$fusion_out" <<'PY'
import json, sys

raw_path, out_path = sys.argv[1], sys.argv[2]
with open(raw_path) as f:
    report = json.load(f)

fu = report["fusion"]
snapshot = {
    "schema": "treetrav.bench_snapshot.fusion/v1",
    "source": "fusion --points=512 --bodies=512",
    "git_sha": report.get("git_sha", "unknown"),
    "pairs": [],
}
for pair in fu["pairs"]:
    entry = {
        "fused": pair["fused"],
        "first": pair["first"],
        "second": pair["second"],
        "points": pair["points"],
        "variants": {},
    }
    for v in pair["variants"]:
        if not v.get("ok", False):
            entry["variants"][v["variant"]] = {"error": v.get("error", "failed")}
            continue
        assert v["byte_identical"], f"fused results diverged: {v}"
        entry["variants"][v["variant"]] = {
            "fused_lane_visits": v["fused_stats"]["lane_visits"],
            "sequential_lane_visits": v["sequential_stats"]["lane_visits"],
            "shared_loads_elided": v["fused_stats"]["shared_loads_elided"],
            "visit_cycles_saved": v["visit_cycles_saved"],
            "mem_stall_cycles_saved": v["mem_stall_cycles_saved"],
            "fused_modelled_ms": v["fused_time"]["total_ms"],
            "sequential_modelled_ms": v["sequential_time"]["total_ms"],
        }
    snapshot["pairs"].append(entry)

# The snapshot's headline claim: fusion saves visit cycles on at least one
# pair under every measured variant (the merged walk is the union).
for pair in snapshot["pairs"]:
    ok_rows = [v for v in pair["variants"].values() if "error" not in v]
    assert ok_rows, f"no measured variants for {pair['fused']}"
    assert any(v["visit_cycles_saved"] > 0 for v in ok_rows), \
        f"no visit savings for {pair['fused']}"
with open(out_path, "w") as f:
    json.dump(snapshot, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {out_path} ({len(snapshot['pairs'])} pairs)")
PY

# Memory-telescope baseline: the memprof per-buffer / per-field traffic
# attribution sweep, distilled into BENCH_memprof.json -- the hot-buffer
# table, the per-field node-array split, the worst-coalesced sites and the
# section-5 layout_split comparison (split nodes0/nodes1 vs one
# interleaved record, on per-visit node-array DRAM transactions). The
# headline assertion: for the rope (stackless) traversal -- whose hot set
# excludes the children half -- the split layout must reduce per-visit
# DRAM versus interleaved, in every measured point order. All counters are
# modelled; the file changes only when behavior does.
memprof_out="${MEMPROF_JSON:-$repo/BENCH_memprof.json}"
memprof_raw="$work/memprof_raw.json"

if [[ ! -x "$build/bench/memprof" ]]; then
  echo "== building memprof =="
  cmake --build "$build" -j "$(nproc 2>/dev/null || echo 4)" --target memprof
fi

echo "== memprof (pc+nn sweep, 512 points, layout split) =="
"$build/bench/memprof" --points=512 --profile \
  --json="$memprof_raw" >/dev/null

python3 - "$memprof_raw" "$memprof_out" <<'PY'
import json, sys

raw_path, out_path = sys.argv[1], sys.argv[2]
with open(raw_path) as f:
    report = json.load(f)

tables = {t["name"]: t for t in report.get("tables", [])}

def rows_as_dicts(table):
    header = table["header"]
    return [dict(zip(header, cells)) for cells in table["rows"]]

snapshot = {
    "schema": "treetrav.bench_snapshot.memprof/v1",
    "source": "memprof --points=512 --profile",
    "git_sha": report.get("git_sha", "unknown"),
    "hot_buffers": [
        {
            "kernel": r["Kernel"],
            "order": r["Order"],
            "variant": r["Variant"],
            "buffer": r["Buffer"],
            "load_groups": int(r["Groups"]),
            "replayed_loads": int(r["Replays"]),
            "issued_segments": int(r["Segs"]),
            "coalescing_efficiency": float(r["Eff"]),
            "l2_hit_transactions": int(r["L2 hit"]),
            "dram_transactions": int(r["DRAM"]),
            "dram_bytes": int(r["DRAM B"]),
            "mem_stall_cycles": float(r["Stall cyc"]),
        }
        for r in rows_as_dicts(tables["memory_hot"])
    ],
    "node_fields": [
        {
            "kernel": r["Kernel"],
            "order": r["Order"],
            "buffer": r["Buffer"],
            "field": r["Field"],
            "transactions": float(r["Txn"]),
            "dram": float(r["DRAM"]),
            "dram_bytes": float(r["DRAM B"]),
            "mem_stall_cycles": float(r["Stall cyc"]),
            "stall_share_pct": float(r["Stall %"]),
        }
        for r in rows_as_dicts(tables["memory_fields"])
    ],
    "worst_coalesced": [
        {
            "kernel": r["Kernel"],
            "order": r["Order"],
            "variant": r["Variant"],
            "buffer": r["Buffer"],
            "coalescing_efficiency": float(r["Eff"]),
            "issued_segments": int(r["Issued"]),
            "ideal_segments": int(r["Ideal"]),
        }
        for r in rows_as_dicts(tables["memory_coalesce"])
    ],
    "layout_split": [
        {
            "order": r["Order"],
            "variant": r["Variant"],
            "layout": r["Layout"],
            "node_dram_transactions": int(r["Node DRAM"]),
            "lane_visits": int(r["Lane visits"]),
            "dram_per_visit": float(r["DRAM/visit"]),
        }
        for r in rows_as_dicts(tables["layout_split"])
    ],
}

for r in snapshot["hot_buffers"]:
    assert 0.0 < r["coalescing_efficiency"] <= 1.0, f"efficiency out of range: {r}"

# Headline: the usage-based split decision. Rope traversal never touches
# the children/leaf_range half, so the split layout's densely packed bbox
# bytes must cost less DRAM per visit than the interleaved record.
by_key = {}
for r in snapshot["layout_split"]:
    by_key[(r["order"], r["variant"], r["layout"])] = r["dram_per_visit"]
checked = 0
for (order, variant, layout), split_pv in by_key.items():
    if layout != "split" or not variant.startswith("stackless"):
        continue
    inter_pv = by_key[(order, variant, "interleaved")]
    assert split_pv < inter_pv, (
        f"split did not reduce per-visit DRAM for {order}/{variant}: "
        f"{split_pv} vs {inter_pv}")
    checked += 1
assert checked > 0, "no stackless layout_split rows to check"

with open(out_path, "w") as f:
    json.dump(snapshot, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {out_path} ({len(snapshot['layout_split'])} layout rows)")
PY

if [[ $check -eq 1 ]]; then
  python3 - "$repo" "$work" <<'PY'
import json, os, sys

repo, fresh_dir = sys.argv[1], sys.argv[2]
# Fields that legitimately differ between runs: the commit, the host's
# wall-clock measurements of the simulator and of the rope install pass.
VOLATILE = {"git_sha", "install_ms", "host_sim_wall_ms"}

def diffs(a, b, path):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k in VOLATILE:
                continue
            if k not in a or k not in b:
                yield f"{path}.{k}: only in {'fresh' if k in b else 'committed'}"
            else:
                yield from diffs(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield f"{path}: {len(a)} committed entries vs {len(b)} fresh"
        for i, (x, y) in enumerate(zip(a, b)):
            yield from diffs(x, y, f"{path}[{i}]")
    elif a != b:
        yield f"{path}: committed {a!r} vs fresh {b!r}"

failed = False
for name in ("BENCH_table1.json", "BENCH_serving.json",
             "BENCH_sharding.json", "BENCH_ropes.json",
             "BENCH_fusion.json", "BENCH_memprof.json"):
    with open(os.path.join(repo, name)) as f:
        committed = json.load(f)
    with open(os.path.join(fresh_dir, name)) as f:
        fresh = json.load(f)
    found = list(diffs(committed, fresh, name))
    if found:
        failed = True
        print(f"DRIFT {name}: {len(found)} field(s) differ")
        for d in found[:20]:
            print(f"  {d}")
    else:
        print(f"ok    {name}")
sys.exit(1 if failed else 0)
PY
fi
