#!/usr/bin/env python3
"""Run one workload of the libtopo pipeline benchmark.

    python3 perfbench/run.py --workload suite-exact --seed 1 \
        --seconds 20 --trace 0

Run from the root of a source tree. The script builds libtopo, the
topo_sim tool and pipeline_bench from source (Release, into
.bench_build/), runs pipeline_bench, checks its results in lockstep with
`topo_sim --benchmark`, prints every metric with its unit, and ends
with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--workload all` runs every workload in turn with the same seed and
prefixes each metric in the JSON line with its workload's name.

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics;
with --trace 1 they are its per_layer metrics. The exit code is 0 only
when every output, lockstep and determinism check passed. See
perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_build" / "results"
WORKLOADS = ("suite-exact", "suite-parallel", "suite-sampled",
             "perturb-sweep")
# Every run must finish within this many seconds, build excluded.
RUN_LIMIT_S = 170


def source_revision():
    """Git sha when the tree is a checkout, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            return subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                check=True, capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def clean_env():
    """The process environment minus the TOPO_* option fallbacks."""
    return {k: v for k, v in os.environ.items() if not k.startswith("TOPO_")}


def build(env):
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release",
                 f"-DTOPO_GIT_SHA={source_revision()}"]
    for cmd in (configure,
                ["cmake", "--build", str(BUILD), "--parallel", jobs,
                 "--target", "pipeline_bench", "topo_sim"]):
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")


def run_bench(cmd, out, env, timeout):
    """Run pipeline_bench; return its exit code and the result it wrote."""
    out.unlink(missing_ok=True)
    done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                          timeout=max(1.0, timeout))
    if not out.exists():
        raise SystemExit(f"perfbench: pipeline_bench wrote no result "
                         f"(exit {done.returncode})")
    return done.returncode, json.loads(out.read_text())


def topo_sim_lockstep(canonical, env, tag, timeout):
    """Compare pipeline_bench's canonical-seed cells with topo_sim's."""
    metrics_out = RESULTS / f"{tag}.topo_sim_metrics.json"
    bench_out = RESULTS / f"{tag}.topo_sim_bench.json"
    cmd = [str(BUILD / "topo_sim"), f"--benchmark={canonical['benchmark']}",
           "--algorithms=default,ph,hkc,gbsc",
           f"--trace-scale={canonical['trace_scale']!r}",
           f"--jobs={canonical['jobs']}", "--log-level=warn",
           f"--metrics-out={metrics_out}", f"--bench-out={bench_out}"]
    if canonical["sampled"]:
        cmd.append("--sample=simpoint")
    done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, timeout))
    if done.returncode != 0:
        return False, f"topo_sim exited {done.returncode}: {done.stderr[-500:]}"
    runs = json.loads(bench_out.read_text())["runs"]
    mine = canonical["cells"]
    if [r["algorithm"] for r in runs] != [c["algorithm"] for c in mine]:
        return False, "algorithm lists differ"
    for run, cell in zip(runs, mine):
        if (run["accesses"], run["misses"]) != (cell["accesses"],
                                                cell["misses"]):
            return False, (f"{run['algorithm']}: topo_sim "
                           f"{run['accesses']}/{run['misses']} vs pipeline_bench "
                           f"{cell['accesses']}/{cell['misses']}")
    if not canonical["sampled"]:
        counters = json.loads(metrics_out.read_text())["counters"]
        for key in ("select_edges", "place_edges"):
            if counters.get(f"trg.{key}") != canonical[key]:
                return False, (f"trg.{key}: topo_sim "
                               f"{counters.get(f'trg.{key}')} vs pipeline_bench "
                               f"{canonical[key]}")
    return True, ""


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result, declared):
    """Human-readable lines: provenance, every metric, checks."""
    prov = result["provenance"]
    print(f"# workload {prov['workload']}  seed {prov['seed']}  "
          f"trace_scale {prov['trace_scale']}  jobs {prov['jobs']}  "
          f"nproc {prov['nproc']}")
    print(f"# build {prov['build_type']}  {prov['compiler']}  "
          f"sha {prov['git_sha']}  held-out seed {prov['heldout_seed']}")
    for name, m in result["metrics"].items():
        mark = " *" if name in declared else ""
        print(f"{name:32s} {fmt(m['value']):>14s} {m['unit']}{mark}")
    for bench, rows in result["per_benchmark"].items():
        # Self times largest first, then the other per-benchmark rows.
        for name, m in sorted(rows.items(), key=lambda kv: (
                kv[1]["unit"] != "ms" or kv[0].startswith("op_ms"),
                -kv[1]["value"])):
            print(f"  {bench:12s} {name:28s} {fmt(m['value']):>12s} "
                  f"{m['unit']}")
    for check in result["checks"]:
        status = "ok  " if check["ok"] else "FAIL"
        detail = f" — {check['detail']}" if check.get("detail") else ""
        print(f"check {status} {check['check']}{detail}")


def run_workload(workload, args, env, declared):
    """Run one workload; print its report; return its result line."""
    started = time.monotonic()
    tag = f"{workload}-seed{args.seed}-trace{args.trace}"
    canonical_path = RESULTS / f"{tag}.canonical.json"
    out = RESULTS / f"{tag}.json"
    canonical_path.unlink(missing_ok=True)
    cmd = [str(BUILD / "pipeline_bench"), f"--workload={workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds!r}",
           f"--trace={args.trace}", f"--out={out}",
           f"--canonical-out={canonical_path}"]
    if args.trace:
        cmd.append(f"--spans-out={RESULTS / (tag + '.spans.json')}")
    code, result = run_bench(cmd, out, env, RUN_LIMIT_S)

    ok, detail = False, "pipeline_bench failed before the canonical run"
    if canonical_path.exists():
        ok, detail = topo_sim_lockstep(
            json.loads(canonical_path.read_text()), env, tag,
            RUN_LIMIT_S - (time.monotonic() - started))
    result["checks"].append({"check": "topo_sim --benchmark lockstep",
                             "ok": ok, "detail": detail})

    report(result, declared)
    metrics = {}
    for name, unit in declared.items():
        measured = result["metrics"].get(name)
        if measured is None or measured["unit"] != unit:
            raise SystemExit(f"perfbench: metric {name} ({unit}) "
                             f"missing from pipeline_bench's result")
        metrics[name] = {"value": measured["value"], "unit": unit}
    return {"correct": code == 0 and result["correct"] and ok,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}

    env = clean_env()
    build(env)
    RESULTS.mkdir(parents=True, exist_ok=True)
    if args.workload != "all":
        line = run_workload(args.workload, args, env, declared)
    else:
        # Every workload in turn; metric names get a workload prefix.
        line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            part = run_workload(workload, args, env, declared)
            line["correct"] = line["correct"] and part["correct"]
            line["attempted"] += part["attempted"]
            line["failed"] += part["failed"]
            for name, metric in part["metrics"].items():
                line["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
