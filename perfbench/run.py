#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/lgbench from source, runs one
workload on one worker and prints the result as one JSON object on the last
line of stdout. See perfbench/README.md.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. Build outputs go to $CARGO_TARGET_DIR
(default .bench_build)/perfbench; result and span files to
<that dir>/out. --write-goldens <first>-<last> regenerates
perfbench/goldens.json for a range of seeds after an intended change of
simulated results.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("stress_fig08", "fct_testbed", "traffic_fabric", "deploy_year")
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 170
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens.json"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    """The environment the simulator sees: every LGSIM_* knob cleared, then
    the worker-count knobs pinned to one, so a stray variable cannot change
    what is measured."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("LGSIM_")}
    env.update(LGSIM_BENCH_JOBS="1", LGSIM_SHARDS="1", LGSIM_CORES="1")
    return env


def build(build_dir):
    """Configures (once) and builds lgbench; returns its path or None."""
    cmds = []
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", str(HERE), "-B", str(build_dir), *generator,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    cmds.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in cmds:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=child_env(), timeout=850)
        if r.returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    exe = build_dir / "lgbench"
    return exe if exe.exists() else None


PROBE_REF_S = 0.020  # kProbeRefS in bench.h


def setup_seconds(exe, args):
    """Median over several launches of the time from process start to the
    workload's first timed call: in reference seconds (each launch scaled by
    the host-speed probe it runs right after that call) and raw."""
    samples, raw = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic_ns()
        r = subprocess.run([str(exe), "--setup-only", "--workload", args.workload,
                            "--seed", str(args.seed), "--seconds", "1",
                            "--trace", "0"],
                           capture_output=True, text=True, env=child_env(),
                           timeout=CHILD_TIMEOUT_S)
        line = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else ""
        if r.returncode != 0 or not line.startswith("ready "):
            raise RuntimeError("setup-only run failed: " + r.stderr.strip())
        _, ready_ns, probe_s = line.split()
        raw.append((int(ready_ns) - t0) * 1e-9)
        samples.append(raw[-1] * PROBE_REF_S / float(probe_s))
    return statistics.median(samples), statistics.median(raw)


def run_lgbench(exe, workload, seed, seconds, trace, out_dir):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out_dir)]
    r = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                       timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise RuntimeError(f"lgbench exited with {r.returncode}")
    return lines[:-1], json.loads(lines[-1])


def git_describe():
    try:
        r = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                           cwd=ROOT, capture_output=True, text=True, timeout=30)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def source_hash():
    """SHA-256 over every file under src/ (path and content), which names
    the simulated program even where git describe cannot."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def load_goldens():
    return json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}


def gate(res, goldens):
    """Cell-level correctness: identity/determinism failures from lgbench
    plus, where goldens exist for this seed, digest equality. Returns
    (attempted, failed, golden_status)."""
    want = goldens.get(res["workload"], {}).get(str(res["seed"]))
    status = "checked" if want is not None else "no goldens for this seed"
    attempted = failed = 0
    for c in res["cells"]:
        attempted += c["runs"]
        bad = c["failed"]
        if want is not None and want.get(c["name"]) != c["digest"]:
            log(f"perfbench: cell {c['name']} digest {c['digest']} != golden "
                f"{want.get(c['name'])}")
            bad = c["runs"]
        if c["broken"]:
            log(f"perfbench: cell {c['name']} broke: {c['broken']}")
        failed += bad
    if want is not None and set(want) != {c["name"] for c in res["cells"]}:
        log("perfbench: cell names differ from the goldens")
        failed = max(failed, 1)
    return attempted, failed, status


def write_goldens(exe, seeds, out_dir):
    goldens = load_goldens()
    for w in WORKLOADS:
        for s in seeds:
            _, res = run_lgbench(exe, w, s, 0.001, 0, out_dir)
            broken = [c for c in res["cells"] if c["broken"] or c["failed"]]
            if broken:
                log(f"perfbench: {w} seed {s}: cells fail their identities: {broken}")
                return 1
            goldens.setdefault(w, {})[str(s)] = {c["name"]: c["digest"]
                                                 for c in res["cells"]}
            log(f"perfbench: goldens for {w} seed {s}")
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-goldens", metavar="FIRST-LAST")
    args = ap.parse_args()
    if args.workload is None and args.write_goldens is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / "perfbench"
    out_dir = build_dir / "out"
    try:
        exe = build(build_dir)
        if exe is None:
            return 1
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.write_goldens:
            first, last = (int(x) for x in args.write_goldens.split("-"))
            return write_goldens(exe, range(first, last + 1), out_dir)

        setup_s, raw_setup_s = (setup_seconds(exe, args) if args.trace == 0
                                else (None, None))
        text, res = run_lgbench(exe, args.workload, args.seed, args.seconds,
                                args.trace, out_dir)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1

    attempted, failed, golden_status = gate(res, load_goldens())
    metrics = dict(res["metrics"])
    if setup_s is not None:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    manifest = {
        "git_describe": git_describe(),
        "source_sha256": source_hash(),
        "compiler": res["compiler"],
        "flags": res["flags"],
        "build_type": res["build_type"],
        "nproc": os.cpu_count(),
        "workers": res["workers"],
        "seed": args.seed,
        "config_hash": res["config_hash"],
        "env": {k: v for k, v in child_env().items() if k.startswith("LGSIM_")},
        "batch_wall_s": res["batch_wall_s"],
        "cpu_over_wall": res["cpu_over_wall"],
        "rate": {res["rate_name"]: res["ops_per_s"]},
        "peak_rss_mb": res["peak_rss_mb"],
        "probe_s": res["probe_s"],
        "raw_wall_s": res["raw_wall_s"],
        "raw_cpu_s": res["raw_cpu_s"],
        "raw_setup_s": raw_setup_s,
        "goldens": golden_status,
    }
    record = {"workload": args.workload, "trace": args.trace, "manifest": manifest,
              "attempted": attempted, "failed": failed, "metrics": metrics,
              "unmeasured": res["unmeasured"], "cells": res["cells"],
              "cell_wall_s": res["cell_wall_s"]}
    path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for line in text:
        print(line)
    print("manifest " + json.dumps(manifest, sort_keys=True))
    if args.trace == 0:
        print(f"{res['rate_name']} = {res['ops_per_s']:.6g} 1/s")
        print(f"peak_rss_mb = {res['peak_rss_mb']:.6g} MB")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, why in res["unmeasured"].items():
        print(f"unmeasured {name}: {why}")
    print(f"cells attempted = {attempted}, failed = {failed}")
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
