#!/usr/bin/env python3
"""Build and run the tlbshoot host-time benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload shootdown --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/bench.exe with dune into .bench_build/, runs it on one
workload and prints two JSON lines: the run record (host, OCaml version,
commit, seed, per-pass times and their quartiles, span self times), then
the result {"correct", "attempted", "failed", "metrics"} the metric list of
BENCHMARK.json describes.  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones.  Exits non-zero, without a result line, when
the program cannot be built or its report does not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
EXE = BUILD / "dune" / "default" / "perfbench" / "bench.exe"
WORKLOADS = ("shootdown", "apps", "modelcheck")

# Seeds later claims are re-checked on: the default, and one kept out of
# tuning.  modelcheck is seed-free (its search is exhaustive).
DEFAULT_SEED = 0
HELD_OUT_SEED = 7

# setup_s is the median of this many fresh processes' set-up times: the
# run's own process plus SETUP_SAMPLES - 1 that stop after set-up.
SETUP_SAMPLES = 3

# A run must end within 180 s once built; keep a margin for the build check.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def run_proc(cmd, timeout, env=None):
    """Run cmd in its own session; kill the whole group on timeout."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
    return proc.returncode, out, err


def build():
    dune = shutil.which("dune")
    if dune is None:
        raise BenchError("dune is not on PATH")
    cmd = [
        dune, "build", "--root", str(ROOT), "--build-dir", str(BUILD / "dune"),
        "--profile", "release", "./perfbench/bench.exe",
    ]
    BUILD.mkdir(exist_ok=True)
    # The shared dune cache lives outside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, out, err = run_proc(cmd, timeout=880, env=env)
    if code != 0 or not EXE.exists():
        raise BenchError(f"build failed (exit {code}):\n{out}{err}")


def bench_exe(args, deadline):
    code, out, err = run_proc([str(EXE), *args], timeout=deadline - time.time())
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise BenchError(f"bench.exe {' '.join(args)} exited {code}:\n{err}")
    try:
        return json.loads(lines[-1])
    except ValueError as e:
        raise BenchError(f"bench.exe printed no JSON result ({e}):\n{out}{err}")


def spec(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        b = json.load(f)
    return b["per_layer" if trace else "end_to_end"]


def validate(metrics, trace):
    want = {m["name"]: m["unit"] for m in spec(trace)}
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise BenchError(f"metrics do not match BENCHMARK.json: missing {missing}, "
                         f"unexpected {extra}, or a unit differs")
    bad = [k for k, v in metrics.items()
           if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
    return bad


def quartiles(xs):
    if len(xs) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return {"q1": q1, "median": q2, "q3": q3}


def host_record():
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        code, out, _ = run_proc(["git", "rev-parse", "HEAD"], timeout=30)
        commit = out.strip() if code == 0 else None
    digest = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and (p.suffix in (".ml", ".mli") or p.name == "dune"):
                digest.update(str(p.relative_to(ROOT)).encode())
                digest.update(p.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def measure(workload, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (record, result)."""
    deadline = time.time() + RUN_BUDGET_S
    runs = BUILD / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    common = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    setups, setups_raw = [], []
    if not trace:
        for _ in range(1 if tiny else SETUP_SAMPLES - 1):
            r = bench_exe(common + ["--setup-only", "--t0", repr(time.time())], deadline)
            setups.append(r["setup_s"])
            setups_raw.append(r["setup_raw_s"])
    spans = runs / f"{stem}-spans.json"
    r = bench_exe(common + ["--seconds", str(seconds), "--trace", str(int(trace)),
                            "--t0", repr(time.time()), "--spans-out", str(spans)],
                  deadline)
    metrics = r["metrics"]
    record = r["record"]
    if not trace:
        setups.append(metrics["setup_s"]["value"])
        setups_raw.append(record["setup_raw_s"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        record["setup_samples_s"] = setups
        record["setup_raw_samples_s"] = setups_raw
    non_finite = validate(metrics, trace)
    record["host"] = host_record()
    record["default_seed"] = DEFAULT_SEED
    record["held_out_seed"] = HELD_OUT_SEED
    for key in ("passes_s", "passes_norm_s", "traced_passes_s", "traced_passes_norm_s"):
        record[key.replace("passes", "pass_quartiles")] = quartiles(record[key])
    if trace:
        record["spans_file"] = str(spans.relative_to(ROOT))
    if non_finite:
        record["problems"].append(f"non-finite metrics: {non_finite}")
    result = {
        "correct": bool(r["correct"]) and not non_finite,
        "attempted": int(r["attempted"]),
        "failed": int(r["failed"]),
        "metrics": metrics,
    }
    with open(runs / f"{stem}.json", "w") as f:
        json.dump({"record": record, "result": result}, f, indent=1)
    return record, result


def self_test():
    """Every workload at a tiny size, both modes: each metric named in
    BENCHMARK.json is present, finite, and the output checks pass."""
    build()
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            t = time.time()
            try:
                record, result = measure(workload, DEFAULT_SEED, 1, trace, tiny=True)
                good = result["correct"] and result["failed"] == 0
                note = "" if good else f" problems: {record['problems']}"
            except BenchError as e:
                good, note = False, f" {e}"
            ok = ok and good
            print(f"{'ok  ' if good else 'FAIL'} {workload:10s} trace={int(trace)} "
                  f"({time.time() - t:.1f} s){note}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    try:
        if a.self_test:
            return self_test()
        if a.workload is None:
            ap.error("--workload is required")
        build()
        record, result = measure(a.workload, a.seed, a.seconds, a.trace == 1)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
