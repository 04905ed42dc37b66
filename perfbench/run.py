#!/usr/bin/env python3
"""Benchmark of the Kube-Knots simulator: build, run, check, report.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pods-1k --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --workload pods-1k --seed 1 --seconds 34 --trace 1
    python3 perfbench/run.py --steadiness --workload dl-fabric --repeats 10
    python3 perfbench/run.py --selftest

The first run builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Every run prints
a host stamp and per-simulation lines, then as its last line one JSON object
with the keys correct, attempted, failed and metrics. A run that finds an
incorrect result exits non-zero without that line. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
if not BUILD_ROOT.is_absolute():
    BUILD_ROOT = ROOT / BUILD_ROOT
BUILD_DIR = BUILD_ROOT / "perfbench"
RUNNER = BUILD_DIR / "knots_bench"

# Each run simulates a fixed panel of sub-seeds derived from --seed, one
# process per simulation, and reports panel means: one simulation's
# simulated outcomes and length depend on its seed (heavy-tailed job sizes,
# spot reclaims), and the panel averages that out. Host times are the
# runner's probe-scaled ones (run_ref_s, setup_ref_s). Time left after the
# panel repeats its members, which also checks they replay bit for bit.
# `setups` is how many times each process sets up before its run.
WORKLOADS = {
    "pods-1k": {"panel": 4, "setups": 3},
    "dl-fabric": {"panel": 32, "setups": 5},
    "fleet-serve": {"panel": 8, "setups": 3},
}

SIM_FIELDS = ("mean_jct_s", "energy_kj", "gpu_util_p50_pct", "slo_miss_pct",
              "run_digest", "serve_digest", "attempted", "failed")
CHILD_TIMEOUT_S = 150
RUN_DEADLINE_S = 170


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(msg):
    print(msg, flush=True)


def sub_seed(seed, k):
    """The k-th simulation seed of a run's panel."""
    digest = hashlib.sha256(f"{seed}/{k}".encode()).hexdigest()
    return int(digest[:15], 16)


def build(target="knots_bench"):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log_path, "a") as out:
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            rc = subprocess.call(
                ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=out, stderr=subprocess.STDOUT, env=env)
            if rc != 0:
                raise BenchError(f"cmake configure failed, see {log_path}")
        jobs = str(min(4, os.cpu_count() or 1))
        rc = subprocess.call(
            ["cmake", "--build", str(BUILD_DIR), "--target", target,
             "-j", jobs], stdout=out, stderr=subprocess.STDOUT, env=env)
        if rc != 0:
            raise BenchError(f"build of {target} failed, see {log_path}")


def runner_json(args):
    proc = subprocess.run([str(RUNNER)] + args, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"knots_bench {' '.join(args)} exited "
                         f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_catalogue():
    """BENCHMARK.json must list exactly the metrics the runner reports."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cat = runner_json(["--catalogue"])
    for key in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"], m["better"]) for m in cat[key]]
        have = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if want != have:
            raise BenchError(f"BENCHMARK.json {key} differs from the "
                             f"runner's catalogue")
    return spec, cat


def source_digest():
    """Digest of the simulator and benchmark sources that were measured."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def host_stamp(workload, seed, trace):
    host = runner_json(["--host"])
    if not host["optimised"]:
        raise BenchError("refusing to time an unoptimised build")
    host.update({"git_sha": git_sha(), "source_digest": source_digest(),
                 "workload": workload, "seed": seed, "trace": trace})
    return host


class Child:
    """One simulation in its own process."""

    def __init__(self, workload, seed, traced, setups, spans=None):
        args = ["--workload", workload, "--seed", str(seed)]
        if traced:
            args.append("--traced")
            if spans is not None:
                args += ["--spans", str(spans)]
        else:
            args += ["--setups", str(setups)]
        start = time.monotonic()
        proc = subprocess.run([str(RUNNER)] + args, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        self.wall = time.monotonic() - start
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"knots_bench {' '.join(args)} exited "
                             f"{proc.returncode} with no result: "
                             f"{proc.stderr.strip()}")
        self.result = json.loads(lines[-1])
        errors = self.result.get("errors", [])
        if proc.returncode != 0 or errors:
            raise BenchError(f"seed {seed}{' traced' if traced else ''}: "
                             f"correctness gate failed: {errors} "
                             f"{proc.stderr.strip()}")

    def sim(self):
        return {k: self.result[k] for k in SIM_FIELDS}


def describe(child, label):
    r = child.result
    rates = []
    if r["node_ticks"]:
        rates.append(f"{r['node_ticks'] / r['run_s']:.4g} node-ticks/s")
    if r["job_steps"]:
        rates.append(f"{r['job_steps'] / r['run_s']:.4g} job-steps/s")
    if r["requests"]:
        rates.append(f"{r['requests'] / r['run_s']:.4g} requests/s")
    log(f"  {label} seed {r['seed']}: run_s {r['run_ref_s']:.4f} "
        f"(raw {r['run_s']:.4f}) "
        f"setup_s {statistics.median(r['setup_ref_s']):.6f} "
        f"(raw {statistics.median(r['setup_s']):.6f}) "
        f"probe {' '.join(f'{p * 1e3:.3f}' for p in r['probe_s'])} ms "
        f"rss {r['peak_rss_mb']:.1f} MB | {', '.join(rates)} | "
        f"run digest {r['run_digest']} serve digest {r['serve_digest']} | "
        f"attempted {r['attempted']} failed {r['failed']}")


def measure(workload, seed, seconds, trace):
    cfg = WORKLOADS[workload]
    start = time.monotonic()

    def time_left(estimate):
        elapsed = time.monotonic() - start
        return (elapsed + estimate <= seconds and
                elapsed + estimate <= RUN_DEADLINE_S - CHILD_TIMEOUT_S / 5)

    if trace:
        return measure_traced(workload, seed, cfg, time_left)

    panel = [sub_seed(seed, k) for k in range(cfg["panel"])]
    runs = {s: [] for s in panel}
    walls = []
    order = list(panel)
    i = 0
    while i < len(panel) or time_left(statistics.median(walls)):
        s = order[i % len(order)]
        child = Child(workload, s, False, cfg["setups"])
        walls.append(child.wall)
        if runs[s] and child.sim() != runs[s][0].sim():
            raise BenchError(f"seed {s} did not replay: {child.sim()} vs "
                             f"{runs[s][0].sim()}")
        runs[s].append(child)
        describe(child, "repeat" if i >= len(panel) else "panel")
        i += 1

    def per_seed_median(key):
        return [statistics.median(c.result[key] for c in runs[s])
                for s in panel]

    setups = [v for s in panel for c in runs[s]
              for v in c.result["setup_ref_s"]]
    firsts = [runs[s][0].result for s in panel]
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.fmean(per_seed_median("run_ref_s")),
        "peak_rss_mb": statistics.fmean(per_seed_median("peak_rss_mb")),
        "mean_jct_s": statistics.fmean(r["mean_jct_s"] for r in firsts),
        "energy_kj": statistics.fmean(r["energy_kj"] for r in firsts),
        "gpu_util_p50_pct": statistics.fmean(r["gpu_util_p50_pct"]
                                             for r in firsts),
        "slo_miss_pct": statistics.fmean(r["slo_miss_pct"] for r in firsts),
    }
    log(f"panel: {len(panel)} simulations, {i} processes, "
        f"{len(setups)} set-ups, {time.monotonic() - start:.1f} s")
    attempted = sum(r["attempted"] for r in firsts)
    failed = sum(r["failed"] for r in firsts)
    return metrics, attempted, failed


def measure_traced(workload, seed, cfg, time_left):
    """Alternates untraced and traced runs of the panel's first seed."""
    s = sub_seed(seed, 0)
    spans_dir = BUILD_DIR / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans = spans_dir / f"{workload}.csv"
    plain, traced, walls = [], [], []
    while len(plain) < 1 or len(traced) < 1 or \
            time_left(statistics.median(walls)):
        is_traced = len(traced) < len(plain)
        child = Child(workload, s, is_traced, cfg["setups"], spans)
        walls.append(child.wall)
        reference = (plain or traced)[0] if (plain or traced) else child
        if child.sim() != reference.sim():
            raise BenchError(f"{'traced' if is_traced else 'untraced'} run "
                             f"of seed {s} did not reproduce digests: "
                             f"{child.sim()} vs {reference.sim()}")
        (traced if is_traced else plain).append(child)
        describe(child, "traced" if is_traced else "untraced")
    # All layers from the traced run with the median run_s, so the reported
    # self times and residual_s still add up to its run_s.
    by_run = sorted(traced, key=lambda c: c.result["run_s"])
    median_traced = by_run[(len(by_run) - 1) // 2].result
    layers = dict(median_traced["layers"])
    # Overhead compares probe-scaled run times, so host drift between the
    # processes does not read as overhead.
    untraced_run = statistics.median(c.result["run_ref_s"] for c in plain)
    layers["trace.overhead_pct"] = (
        100.0 * (median_traced["run_ref_s"] / untraced_run - 1.0))
    log(f"traced: {len(traced)} traced and {len(plain)} untraced runs; "
        f"spans of the last traced run in {spans}")
    first = plain[0].result
    return layers, first["attempted"], first["failed"]


def run_once(args):
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; one of "
                         f"{', '.join(WORKLOADS)}")
    build()
    spec, _ = check_catalogue()
    stamp = host_stamp(args.workload, args.seed, args.trace)
    log(json.dumps({"host": stamp}))
    metrics, attempted, failed = measure(args.workload, args.seed,
                                         args.seconds, args.trace)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise BenchError("measured metrics differ from BENCHMARK.json")
    out = {"correct": True, "attempted": attempted, "failed": failed,
           "metrics": {name: {"value": metrics[name], "unit": units[name]}
                       for name in units}}
    print(json.dumps(out), flush=True)


def steadiness(args):
    """Runs one workload with seeds first..first+repeats-1, `sets` times,
    and prints each metric's median, quartiles and spread against its
    bound, and how far each later set's median moved from the first."""
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    sets = []
    for n in range(args.sets):
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.repeats):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", args.workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=RUN_DEADLINE_S + 30)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise BenchError(f"seed {seed} failed: {proc.stderr.strip()}")
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            log(f"set {n + 1} seed {seed}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()))
        sets.append(values)
    report = {}
    log(f"\n{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} "
        f"{'spread':>8} {'bound':>6} verdict")
    for name, values in sets[0].items():
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        if bound is None:
            verdict = "-"
        elif name == "setup_s":
            verdict = "spread not gated"
        elif spread < bound / 3:
            verdict = "ok (< bound/3)"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO WIDE"
        shifts = []
        for later in sets[1:]:
            later_med = statistics.median(later[name])
            shifts.append((later_med - med) / med if med else 0.0)
        log(f"{name:24} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} "
            f"{'' if bound is None else bound:>6} {verdict}"
            + "".join(f"  set shift {s:+.2%}" for s in shifts))
        report[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                        "bound": bound, "set_shifts": shifts}
    print(json.dumps({"steadiness": args.workload, "seconds": seconds,
                      "repeats": args.repeats, "first_seed": args.first_seed,
                      "metrics": report}), flush=True)


def selftest():
    build("perfbench_tests")
    tests = BUILD_DIR / "perfbench_tests"
    if not tests.is_file():
        raise BenchError("perfbench_tests was not built (GTest missing?)")
    return subprocess.call([str(tests)])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help="repeat one workload over seeds and report "
                             "each metric's spread against its bound")
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            parser.error("--workload is required")
        if args.steadiness:
            steadiness(args)
            return 0
        if args.seconds is None or args.seconds <= 0:
            parser.error("--seconds must be positive")
        run_once(args)
        return 0
    except (BenchError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError, KeyError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
