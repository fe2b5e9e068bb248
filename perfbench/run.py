#!/usr/bin/env python3
"""Serving benchmark for the ADCNN runtime.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record RUNS

A run builds perfbench/ together with the repository's src/ libraries into
the build directory ($CARGO_TARGET_DIR, default .bench_build) with CMake,
runs the C++ benchmark binary for one workload of BENCHMARK.json (or the
ungated vgg-wifi-single, see UNGATED), checks that its result names
every metric BENCHMARK.json lists for the mode (end_to_end for --trace 0,
per_layer for --trace 1) with that metric's unit, and prints the result as
the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Lines before it start with '#' and describe the host and the run. Each run
also writes <build>/out/<workload>-seed<N>-trace<T>.json, and a traced run
writes the spans it recorded to <workload>-seed<N>-trace1.trace.json
(Chrome trace-event format).

--selftest builds, runs the helper self-tests (percentile rule, seeded
schedule and input pool), checks layer_map.json against BENCHMARK.json and
then runs every workload in both modes, checking each result.

--record RUNS runs every workload of BENCHMARK.json as two alternating
sets of RUNS untraced runs (seeds 1..RUNS, one run of each set per seed)
and once traced, each for BENCHMARK.json's run_seconds. For every
end-to-end metric it prints each set's median and quartile spread and how
much worse the second set's median is than the first's, against the
metric's bound, and writes them with the per-layer values and each run's
host steal share to perfbench/results.json. It exits 1 when a spread
(setup_s excepted) or a change between the sets exceeds its bound.

Exit status is 0 only for a complete run whose outputs all matched the
oracle; a run that cannot build (for example without ../src) exits non-zero
without printing a result.
"""

import argparse
import fcntl
import hashlib
import json
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
RUN_TIMEOUT_S = 170
# Runnable and self-tested like the workloads of BENCHMARK.json, but not
# gated: one client's throughput is the inverse of its mean latency, which
# other guests of the host moved by 0.35-0.38 (quartile distance over
# median) within one ten-run set (see README).
UNGATED = ["vgg-wifi-single"]
# Short windows, still long enough for every workload's trace-0 window to
# hold the 100 requests its p90 needs.
SELFTEST_SECONDS = {0: 10, 1: 4}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configure once, then build the benchmark, self-test and worker."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no ADCNN sources at {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"] +
                         (["-G", "Ninja"] if shutil.which("ninja") else []))
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", str(out), "-j", jobs, "--target",
                      "perfbench", "perfbench_selftest", "adcnn_conv_worker"])
        for cmd in steps:
            # Build output goes to stderr: stdout ends with the result.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("build failed: " + " ".join(cmd))
    return out


def source_version():
    """The git commit when there is one, and a digest of src/ either way."""
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        commit = "none"
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            digest.update(str(p.relative_to(ROOT)).encode())
            digest.update(p.read_bytes())
    return f"git {commit}, src sha256 {digest.hexdigest()[:16]}"


def run_binary(out, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, info lines, result or None)."""
    (out / "out").mkdir(exist_ok=True)
    cmd = [str(out / "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out / "out"), "--commit", source_version()]
    # Own process group, so a timeout also takes down spawned workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = stdout.splitlines()
    info = [line for line in lines if line.startswith("#")]
    result = None
    if lines and not lines[-1].startswith("#"):
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, info, result


def check_result(spec, result, trace):
    """Every metric of the mode, by name and unit, and nothing else."""
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    metrics = result.get("metrics", {})
    for name, unit in expected.items():
        got = metrics.get(name)
        if got is None:
            problems.append(f"missing metric {name}")
        elif got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"metric {name}: {got} (want unit {unit})")
    for name in set(metrics) - set(expected):
        problems.append(f"unexpected metric {name}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    return problems


def one_run(spec, out, workload, seed, seconds, trace, echo=True):
    code, info, result = run_binary(out, workload, seed, seconds, trace)
    if result is None:
        fail(f"{workload} (seed {seed}, trace {trace}) printed no result", 1)
    problems = check_result(spec, result, trace)
    if problems:
        fail(f"{workload}: " + "; ".join(problems), 1)
    if echo:
        for line in info:
            print(line)
        print(json.dumps(result, separators=(",", ":")))
    return code, result, info


def check_layer_map(spec):
    """layer_map.json covers exactly the per_layer metrics."""
    with open(HERE / "layer_map.json") as f:
        layer_map = json.load(f)["map"]
    workloads = {w["name"] for w in spec["workloads"]} | set(UNGATED)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    problems = []
    if set(layer_map) != {m["name"] for m in spec["per_layer"]}:
        problems.append("layer_map.json and BENCHMARK.json per_layer differ")
    for layer, moves in layer_map.items():
        for metric, workload in moves:
            if metric not in end_to_end or workload not in workloads:
                problems.append(f"{layer} -> {metric} on {workload}")
    return problems


def selftest(spec, out):
    if subprocess.run([str(out / "perfbench_selftest")]).returncode:
        fail("helper self-tests failed", 1)
    problems = check_layer_map(spec)
    if problems:
        fail("layer map: " + "; ".join(problems), 1)
    for name in [w["name"] for w in spec["workloads"]] + UNGATED:
        for trace in (0, 1):
            code, result, _ = one_run(spec, out, name, 1,
                                      SELFTEST_SECONDS[trace], trace,
                                      echo=False)
            ok = code == 0 and result["correct"]
            print(f"{name} trace {trace}: "
                  f"{'ok' if ok else 'FAILED'}, {len(result['metrics'])} metrics")
            if not ok:
                sys.exit(1)
    print("perfbench selftest: ok")


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def record(spec, out, runs):
    """Two alternating sets of `runs` runs per workload, compared."""
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    doc = {"measured": time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime()),
           "runs_per_set": runs, "run_seconds": seconds, "workloads": {}}
    over = []
    for w in spec["workloads"]:
        sets = [{}, {}]
        steal = [[], []]
        for seed in range(1, runs + 1):
            for k in (0, 1):
                code, result, info = one_run(spec, out, w["name"], seed,
                                             seconds, 0, echo=False)
                if code or not result["correct"]:
                    fail(f"{w['name']} seed {seed} failed", 1)
                extra = dict(line[2:].split(" ", 1) for line in info
                             if line.startswith("# ") and
                             not line.startswith("# env "))
                steal[k].append(float(extra.get("host_steal_frac", "nan")))
                env_line = next(x for x in info if x.startswith("# env "))
                env = {key: v for key, v in json.loads(env_line[6:]).items()
                       if key not in ("workload", "seed", "trace")}
                for name, m in result["metrics"].items():
                    sets[k].setdefault(name, []).append(m["value"])
        code, traced, _ = one_run(spec, out, w["name"], 1, seconds, 1,
                                  echo=False)
        if code or not traced["correct"]:
            fail(f"{w['name']} traced run failed", 1)
        summary = {}
        for name, m in metrics.items():
            a, b = quartiles(sets[0][name]), quartiles(sets[1][name])
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = (sign * (b["median"] - a["median"]) / a["median"]
                     if a["median"] else 0.0)
            summary[name] = {"set_a": a, "set_b": b,
                             "b_worse_than_a": worse, "bound": m["bound"]}
            spreads_ok = name == "setup_s" or max(a["spread"], b["spread"]) <= m["bound"]
            ok = spreads_ok and worse <= m["bound"]
            if not ok:
                over.append(f"{w['name']} {name}")
            print(f"{w['name']:16s} {name:21s} median {a['median']:10.5g}"
                  f" / {b['median']:10.5g}  spread {a['spread']:5.3f} /"
                  f" {b['spread']:5.3f}  b worse {worse:+6.3f}"
                  f"  bound {m['bound']}  {'ok' if ok else 'OVER'}")
        doc["workloads"][w["name"]] = {
            "env": env,
            "host_steal_frac": {"set_a": steal[0], "set_b": steal[1]},
            "end_to_end": summary,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    with open(HERE / "results.json", "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    if over:
        fail("over bound: " + ", ".join(over), 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record", type=int, metavar="RUNS")
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]] + UNGATED
    if args.record is not None and args.record < 2:
        fail("--record needs at least 2 runs")
    if not (args.selftest or args.record) and args.workload not in names:
        fail(f"--workload must be one of {names}")
    seconds = args.seconds or spec["run_seconds"]
    if seconds < 1:
        fail("--seconds must be >= 1")
    out = build()
    if args.selftest:
        selftest(spec, out)
        return
    if args.record:
        record(spec, out, args.record)
        return
    code, _, _ = one_run(spec, out, args.workload, args.seed, seconds,
                         args.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
