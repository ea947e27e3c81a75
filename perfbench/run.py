#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, timed from outside.

    python3 perfbench/run.py --workload storm --seed 7 --seconds 20 --trace 0

Builds perfbench/ (the `perfbench` binary plus the simulator layers from
src/) into .bench_build/, then runs that binary in a fresh process per
repetition:

  1. one warm-up repetition on a contrast seed (seed + 1), untimed, whose
     output digest must differ from the measured seed's;
  2. repetitions on --seed until --seconds of host time have passed.
     With --trace 1 untraced and traced repetitions alternate.

Every repetition must pass the binary's own output checks, and every
repetition of the seed must produce the same virtual-time digest and the
same virtual-time values.  Human-readable medians, quartiles and sample
counts go to stdout first; the last stdout line is one JSON object:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics (from the traced repetitions) with --trace 1.  A per-layer metric
of a layer the workload bypasses reads 0.

Exit codes: 0 when every check passed, 1 when a check failed or the build
failed, 2 on bad input (unknown workload, malformed seed, a machine the
fabric rejects, or a directory without the simulator sources).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
WORKLOADS = ("storm", "storm_sharded", "fabric4096")
REP_TIMEOUT_S = 120


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def is_host_time(name):
    """Host-time metrics vary run to run; every other value is virtual."""
    return name.endswith("_s") or "ns_per_" in name or "us_per_" in name


def build():
    if not (ROOT / "src" / "sim" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}; run from a full "
             "checkout of the repository", 2)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", "4"])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env)
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}", 1)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", 1)


def repetition(args, seed, trace):
    """Runs the binary once; returns its parsed JSON, or None on failure."""
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(seed)]
    if args.ports is not None:
        cmd += ["--ports", str(args.ports)]
    if trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(TRACES / f"{args.workload}-seed{seed}.json")]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: seed {seed}: no result within {REP_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    if done.returncode == 2:
        fail(done.stderr.strip(), 2)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: seed {seed}: perfbench exited {done.returncode}",
              file=sys.stderr)
        return None
    out = json.loads(lines[-1])
    out["traced"] = trace
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def check_repeats(reps, contrast):
    """Virtual-time outputs must repeat exactly for a seed and differ
    between seeds.  Returns a list of problems (empty when all hold)."""
    problems = []
    first = reps[0]
    for rep in reps[1:]:
        if rep["digest"] != first["digest"]:
            problems.append(f"digest {rep['digest']} != {first['digest']} "
                            "on a repeat of the seed")
        for group in ("end_to_end", "layers"):
            for name, value in first[group].items():
                if not is_host_time(name) and name != "peak_rss_mb" and \
                        rep[group].get(name) != value:
                    problems.append(f"virtual value {name} changed between "
                                    f"repeats: {value} vs {rep[group].get(name)}")
    if contrast is not None and contrast["digest"] == first["digest"]:
        problems.append("contrast seed produced the same digest")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ports", type=int, default=None,
                        help="override the cluster port count (probing only)")
    args = parser.parse_args()
    if not 0 <= args.seed < 2**63:
        parser.error(f"--seed must be in [0, 2^63), got {args.seed}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not SPEC.is_file():
        fail(f"missing {SPEC}", 2)
    spec = json.loads(SPEC.read_text())

    build()

    contrast_seed = args.seed + 1
    contrast = repetition(args, contrast_seed, False)
    reps = []
    failed = 0 if contrast is not None else 1
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep = repetition(args, args.seed, traced)
        if rep is None:
            failed += 1
        else:
            reps.append(rep)
        done = time.monotonic() - start >= args.seconds
        if done and (not args.trace or any(r["traced"] for r in reps)):
            break
        if failed and not reps:
            break

    problems = check_repeats(reps, contrast) if reps else ["no repetition"]
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    correct = failed == 0 and not problems

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if not untraced or (args.trace and not traced):
        print(json.dumps({"correct": False, "attempted": len(reps) + 1,
                          "failed": failed + 1, "metrics": {}}))
        return 1
    print(f"perfbench {args.workload} seed={args.seed}: "
          f"{len(untraced)} untraced + {len(traced)} traced repetitions "
          f"in {time.monotonic() - start:.1f} s; digest {reps[0]['digest']}")

    def summary(source, names):
        """Median of each named value over `source` (dicts), printed with
        its quartiles and sample count."""
        out = {}
        for name, unit in names:
            values = [r.get(name, 0.0) for r in source] or [0.0]
            q1, med, q3 = quartiles(values)
            out[name] = med
            print(f"  {name:34s} {med:14.6g} {unit:6s} "
                  f"[q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}]")
        return out

    print("virtual-time outputs (identical on every repetition):")
    for name in ("failed_ratio", "sim_p50_us", "sim_p99_us",
                 "sim_join_p99_us"):
        print(f"  {name:34s} {reps[0]['end_to_end'][name]:14.6g}")
    e2e_names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    print("end to end (untraced):")
    e2e = summary([r["end_to_end"] for r in untraced], e2e_names)
    if not args.trace:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in e2e_names}
    else:
        layer_names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        print("per layer (traced):")
        layers = summary([dict(r["layers"], **r["end_to_end"]) for r in traced],
                         [(n, u) for n, u in layer_names
                          if n != "trace_overhead_s"])
        wall = statistics.median(r["end_to_end"]["wall_s"] for r in untraced)
        traced_wall = statistics.median(r["end_to_end"]["wall_s"]
                                        for r in traced)
        layers["trace_overhead_s"] = traced_wall - wall
        print(f"  trace_overhead_s = traced wall_s {traced_wall:.6g} - "
              f"untraced wall_s {wall:.6g} = {traced_wall - wall:.6g} s")
        metrics = {n: {"value": layers[n], "unit": u} for n, u in layer_names}

    print(json.dumps({"correct": correct,
                      "attempted": len(reps) + 1,
                      "failed": failed + (1 if problems else 0),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
