#!/usr/bin/env python3
"""Compare two BENCH_results.json artifacts and fail on wall-clock regressions.

Usage: compare_bench_json.py BASELINE CURRENT [--threshold PCT]
       compare_bench_json.py --self-test

Every row names the clock it reads ("clock" in the row, bench::Clock in
the harness).  Virtual rows are deterministic, and the bench_rows_golden
ctest pins each one exactly, so this script leaves them alone.  It
compares only the rows that CURRENT marks "wall" or "wall_cores": host
timings of the simulator, every one a rate or a speedup, so higher is
better and a drop of more than PCT percent (default 10) fails.  The
baseline needs no clock field, so older artifacts and the committed seed
(bench/baselines/BENCH_seed.json) load as they are.

A "wall_cores" row (the shard-scaling speedups) also depends on the
host's core count.  When both envelopes carry hardware_concurrency and
the values differ, the row is skipped: reported, never failed.

Rows present in only one file are reported as removed or new but are not
failures: rows retire and appear as benches evolve, and the golden reviews
every such change.

--self-test exercises the comparator on synthetic documents, including a
negative case verifying that an injected >threshold drop makes the
comparison fail; CI runs it before trusting the real comparison.
"""
import json
import os
import sys

WALL_CLOCKS = ("wall", "wall_cores")
DEFAULT_THRESHOLD = 10.0
SEED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                    "bench", "baselines", "BENCH_seed.json")


def fail(msg):
    print(f"compare_bench_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load_doc(path):
    """Returns ({metric: row}, hardware_concurrency-or-None) from `path`."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "hpcvorx-bench-v1":
        fail(f"{path}: schema is {doc.get('schema')!r}, want 'hpcvorx-bench-v1'")
    rows = doc.get("rows")
    if not isinstance(rows, list):
        fail(f"{path}: 'rows' must be an array")
    # Absent in older artifacts (and 0 means "unknown" per the C++
    # std::thread contract): either way we don't know the machine width.
    hw = doc.get("hardware_concurrency")
    if not isinstance(hw, int) or hw <= 0:
        hw = None
    return {r["metric"]: r for r in rows}, hw


def compare(base_rows, cur_rows, threshold, base_hw=None, cur_hw=None):
    """Returns (regressions, compared, skipped) over the candidate's wall rows."""
    regressions = []
    compared = 0
    skipped = []
    hw_mismatch = None not in (base_hw, cur_hw) and base_hw != cur_hw
    for key in sorted(set(base_rows) | set(cur_rows)):
        base = base_rows.get(key)
        cur = cur_rows.get(key)
        if cur is None:
            if base.get("clock") != "virtual":
                print(f"compare_bench_json: WARNING: removed {key}: present "
                      f"in baseline ({base['measured']:g} "
                      f"{base.get('unit', '')}) but missing from candidate")
                skipped.append((key, "removed: baseline only"))
            continue
        if cur.get("clock") not in WALL_CLOCKS:
            continue
        if base is None:
            skipped.append((key, "new in candidate"))
            continue
        if cur["clock"] == "wall_cores" and hw_mismatch:
            skipped.append(
                (key, f"core-count mismatch ({base_hw} vs {cur_hw} "
                      f"hardware threads)")
            )
            continue
        b = base["measured"]
        c = cur["measured"]
        if b == 0:
            skipped.append((key, "baseline is zero"))
            continue
        drop_pct = 100.0 * (b - c) / b
        compared += 1
        verdict = "REGRESSED" if drop_pct > threshold else "ok"
        print(
            f"compare_bench_json: {verdict:9s} {key}: "
            f"{b:g} -> {c:g} {cur['unit']} "
            f"({'-' if drop_pct >= 0 else '+'}{abs(drop_pct):.1f}%)"
        )
        if drop_pct > threshold:
            regressions.append((key, drop_pct))
    return regressions, compared, skipped


def rows_of(metrics):
    """{key: row} from {key: (unit, measured, clock-or-None)}; a None clock
    leaves the field out, as in artifacts that predate it."""
    rows = {}
    for k, (unit, measured, clock) in metrics.items():
        rows[k] = {"bench": "t", "metric": k, "unit": unit,
                   "measured": measured, "paper": None,
                   "deviation_pct": None}
        if clock is not None:
            rows[k]["clock"] = clock
    return rows


def check(what, got, want):
    if got != want:
        fail(f"self-test: {what}: got {got!r}, want {want!r}")


def self_test():
    t = DEFAULT_THRESHOLD
    base = rows_of({
        "engine.rate_items_s": ("items/s", 1_000_000.0, "wall"),
        "engine.shard_speedup_4x": ("x", 2.0, "wall_cores"),
        "table1.latency_us": ("us", 100.0, "virtual"),
    })

    def cur(rate, speedup, latency=100.0):
        return rows_of({
            "engine.rate_items_s": ("items/s", rate, "wall"),
            "engine.shard_speedup_4x": ("x", speedup, "wall_cores"),
            "table1.latency_us": ("us", latency, "virtual"),
        })

    def regressed(*args, **kw):
        regs, compared, _ = compare(*args, **kw)
        return sorted(k for k, _ in regs), compared

    # A >threshold drop in a wall row fails; jitter inside it and a rise
    # pass.  A 50% move in a virtual row is never compared.
    check("drop", regressed(base, cur(850_000.0, 1.5), t),
          (["engine.rate_items_s", "engine.shard_speedup_4x"], 2))
    check("jitter", regressed(base, cur(950_000.0, 1.9), t), ([], 2))
    check("rise", regressed(base, cur(2_000_000.0, 3.0), t), ([], 2))
    check("virtual", regressed(base, cur(1e6, 2.0, latency=150.0), t),
          ([], 2))

    # wall_cores rows: skipped across widths 16 vs 4, compared when the
    # widths agree or either one is unknown.  Plain wall rows always are.
    bad = cur(850_000.0, 1.5)
    regs, compared, skipped = compare(base, bad, t, base_hw=16, cur_hw=4)
    check("cross-width", (sorted(k for k, _ in regs), compared),
          (["engine.rate_items_s"], 1))
    check("cross-width skip", [k for k, why in skipped
                               if why.startswith("core-count mismatch")],
          ["engine.shard_speedup_4x"])
    for base_hw, cur_hw in [(8, 8), (None, 4), (16, None)]:
        check(f"widths {base_hw}/{cur_hw}",
              regressed(base, bad, t, base_hw=base_hw, cur_hw=cur_hw),
              (["engine.rate_items_s", "engine.shard_speedup_4x"], 2))

    # A baseline with no clock fields (artifacts older than the field)
    # is compared through the candidate's clocks.
    old = rows_of({k: (r["unit"], r["measured"], None)
                   for k, r in base.items()})
    check("clockless baseline", regressed(old, bad, t),
          (["engine.rate_items_s", "engine.shard_speedup_4x"], 2))
    seed_rows, seed_hw = load_doc(SEED)
    key = "engine.event_queue_post_pop_items_s"
    same = rows_of({key: ("items/s", seed_rows[key]["measured"], "wall")})
    regs, compared, _ = compare(seed_rows, same, t, seed_hw, 4)
    check("committed seed", (regs, compared), ([], 1))

    # One-sided rows: the retired cores-qualified key is reported removed,
    # its successor new, and neither fails.  A removed virtual row is the
    # golden's business and is not reported.
    renamed_base = rows_of({
        "engine.shard_speedup_8x_c4": ("x", 0.5, None),
        "sec4.latency_4B_us": ("us", 300.0, "virtual"),
    })
    renamed_cur = rows_of({"engine.shard_speedup_8x": ("x", 0.1, "wall_cores")})
    regs, compared, skipped = compare(renamed_base, renamed_cur, t, 4, 4)
    check("renamed", (regs, compared, sorted(skipped)),
          ([], 0, [("engine.shard_speedup_8x", "new in candidate"),
                   ("engine.shard_speedup_8x_c4", "removed: baseline only")]))

    print("compare_bench_json: self-test OK")
    return 0


def main(argv):
    args = argv[1:]
    if args == ["--self-test"]:
        return self_test()
    paths = []
    threshold = DEFAULT_THRESHOLD
    while args:
        if args[0] == "--threshold" and len(args) >= 2:
            threshold = float(args[1])
            args = args[2:]
        elif args[0].startswith("-"):
            fail(f"unknown argument {args[0]!r}")
        else:
            paths.append(args[0])
            args = args[1:]
    if len(paths) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    base_rows, base_hw = load_doc(paths[0])
    cur_rows, cur_hw = load_doc(paths[1])
    regressions, compared, skipped = compare(
        base_rows, cur_rows, threshold, base_hw, cur_hw
    )
    for key, why in skipped:
        print(f"compare_bench_json: skipped {key}: {why}")
    if regressions:
        worst = max(regressions, key=lambda kv: kv[1])
        fail(
            f"{len(regressions)} metric(s) regressed more than "
            f"{threshold:g}% (worst: {worst[0]} at -{worst[1]:.1f}%)"
        )
    print(
        f"compare_bench_json: OK: {compared} wall-clock metric(s) within "
        f"{threshold:g}% of baseline"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
