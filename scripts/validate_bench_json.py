#!/usr/bin/env python3
"""Validate a BENCH_results.json against the hpcvorx-bench-v1 schema.

Usage: validate_bench_json.py FILE

Checks the envelope, every row's fields and types, the deviation_pct
arithmetic, metric-key uniqueness, and each row's clock: "virtual",
"wall" or "wall_cores".  A wall row must be a rate (unit "…/s") or a
speedup (unit "x"), which is what lets scripts/compare_bench_json.py
treat higher as better for every one of them.  Which rows exist is pinned
by the bench_rows_golden ctest, not here.
"""
import json
import math
import sys

REQUIRED_ROW_FIELDS = {
    "bench": str,
    "metric": str,
    "unit": str,
    "measured": (int, float),
}
CLOCKS = ("virtual", "wall", "wall_cores")


def fail(msg):
    print(f"validate_bench_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path = argv[1]

    with open(path, encoding="utf-8") as f:
        doc = json.load(f)

    if doc.get("schema") != "hpcvorx-bench-v1":
        fail(f"schema is {doc.get('schema')!r}, want 'hpcvorx-bench-v1'")
    if not isinstance(doc.get("quick"), bool):
        fail("'quick' must be a boolean")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        fail("'rows' must be a non-empty array")

    seen = set()
    for i, row in enumerate(rows):
        where = f"rows[{i}]"
        if not isinstance(row, dict):
            fail(f"{where} is not an object")
        for field, ty in REQUIRED_ROW_FIELDS.items():
            if field not in row:
                fail(f"{where} missing {field!r}")
            if not isinstance(row[field], ty) or isinstance(row[field], bool):
                fail(f"{where}.{field} has wrong type {type(row[field]).__name__}")
        for field in ("paper", "deviation_pct"):
            if field not in row:
                fail(f"{where} missing {field!r}")
            v = row[field]
            if v is not None and (not isinstance(v, (int, float)) or isinstance(v, bool)):
                fail(f"{where}.{field} must be a number or null")
        if (row["paper"] is None) != (row["deviation_pct"] is None):
            fail(f"{where}: paper and deviation_pct must be null together")
        if row["paper"] is not None and row["paper"] != 0:
            want = 100.0 * (row["measured"] - row["paper"]) / row["paper"]
            if not math.isclose(want, row["deviation_pct"], abs_tol=0.01):
                fail(
                    f"{where} ({row['metric']}): deviation_pct "
                    f"{row['deviation_pct']} != recomputed {want:.4f}"
                )
        clock = row.get("clock")
        if clock not in CLOCKS:
            fail(f"{where} ({row['metric']}): clock {clock!r} is not one of "
                 f"{', '.join(CLOCKS)}")
        if clock != "virtual" and not (row["unit"].endswith("/s")
                                       or row["unit"] == "x"):
            fail(f"{where} ({row['metric']}): {clock} row has unit "
                 f"{row['unit']!r}; wall rows must be rates (…/s) or "
                 f"speedups (x)")
        key = row["metric"]
        if key in seen:
            fail(f"duplicate metric key {key!r}")
        seen.add(key)

    papered = sum(1 for r in rows if r["paper"] is not None)
    print(
        f"validate_bench_json: OK: {len(rows)} rows "
        f"({papered} with paper values) across "
        f"{len({r['bench'] for r in rows})} benches"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
