#!/usr/bin/env python3
"""Regression gate over the planner ablation benchmarks.

Reads a pytest-benchmark JSON (``BENCH_planner.json``) and enforces:

* **acceptance floors** — at the largest paper size (128 KiB groups),
  planned evaluation must beat the unplanned engine by >= 2x median on
  the figure 1 full checks;
* **baseline comparison** — with ``--baseline`` (the committed
  ``BENCH_planner.json``), every ablation pair present in both files
  must not regress: the planned/unplanned median *fraction* (a
  machine-independent measure — both arms run on the same box) may not
  exceed the baseline fraction by more than ``--tolerance`` (default
  20%) plus a small absolute slack that keeps sub-millisecond noise
  from tripping the gate.

Exit code 1 on any violation, with one line per failed check.
"""

from __future__ import annotations

import argparse
import json
import sys

#: group-prefix → minimum required median speedup (slow / fast) at the
#: largest benchmarked size
FLOORS = {
    "planner-fig1a": 2.0,
    "planner-fig1b": 2.0,
}
FLOOR_SIZE = "128KiB"


def _arm(name: str) -> str | None:
    """The fast (planned) or slow (unplanned) arm of an ablation pair."""
    if "unplanned" in name:
        return "slow"
    if "planned" in name:
        return "fast"
    return None


def load_fractions(path: str) -> dict[str, float]:
    """group → (fast median / slow median), one entry per ablation pair."""
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    medians: dict[str, dict[str, float]] = {}
    for bench in report["benchmarks"]:
        group = bench.get("group") or ""
        arm = _arm(bench["name"])
        if not group.startswith("planner-") or arm is None:
            continue
        medians.setdefault(group, {})[arm] = bench["stats"]["median"]
    fractions: dict[str, float] = {}
    for group, arms in sorted(medians.items()):
        if "fast" in arms and "slow" in arms and arms["slow"] > 0:
            fractions[group] = arms["fast"] / arms["slow"]
    return fractions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="benchmark JSON to check")
    parser.add_argument("--baseline",
                        help="committed baseline JSON to compare against")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed relative regression of the "
                             "planned/unplanned fraction (default 0.20)")
    parser.add_argument("--slack", type=float, default=0.02,
                        help="absolute fraction slack added on top of "
                             "the tolerance (default 0.02)")
    args = parser.parse_args(argv)

    current = load_fractions(args.current)
    if not current:
        print("gate: no planner ablation pairs found in "
              f"{args.current}", file=sys.stderr)
        return 1
    failures: list[str] = []

    for group, fraction in current.items():
        speedup = 1.0 / fraction if fraction > 0 else float("inf")
        print(f"gate: {group}: planned/unplanned fraction "
              f"{fraction:.4f} (speedup {speedup:.2f}x)")
        if not group.endswith(FLOOR_SIZE):
            continue
        for prefix, floor in FLOORS.items():
            if group.startswith(prefix) and speedup < floor:
                failures.append(
                    f"{group}: speedup {speedup:.2f}x below the "
                    f"{floor:.1f}x acceptance floor")

    if args.baseline:
        baseline = load_fractions(args.baseline)
        for group, fraction in current.items():
            reference = baseline.get(group)
            if reference is None:
                continue
            allowed = reference * (1.0 + args.tolerance) + args.slack
            if fraction > allowed:
                failures.append(
                    f"{group}: fraction {fraction:.4f} regressed past "
                    f"{allowed:.4f} (baseline {reference:.4f} "
                    f"+{args.tolerance:.0%} +{args.slack})")

    for failure in failures:
        print(f"gate FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("gate: OK")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
