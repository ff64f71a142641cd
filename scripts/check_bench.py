#!/usr/bin/env python3
"""Perf-regression gate over the hand-rolled bench snapshots.

Compares fresh BENCH_components.json / BENCH_circleopt.json (written by
`cargo bench -p cfaopc-bench`) against the committed baselines in
eval/baselines/, case by case on `min_ns` — the most noise-resistant
statistic the harness records (median still jitters at 5 iterations on
shared CI runners).

A case regresses when

    measured_min_ns > baseline_min_ns * tolerance

with a deliberately generous default tolerance (2.5x): the baselines
were recorded on one machine and CI runs on another, so the gate exists
to catch order-of-magnitude accidents (an O(n) loop going O(n^2), a
parallel path silently serializing), not percent-level drift. Cases are
matched by name; cases present only on one side are reported and, when
the baseline has them but the measurement does not, treated as failures
(a silently vanished benchmark would otherwise hide a deleted code
path).

A snapshot that records `steady_state_net_bytes_per_iteration` (the
circleopt bench's largest per-iteration heap growth after warm-up) also
fails when that value exceeds the baseline's, or is missing while the
baseline has it: the committed baseline is 0, so any steady-state growth
fails.

Exit status: 0 when clean (or --warn-only), 1 on regression, 2 on
malformed input. `--warn-only` is for pull requests — report, but let
the PR proceed; pushes to main enforce.

Usage:
  scripts/check_bench.py --baseline eval/baselines/BENCH_components.json \
                         --measured BENCH_components.json [--tolerance 2.5] \
                         [--warn-only]
"""

import argparse
import json
import sys
from pathlib import Path


NET_BYTES = "steady_state_net_bytes_per_iteration"


def load_snapshot(path: Path) -> tuple:
    """The snapshot's `min_ns` per case, and its steady-state net bytes
    per iteration (None when it records none)."""
    try:
        doc = json.loads(path.read_text())
        cases = {c["name"]: int(c["min_ns"]) for c in doc["cases"]}
        net = doc.get(NET_BYTES)
        return cases, None if net is None else int(net)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as e:
        print(f"error: cannot read bench snapshot {path}: {e!r}", file=sys.stderr)
        sys.exit(2)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", type=Path, required=True, help="committed snapshot")
    ap.add_argument("--measured", type=Path, required=True, help="fresh snapshot")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=2.5,
        help="allowed min_ns ratio measured/baseline (default: 2.5)",
    )
    ap.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit 0 (for pull requests)",
    )
    args = ap.parse_args()
    if args.tolerance <= 0:
        print("error: --tolerance must be positive", file=sys.stderr)
        return 2

    baseline, base_net = load_snapshot(args.baseline)
    measured, got_net = load_snapshot(args.measured)

    failures = []
    if base_net is not None:
        grew = got_net is None or got_net > base_net
        print(
            f"{'FAIL' if grew else 'ok':>4}  {NET_BYTES}: baseline {base_net}"
            f"  measured {'missing' if got_net is None else got_net}"
        )
        if grew:
            failures.append(
                f"{NET_BYTES}: measured "
                f"{'missing' if got_net is None else got_net} "
                f"exceeds baseline {base_net}"
            )
    removed = sorted(set(baseline) - set(measured))
    for name, base_ns in sorted(baseline.items()):
        got_ns = measured.get(name)
        if got_ns is None:
            continue
        ratio = got_ns / base_ns if base_ns else float("inf")
        marker = "FAIL" if ratio > args.tolerance else "ok"
        print(
            f"{marker:>4}  {name:<40} baseline {base_ns / 1e6:>10.3f} ms"
            f"  measured {got_ns / 1e6:>10.3f} ms  ratio {ratio:>6.2f}x"
        )
        if ratio > args.tolerance:
            failures.append(
                f"{name}: {ratio:.2f}x over baseline (allowed {args.tolerance:.2f}x)"
            )
        elif ratio < 1 / args.tolerance:
            print(
                f"note  {name}: {1 / ratio:.2f}x faster than baseline -- "
                "consider refreshing eval/baselines/"
            )
    unbaselined = sorted(set(measured) - set(baseline))
    for name in unbaselined:
        print(f"WARN  {name}: new case with no baseline")
    if unbaselined:
        # Loud but non-fatal: a brand-new case cannot regress yet, but an
        # unrefreshed baseline means it is also not being gated — every
        # run will nag until eval/baselines/ picks the case up.
        print(
            f"warning: {len(unbaselined)} measured case(s) have no baseline "
            f"entry: {', '.join(unbaselined)} -- refresh "
            f"{args.baseline} so they are gated",
            file=sys.stderr,
        )
    if removed:
        # A vanished benchmark usually means a case was renamed or its
        # code path deleted; name every missing case in one place so the
        # failure message says exactly what to reconcile.
        failures.append(
            f"{len(removed)} baseline case(s) missing from the measured "
            f"snapshot: {', '.join(removed)} -- if the rename/removal is "
            "intentional, refresh eval/baselines/ in the same change"
        )

    if failures:
        print(
            f"\n{len(failures)} regression(s) vs {args.baseline}:", file=sys.stderr
        )
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        if args.warn_only:
            print("warn-only mode: not failing the build", file=sys.stderr)
            return 0
        return 1
    print(f"\nall {len(baseline)} cases within {args.tolerance:.2f}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
