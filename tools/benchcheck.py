"""benchcheck — compare a fresh benchmark report against its baseline.

The acceptance benchmarks (``benchmarks/bench_kernel.py``,
``benchmarks/bench_checkpoint.py``, ``benchmarks/bench_sharded.py`` and
``benchmarks/bench_service.py``) write JSON reports; the committed
``BENCH_kernel.json`` / ``BENCH_checkpoint.json`` /
``BENCH_sharded.json`` / ``BENCH_service.json`` at the repo root are
the blessed full-scale baselines.  This tool guards against performance
regressions by comparing a *fresh* report against a baseline:

* **dimensionless guarded metrics** — ``speedup`` (higher is better) and
  ``overhead_fraction`` (lower is better) are compared with a relative
  tolerance (default ±20%, the CI posture: quick runs on noisy shared
  machines still track the same ratio the full run measures, because
  both sides of each ratio are measured in the same process seconds
  apart).  Lower-is-better fractions additionally get a small absolute
  slack so a 0.04-baseline overhead is not held to ±0.008;
* **boolean verdicts** — every ``*_identical*`` field present in the
  fresh report must be true, full stop (byte-identity is never a matter
  of tolerance);
* **explicit bounds** — ``--min name=value`` / ``--max name=value``
  replace the relative check for that metric with an absolute floor or
  ceiling (dotted paths reach nested fields, e.g.
  ``--min batched.items_per_second=100000``).

Exit status: 0 when every guard holds, 1 on any regression, 2 on a
malformed invocation or unreadable report.  Intended entry points::

    python -m tools.benchcheck FRESH.json --baseline BENCH_kernel.json
    make benchcheck       # quick benches + their comparisons

Absolute throughput numbers (items/second) are deliberately *not*
guarded by default: they measure the runner, not the code.  Guard them
only via an explicit ``--min`` on hardware you control.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Tuple

#: default relative tolerance (CI posture; see module docstring)
DEFAULT_TOLERANCE = 0.20

#: extra absolute slack for lower-is-better fractions near zero
DEFAULT_ABSOLUTE_SLACK = 0.05

#: dimensionless metrics guarded whenever both reports carry them
GUARDED_METRICS: Dict[str, str] = {
    "speedup": "higher",
    "overhead_fraction": "lower",
}

#: boolean verdict fields that must be true in the fresh report
BOOLEAN_GUARDS = (
    "state_identical_to_sequential",
    "state_identical_to_plain",
    "state_identical_to_per_item_oracle",
    "recovered_state_identical",
    "merged_identical_to_sequential_fold",
)


class CheckFailure(Exception):
    """A guard did not hold (collected, not raised through main)."""


def lookup(report: Dict[str, Any], path: str) -> Optional[Any]:
    """Resolve a dotted path in a nested report; None when absent."""
    node: Any = report
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _parse_bound(text: str) -> Tuple[str, float]:
    """Split one ``name=value`` override; raise SystemExit(2) on junk."""
    name, sep, raw = text.partition("=")
    if not sep or not name:
        raise SystemExit(f"benchcheck: malformed bound {text!r} (want name=value)")
    try:
        return name, float(raw)
    except ValueError as exc:
        raise SystemExit(f"benchcheck: non-numeric bound {text!r}") from exc


def _load(path: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"benchcheck: cannot read report {path!r}: {exc}")
    if not isinstance(report, dict):
        raise SystemExit(f"benchcheck: report {path!r} is not a JSON object")
    return report


def compare(
    fresh: Dict[str, Any],
    baseline: Dict[str, Any],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    absolute_slack: float = DEFAULT_ABSOLUTE_SLACK,
    floors: Optional[Dict[str, float]] = None,
    ceilings: Optional[Dict[str, float]] = None,
) -> List[str]:
    """Return the list of regression messages (empty == pass).

    ``floors``/``ceilings`` are the ``--min``/``--max`` absolute bounds;
    a metric with an explicit bound skips the relative baseline check.
    """
    floors = dict(floors or {})
    ceilings = dict(ceilings or {})
    failures: List[str] = []
    lines: List[str] = []

    def record(name: str, verdict: str, detail: str) -> None:
        lines.append(f"  {verdict:<4} {name:<34} {detail}")
        if verdict == "FAIL":
            failures.append(f"{name}: {detail}")

    for name, floor in sorted(floors.items()):
        value = lookup(fresh, name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            record(name, "FAIL", f"missing/non-numeric (need >= {floor:g})")
            continue
        verdict = "ok" if value >= floor else "FAIL"
        record(name, verdict, f"{value:g} (floor {floor:g})")

    for name, ceiling in sorted(ceilings.items()):
        value = lookup(fresh, name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            record(name, "FAIL", f"missing/non-numeric (need <= {ceiling:g})")
            continue
        verdict = "ok" if value <= ceiling else "FAIL"
        record(name, verdict, f"{value:g} (ceiling {ceiling:g})")

    for name, direction in sorted(GUARDED_METRICS.items()):
        if name in floors or name in ceilings:
            continue  # the explicit bound replaced the relative check
        fresh_value = lookup(fresh, name)
        base_value = lookup(baseline, name)
        if not isinstance(fresh_value, (int, float)) or isinstance(
            fresh_value, bool
        ):
            continue  # this report does not carry the metric
        if not isinstance(base_value, (int, float)) or isinstance(
            base_value, bool
        ):
            record(name, "ok", f"{fresh_value:g} (no baseline; skipped)")
            continue
        if direction == "higher":
            bound = base_value * (1.0 - tolerance)
            verdict = "ok" if fresh_value >= bound else "FAIL"
            record(
                name,
                verdict,
                f"{fresh_value:g} vs baseline {base_value:g} "
                f"(floor {bound:g})",
            )
        else:
            bound = max(
                base_value * (1.0 + tolerance), base_value + absolute_slack
            )
            verdict = "ok" if fresh_value <= bound else "FAIL"
            record(
                name,
                verdict,
                f"{fresh_value:g} vs baseline {base_value:g} "
                f"(ceiling {bound:g})",
            )

    for name in BOOLEAN_GUARDS:
        value = lookup(fresh, name)
        if value is None:
            continue
        verdict = "ok" if value is True else "FAIL"
        record(name, verdict, str(value))

    print("\n".join(lines) if lines else "  (no guarded metrics found)")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.benchcheck",
        description="Compare a fresh benchmark report against its baseline.",
    )
    parser.add_argument("fresh", help="freshly-generated report JSON")
    parser.add_argument(
        "--baseline",
        required=True,
        help="committed baseline JSON (e.g. BENCH_kernel.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="relative tolerance for guarded metrics (default 0.20)",
    )
    parser.add_argument(
        "--absolute-slack",
        type=float,
        default=DEFAULT_ABSOLUTE_SLACK,
        help="extra absolute slack for lower-is-better fractions "
        "(default 0.05)",
    )
    parser.add_argument(
        "--min",
        dest="floors",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="absolute floor for a (dotted-path) metric; repeatable",
    )
    parser.add_argument(
        "--max",
        dest="ceilings",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="absolute ceiling for a (dotted-path) metric; repeatable",
    )
    args = parser.parse_args(argv)
    if args.tolerance < 0 or args.absolute_slack < 0:
        raise SystemExit("benchcheck: tolerance/slack must be non-negative")

    fresh = _load(args.fresh)
    baseline = _load(args.baseline)
    floors = dict(_parse_bound(bound) for bound in args.floors)
    ceilings = dict(_parse_bound(bound) for bound in args.ceilings)

    print(f"benchcheck: {args.fresh} vs baseline {args.baseline}")
    failures = compare(
        fresh,
        baseline,
        tolerance=args.tolerance,
        absolute_slack=args.absolute_slack,
        floors=floors,
        ceilings=ceilings,
    )
    if failures:
        print(f"benchcheck: FAIL ({len(failures)} regression(s))")
        return 1
    print("benchcheck: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
