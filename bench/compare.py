"""Compare two benchmark results written by ``bench/run.py --out``.

    python bench/compare.py A.json B.json

``A`` is the base (the parent commit), ``B`` the change.  For every
end-to-end metric of ``BENCHMARK.json`` on every workload both files ran,
this prints each side's median and quartiles over its repetitions and a
verdict:

``regressed``
    B's median is worse than A's by more than the metric's bound, with both
    spreads within the bound (or every B sample worse than every A sample).
``improved``
    B's median is better than A's by more than either side's spread
    (quartile distance over median), with both spreads within the bound;
    or every B sample is better than every A sample.
``unresolved``
    A spread is wider than the bound, so the runs cannot tell a change of
    that size from noise.
``unchanged``
    Otherwise.

A failed operation in B is a regression too.  The exit status is 1 when
anything regressed, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(s: dict) -> float:
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0


def verdict(a: dict, b: dict, bound: float, better: str) -> tuple[str, float]:
    """The verdict for one (metric, workload) pair and B's relative change.

    The change is signed so that positive means worse.
    """
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b["median"] - a["median"]) / a["median"]
    if better == "lower":
        all_better = max(b["values"]) < min(a["values"])
        all_worse = min(b["values"]) > max(a["values"])
    else:
        all_better = min(b["values"]) > max(a["values"])
        all_worse = max(b["values"]) < min(a["values"])
    noisy = max(spread(a), spread(b)) > bound
    if worse > bound and (all_worse or not noisy):
        return "regressed", worse
    if all_better or (not noisy and -worse > max(spread(a), spread(b))):
        return "improved", worse
    if noisy:
        return "unresolved", worse
    return "unchanged", worse


def compare(a_doc: dict, b_doc: dict, spec: dict) -> tuple[list[str], bool]:
    """Report lines, and whether anything regressed."""
    lines = []
    regressed = False
    header = (
        f"{'workload':<9} {'metric':<13} {'A median':>11} {'A q1..q3':>23} "
        f"{'B median':>11} {'B q1..q3':>23} {'change':>8}  verdict (bound)"
    )
    lines.append(header)
    for name, b_res in b_doc["workloads"].items():
        a_res = a_doc["workloads"].get(name)
        if a_res is None:
            lines.append(f"{name:<9} only in B; not compared")
            continue
        for m in spec["end_to_end"]:
            a, b = a_res["metrics"][m["name"]], b_res["metrics"][m["name"]]
            result, worse = verdict(a, b, m["bound"], m["better"])
            regressed |= result == "regressed"
            lines.append(
                f"{name:<9} {m['name']:<13} {a['median']:>11.5g} "
                f"{a['q1']:>11.5g}..{a['q3']:<11.5g} {b['median']:>11.5g} "
                f"{b['q1']:>11.5g}..{b['q3']:<11.5g} {worse:>+8.1%}  "
                f"{result} ({m['bound']:.0%})"
            )
        if b_res["failed"]:
            regressed = True
            lines.append(
                f"{name:<9} error_rate: {b_res['failed']} of {b_res['attempted']} "
                "operations failed in B  regressed"
            )
    return lines, regressed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_doc, b_doc = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lines, regressed = compare(a_doc, b_doc, spec)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
