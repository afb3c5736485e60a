"""Compare two documents written by ``bench/run.py -o``.

    python3 bench/compare.py a.json b.json [--same-code]

``a`` is the base (the parent commit, or the first of two runs of one
commit), ``b`` the candidate.  Per workload and end-to-end metric it
prints both medians, the change relative to ``a``, and a verdict under
the bound stored in ``BENCHMARK.json``:

``ok``          b is no worse than a by more than the bound;
``regressed``   b is worse than a by more than the bound;
``unresolved``  the spread of either side is wider than the bound, so
                the medians cannot tell — reported as such, never as
                unchanged.  One document holds one run, so the spread
                of a median is estimated from inside it: the distance
                between the first and third quartile of the run's
                samples over sqrt(n), as a share of their median.

``result_digest`` and every per-layer metric that repeats exactly
(counts, bytes, ratios) are compared for equality and the differences
listed: two runs of the same code must agree on all of them
(``--same-code`` makes a difference an error); after a change they say
what the change simulated differently.  Exits non-zero on a regression
or a larger ``failed_fraction``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

from run import EXACT_UNITS, load_spec


def spread(samples: list[float]) -> float:
    """How far the median of ``samples`` moves between runs, as a share of it.

    ``(Q3 - Q1) / sqrt(n)`` over the median; 0 for the metrics a run
    samples once (memory, quality), which have no within-run spread.
    """
    if len(samples) < 4:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / math.sqrt(len(samples)) / abs(statistics.median(samples))


def verdict(metric: dict, a: dict, b: dict) -> tuple[float, str]:
    """Relative change of ``b`` against ``a`` and its verdict."""
    change = (b["value"] - a["value"]) / abs(a["value"])
    worse = -change if metric["better"] == "higher" else change
    if max(spread(a["samples"]), spread(b["samples"])) > metric["bound"]:
        return change, "unresolved"
    return change, "regressed" if worse > metric["bound"] else "ok"


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], list[str], list[str]]:
    """Report lines, regressions and exact-match differences."""
    lines, regressions, differences = [], [], []
    if (a["seed"], a["seconds"], a["scale"]) != (b["seed"], b["seconds"], b["scale"]):
        differences.append(
            "settings differ: seed/seconds/scale "
            f"{a['seed']}/{a['seconds']}/{a['scale']} vs "
            f"{b['seed']}/{b['seconds']}/{b['scale']}"
        )
    exact = {m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS}
    for workload in spec["workloads"]:
        name = workload["name"]
        wa, wb = a["workloads"][name], b["workloads"][name]
        lines.append(f"\n{name}")
        for metric in spec["end_to_end"]:
            ma, mb = wa["end_to_end"][metric["name"]], wb["end_to_end"][metric["name"]]
            change, status = verdict(metric, ma, mb)
            lines.append(
                f"  {metric['name']:<18}{ma['unit']:<7}a {ma['value']:<12.6g}"
                f"b {mb['value']:<12.6g}{change:+8.1%} of a   "
                f"spread a {spread(ma['samples']):.1%} b {spread(mb['samples']):.1%}"
                f"   bound {metric['bound']:.0%}   {status}"
            )
            if status == "regressed":
                regressions.append(f"{name}.{metric['name']}")
        fa, fb = (
            (w["failed"] + w["trace"]["failed"])
            / (w["attempted"] + w["trace"]["attempted"])
            for w in (wa, wb)
        )
        lines.append(f"  failed_fraction          a {fa:<12.6g}b {fb:<12.6g}")
        if fb > fa:
            regressions.append(f"{name}.failed_fraction")
        noisy = [s for s, w in (("a", wa), ("b", wb)) if w["noisy"]]
        if noisy:
            lines.append(f"  noisy host during: {', '.join(noisy)}")
        if wa["result_digest"] != wb["result_digest"]:
            differences.append(f"{name}: result_digest differs")
        la, lb = wa["trace"]["layers"], wb["trace"]["layers"]
        for metric in sorted(exact & (set(la) | set(lb))):
            va = la.get(metric, {}).get("value")
            vb = lb.get(metric, {}).get("value")
            if va != vb:
                differences.append(f"{name}: {metric} {va} -> {vb}")
    return lines, regressions, differences


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--same-code", action="store_true",
                        help="both documents come from one commit: a digest "
                             "or count that differs is an error")
    args = parser.parse_args()
    lines, regressions, differences = compare(
        json.loads(args.a.read_text()), json.loads(args.b.read_text()), load_spec()
    )
    print("\n".join(lines))
    print(f"\nexact-match differences: {len(differences)}")
    for difference in differences:
        print(f"  {difference}")
    print(f"regressed: {', '.join(regressions) or 'none'}")
    if regressions or (args.same_code and differences):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
