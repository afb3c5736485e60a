"""Command-line entry point for the paper experiments.

Usage::

    python -m repro.experiments exp1 [--scale smoke|reduced|full]
                                     [--seed N] [--csv PATH] [--quiet]
                                     [--workers N] [--spool DIR]
    python -m repro.experiments exp6 --scale tiny --engine fast
    python -m repro.experiments all --scale smoke

Prints the paper-style report (tables + ASCII figures) to stdout;
``--csv`` additionally dumps the raw per-run data.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.export import results_to_csv
from repro.experiments import EXPERIMENTS
from repro.experiments.common import run, stderr_progress
from repro.scenario.policy import ExecutionPolicy

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which paper artefact to regenerate (expN = Table N / Figure N)",
    )
    parser.add_argument(
        "--scale",
        default="reduced",
        help="sweep extent, a key of the experiment's SCALES: smoke=seconds, "
        "reduced=minutes, full=paper scale (exp6 also defines tiny)",
    )
    parser.add_argument("--seed", type=int, default=42, help="master seed")
    parser.add_argument(
        "--engine",
        default="reference",
        choices=("reference", "fast"),
        help="simulation engine: 'reference' = full per-node protocol "
        "stack, 'fast' = vectorized SoA network kernel (statistically "
        "equivalent, order of magnitude faster at scale)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-parallel sweep execution: every (point, repetition) "
        "pair is an independent job scheduled over this many worker "
        "processes; results are identical to the sequential run",
    )
    parser.add_argument(
        "--spool",
        default=None,
        help="spool directory for resumable/multi-host sweeps: jobs go "
        "through a file-backed queue that workers on other hosts "
        "('python -m repro.distributed worker --spool DIR') can share; "
        "already-completed jobs are not re-run",
    )
    parser.add_argument(
        "--stale-after",
        type=float,
        default=None,
        help="spool mode: also reclaim this sweep's claims older than this "
        "many seconds (recovery from vanished remote hosts; a few heartbeat "
        "intervals is enough whatever the job length, since workers stamp "
        "their claims while executing). Default: recover only provably "
        "dead local workers",
    )
    parser.add_argument("--csv", default=None, help="also dump raw runs to CSV")
    parser.add_argument(
        "--dump-scenarios",
        action="store_true",
        help="print the sweep as declarative Scenario JSON and exit "
        "without running anything",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-config progress on stderr"
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be >= 1")

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    lacking = [n for n in names if args.scale not in EXPERIMENTS[n].SCALES]
    if lacking:
        shared = set.intersection(*(set(EXPERIMENTS[n].SCALES) for n in names))
        parser.error(
            f"--scale {args.scale!r} is not defined by {', '.join(lacking)}; "
            f"available for this selection: {', '.join(sorted(shared))}"
        )
    progress = None if args.quiet else stderr_progress

    if args.dump_scenarios:
        import json

        specs = []
        for name in names:
            specs.extend(
                s.to_dict()
                for s in EXPERIMENTS[name].points(
                    scale=args.scale, seed=args.seed, engine=args.engine
                )
            )
        print(json.dumps(specs, indent=2))
        return 0

    # One value describes how every experiment executes; run_sweep
    # hands it to run_points, which picks sequential or job service.
    policy = ExecutionPolicy(
        workers=args.workers, spool=args.spool, stale_after=args.stale_after
    )

    all_results = []
    for name in names:
        module = EXPERIMENTS[name]
        data = run(
            module, scale=args.scale, seed=args.seed, progress=progress,
            engine=args.engine, policy=policy,
        )
        print(module.report(data))
        all_results.extend(data.entries)

    if args.csv:
        results_to_csv(all_results, path=args.csv)
        print(f"raw runs written to {args.csv}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
