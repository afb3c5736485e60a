"""The benchmark harness: five workloads, end-to-end rates, a layer trace.

One workload, the way the benchmark driver calls it::

    python3 bench/run.py --workload gossip_steady --seed 1 --seconds 12 --trace 0

prints every end-to-end metric by name with its unit, sample count,
min and max, and ends with one JSON line ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 1`` prints the per-layer metrics
instead.  Without ``--workload`` it runs all five workloads, both
passes each, prints both tables and writes one document (``-o``) that
``bench/compare.py`` compares against another.

Metric names, units and bounds are read from ``BENCHMARK.json``; the
workloads themselves live in ``workloads.py`` and run in fresh child
processes (``child.py``).  Exits non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Units of per-layer metrics that repeat exactly for the same code and
#: seed (taken from the first traced repetition); everything else is
#: host time (median over the traced repetitions, reported, not gated).
EXACT_UNITS = ("count", "bytes", "ratio")
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = {"full": 5, "tiny": 1}
#: A child that has not finished by then is killed and the run fails;
#: the driver allows a whole run 180 s.
CHILD_TIMEOUT = 150
#: The host probe's usual reading on the reference box; a calibrated
#: second is a second of a host that reads exactly this.
CALIB_REF_S = 0.045
#: Probe readings further apart than this share of their median flag
#: the run noisy.
NOISE_LIMIT = 0.10


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spawn(mode: str, workload: str, seed: int, seconds: float, scale: str,
          out: Path) -> dict:
    """Run ``child.py`` once and return the JSON report on its last line."""
    args = {
        "mode": mode, "workload": workload, "seed": seed, "seconds": seconds,
        "scale": scale, "out": str(out), "spawned_at": time.monotonic(),
    }
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), json.dumps(args)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=CHILD_TIMEOUT,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stat(values: list[float], unit: str) -> dict:
    return {
        "value": statistics.median(values), "unit": unit,
        "n": len(values), "min": min(values), "max": max(values),
        "samples": values,
    }


def noise(report: dict) -> dict:
    """The host-noise guard: how far the probe moved during the run."""
    readings = report["calib_s"]
    span = (max(readings) - min(readings)) / statistics.median(readings)
    return {"calib_s": readings, "noisy": span > NOISE_LIMIT}


def calibrated(seconds: float, probe_s: float) -> float:
    """``seconds`` of host time as seconds of the reference-speed host.

    The host probe took ``probe_s`` next to the measurement and takes
    ``CALIB_REF_S`` on the reference host, so the same work would have
    taken ``seconds * CALIB_REF_S / probe_s`` there.  On the reference
    box ten runs spread by 11-41 % in raw wall time and by 4-18 % in
    calibrated seconds (bench/README.md, "Steadiness").
    """
    return seconds * CALIB_REF_S / probe_s


def measure(workload: str, seed: int, seconds: float, scale: str,
            out: Path, setup_samples: int) -> dict:
    """Tracing off: the end-to-end metrics of one workload."""
    reports = [
        spawn("setup", workload, seed, 0, scale, out)
        for _ in range(setup_samples - 1)
    ]
    report = spawn("measure", workload, seed, seconds, scale, out)
    reports.append(report)
    if not report["evals_per_s"]:
        raise SystemExit(f"{workload}: no repetition completed")
    return {
        "end_to_end": {
            "evals_per_cal_s": stat(
                [
                    evals / calibrated(1.0, probe_s)
                    for evals, probe_s in zip(report["evals_per_s"], report["calib_s"])
                ],
                "1/s",
            ),
            "quality_decades": stat(report["quality_decades"], "log10"),
            "setup_s": stat(
                [calibrated(r["setup_s"], r["setup_calib_s"]) for r in reports], "s"
            ),
            "peak_rss_mb": stat([report["peak_rss_mb"]], "MB"),
        },
        "wall": {
            "evals_per_s": statistics.median(report["evals_per_s"]),
            "setup_s": statistics.median(r["setup_s"] for r in reports),
        },
        "attempted": report["attempted"],
        "failed": report["failed"],
        "result_digest": report["result_digest"],
        **noise(report),
    }


def trace(workload: str, seed: int, seconds: float, scale: str, out: Path,
          per_layer: list[dict]) -> dict:
    """Tracing on: the per-layer metrics of one workload."""
    report = spawn("trace", workload, seed, seconds, scale, out)
    pairs = report["pairs"]
    if not pairs:
        raise SystemExit(f"{workload}: no traced repetition completed")
    values = {
        "wall.evals_per_s": statistics.median(report["evals_per_s"]),
        "wall.setup_s": report["setup_s"],
        "env.calib_s": statistics.median(report["calib_s"]),
        "setup.import_s": report["import_s"],
        "setup.warmup_s": report["warmup_s"],
        # Each traced repetition against its own untraced twin, run a
        # second earlier: the host's drift mostly cancels inside a pair.
        "trace.overhead_fraction": statistics.median(
            traced / plain - 1
            for traced, plain in zip(report["traced_s"], report["plain_s"])
        ),
    }
    units = {metric["name"]: metric["unit"] for metric in per_layer}
    for name in pairs[0]:
        if units.get(name) in EXACT_UNITS:
            values[name] = pairs[0][name]
        else:
            values[name] = statistics.median(pair[name] for pair in pairs)
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise SystemExit(f"{workload}: metrics not in BENCHMARK.json: {unknown}")
    # In BENCHMARK.json's order; other workloads' layers are left out.
    layers = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items() if name in values
    }
    return {
        "layers": layers,
        "traced_repetitions": len(pairs),
        "attempted": report["attempted"],
        "failed": report["failed"],
        **noise(report),
    }


# -- printing ----------------------------------------------------------------------


def fmt(value: float) -> str:
    return f"{value:.6g}"


def print_end_to_end(name: str, result: dict, spec: dict) -> None:
    print(f"\n{name}: end to end (tracing off; closed loop, one operation at a time)")
    for metric in spec["end_to_end"]:
        s = result["end_to_end"][metric["name"]]
        print(
            f"  {metric['name']:<18}{s['unit']:<7}median {fmt(s['value']):<12}"
            f"n={s['n']:<3} min {fmt(s['min']):<12} max {fmt(s['max']):<12}"
            f"{metric['better']} is better, bound {metric['bound']:.0%}"
        )
    print(
        "  (medians only: the sample counts above support no tail percentile;\n"
        "   times are calibrated seconds - uncalibrated wall clock: "
        f"evals_per_s {fmt(result['wall']['evals_per_s'])}, "
        f"setup_s {fmt(result['wall']['setup_s'])})\n"
        f"  failed_fraction   {result['failed']}/{result['attempted']}"
        f" = {fmt(result['failed'] / result['attempted'])}\n"
        f"  result_digest     sha256:{result['result_digest'][:16]}\n"
        f"  env.calib_s       median {fmt(statistics.median(result['calib_s']))}"
        f" min {fmt(min(result['calib_s']))} max {fmt(max(result['calib_s']))}"
        f"  noisy: {result['noisy']}"
    )


def print_layers(name: str, result: dict) -> None:
    print(
        f"\n{name}: per layer ({result['traced_repetitions']} traced "
        "repetition(s); counts from the first, times are medians)"
    )
    for metric, entry in result["layers"].items():
        print(f"  {metric:<40}{fmt(entry['value']):>14} {entry['unit']}")
    print(
        f"  failed {result['failed']}/{result['attempted']}"
        f"  noisy: {result['noisy']}"
    )


def contract_line(result: dict, metrics: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def environment(out: Path) -> dict:
    import numpy

    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    out.mkdir(parents=True, exist_ok=True)
    filesystem = "unknown"
    mounts = Path("/proc/mounts")
    if mounts.exists():
        best, where = "", str(out.resolve())
        for line in mounts.read_text().splitlines():
            _, mount, fstype = line.split()[:3]
            if where.startswith(mount) and len(mount) >= len(best):
                best, filesystem = mount, fstype
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": has_numba,
        "out_filesystem": filesystem,
    }


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print("bench/run.py: no src/repro beside bench/ - nothing to measure",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny is the smoke-test size")
    parser.add_argument("--out", type=Path, default=BENCH / "out",
                        help="directory for traces and spool scratch")
    parser.add_argument("-o", "--output", type=Path,
                        help="all-workloads mode: where to write the document "
                             "(default <out>/latest.json)")
    args = parser.parse_args()
    setup_samples = SETUP_SAMPLES[args.scale]
    env = environment(args.out)
    print("env: " + "  ".join(f"{k}={v}" for k, v in env.items()))

    if args.workload:
        if args.trace:
            result = trace(args.workload, args.seed, args.seconds, args.scale,
                           args.out, spec["per_layer"])
            print_layers(args.workload, result)
            metrics = {
                m["name"]: result["layers"].get(
                    m["name"], {"value": 0, "unit": m["unit"]}
                )
                for m in spec["per_layer"]
            }
        else:
            result = measure(args.workload, args.seed, args.seconds,
                             args.scale, args.out, setup_samples)
            print_end_to_end(args.workload, result, spec)
            metrics = {
                name: {"value": s["value"], "unit": s["unit"]}
                for name, s in result["end_to_end"].items()
            }
        print(contract_line(result, metrics))
        return 0 if result["failed"] == 0 else 1

    document = {
        "schema": "bench/1", "seed": args.seed, "seconds": args.seconds,
        "scale": args.scale, "env": env, "workloads": {},
    }
    failed = 0
    for name in names:
        result = measure(name, args.seed, args.seconds, args.scale,
                         args.out, setup_samples)
        print_end_to_end(name, result, spec)
        traced = trace(name, args.seed, args.seconds, args.scale, args.out,
                       spec["per_layer"])
        print_layers(name, traced)
        failed += result["failed"] + traced["failed"]
        result["trace"] = traced
        document["workloads"][name] = result
    output = args.output or args.out / "latest.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(document, indent=1))
    print(f"\nwrote {output}; failed operations: {failed}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
