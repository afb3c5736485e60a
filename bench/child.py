"""One workload in one fresh process; prints one JSON line for run.py.

``run.py`` starts this file as a subprocess so that every set-up
sample pays for the interpreter, ``import repro`` and the first run,
and so that ``peak_rss_mb`` belongs to one workload.  Three modes:

``setup``    import, generate inputs, one short warm-up run, exit;
``measure``  the same, then timed repetitions (tracing off) until
             ``seconds`` have passed, at least ``min_repetitions``;
``trace``    the same, then pairs of one untraced and one traced
             repetition on the same inputs until ``seconds`` have
             passed.

Closed loop, one operation at a time, no threads of its own.
Repetition ``i`` runs on inputs generated from ``seed + 17 * i``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class HostProbe:
    """A fixed in-cache NumPy loop, timed around every repetition.

    The reference box is a shared 2-core VM whose speed drifts by tens
    of percent over seconds and minutes.  The probe is read just before
    and just after each repetition so that ``run.py`` can state
    throughput per *calibrated* second (``run.calibrated``) and flag
    noisy runs.  Its arrays (3 x 160 kB) stay in L1/L2, so it follows
    the core's speed and adds nothing to ``peak_rss_mb``.
    """

    ROUNDS = 2000

    def __init__(self, np):
        self._np = np
        self._x = np.random.default_rng(0).random(20_000)
        self._y = np.zeros_like(self._x)
        self._tmp = np.empty_like(self._x)

    def read(self) -> float:
        """Seconds the loop takes right now."""
        np, x, y, tmp = self._np, self._x, self._y, self._tmp
        t0 = time.perf_counter()
        for _ in range(self.ROUNDS):
            np.multiply(y, 0.3, out=y)
            np.multiply(x, 0.7, out=tmp)
            np.add(y, tmp, out=y)
            np.clip(y, 0.0, 1.0, out=y)
        return time.perf_counter() - t0


def note(workload: str, messages: list[str]) -> None:
    for message in messages:
        print(f"[{workload}] FAILED: {message}", file=sys.stderr)


def main() -> None:
    args = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import numpy as np

    from tracing import Tracer
    from workloads import SCALES, WORKLOADS, warmup_scale

    import_s = time.perf_counter() - t0

    name, seed, seconds = args["workload"], args["seed"], args["seconds"]
    workload = WORKLOADS[name]
    scale = SCALES[args["scale"]]
    out = Path(args["out"])
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    warm_inputs = workload.build(seed, warmup_scale(scale))
    warm_records = workload.run(warm_inputs, out)
    warmup_s = time.perf_counter() - t0
    report = {
        # time.monotonic() is one system-wide clock on Linux, so the
        # parent's reading before the spawn and this one subtract.
        "setup_s": time.monotonic() - args["spawned_at"],
        "import_s": import_s,
        "warmup_s": warmup_s,
    }
    probe = HostProbe(np)
    before = probe.read()
    report["setup_calib_s"] = before
    if args["mode"] == "setup":
        print(json.dumps(report))
        return

    attempted = failed = 0
    if workload.deep_check is not None:
        messages = workload.deep_check(warm_inputs, warm_records)
        note(name, messages)
        attempted = workload.operations(warm_inputs)
        failed = min(len(messages), attempted)

    calib: list[float] = []
    rates: list[float] = []
    qualities: list[float] = []
    digest = hashlib.sha256()
    pairs: list[dict] = []
    plain_s: list[float] = []
    traced_s: list[float] = []
    i = 0
    began = time.perf_counter()
    while i < scale["min_repetitions"] or time.perf_counter() - began < seconds:
        inputs = workload.build(seed + 17 * i, scale)
        ops = workload.operations(inputs)
        attempted += ops
        try:
            t0 = time.perf_counter()
            records = workload.run(inputs, out)
            elapsed = time.perf_counter() - t0
            messages = workload.check(inputs, records)
            if args["mode"] == "trace":
                tracer = Tracer()
                layers, identity, traced_elapsed = workload.traced(
                    inputs, tracer, out, records
                )
                traced_s.append(traced_elapsed)
                plain_s.append(elapsed)
                pairs.append(layers)
                messages += identity
                if i == 0:
                    tracer.dump(out / f"trace_{name}.json")
        except Exception:  # noqa: BLE001 - a raised operation is a failed one
            traceback.print_exc()
            failed += ops
            before = probe.read()
        else:
            after = probe.read()
            calib.append((before + after) / 2)
            before = after
            note(name, messages)
            failed += min(len(messages), ops)
            rates.append(sum(r.total_evaluations for r in records) / elapsed)
            if i < scale["min_repetitions"]:
                # Fixed repetitions, so quality and digest repeat
                # exactly for the same code and seed however many
                # repetitions the clock allows.
                qualities.append(workload.quality(records))
                digest.update(
                    json.dumps(
                        [r.to_dict() for r in records], sort_keys=True
                    ).encode()
                )
        i += 1
    report.update({
        "attempted": attempted,
        "failed": failed,
        "evals_per_s": rates,
        "quality_decades": qualities,
        "result_digest": digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calib_s": calib,
        "pairs": pairs,
        "plain_s": plain_s,
        "traced_s": traced_s,
    })
    print(json.dumps(report))


if __name__ == "__main__":
    main()
