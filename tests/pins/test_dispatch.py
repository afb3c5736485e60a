"""A seed names one run whatever SIMD level NumPy dispatches to.

NumPy picks its sort and partition kernels by CPU feature at import
time, and leaves the output order of ``argpartition`` unspecified.
These rows once stored picks in that order; rerunning them in a fresh
interpreter with every dispatchable feature switched off (NumPy's
baseline kernels: what a CPU without AVX2 runs) must give the
committed digests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROWS = (
    "overlay/cycles-512",
    "record/fast-strict-cyclon",
    "record/churn-fast-strict",
    "record/event-fast-push",
)

#: Run in the child: report the dispatched features still on (the
#: variable did not take), the rows that moved, and the shapes where
#: ``smallest_keys`` is not the prefix of a stable sort.
CHILD = """
import json, sys
import numpy as np
from repro.topology.array_views import smallest_keys
from tests.pins.cases import CASES, load_pins
from tests.pins.test_dispatch import SHAPES, dispatched

pins = load_pins()
unsorted = []
for rows, cols, count in SHAPES:
    keys = np.random.default_rng(rows * cols).random((rows, cols))
    stable = np.argsort(keys, axis=1, kind="stable")[:, :count]
    if not np.array_equal(smallest_keys(keys, count - 1, count), stable):
        unsorted.append([rows, cols, count])
print(json.dumps({
    "on": dispatched(),
    "moved": [name for name in sys.argv[1:] if CASES[name].digest() != pins[name]],
    "unsorted": unsorted,
}))
"""

#: ``(rows, cols, count)``: baseline ``argpartition`` leaves each one's
#: picks out of key order.
SHAPES = ((3, 5, 5), (64, 33, 32), (16, 512, 20), (4, 2048, 20))


def umath():
    """NumPy's C core, which names its dispatch targets (2.x, then 1.x)."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:
        from numpy.core import _multiarray_umath
    return _multiarray_umath


def dispatched() -> list[str]:
    """The dispatch targets this CPU runs, as NumPy names them."""
    core = umath()
    return [f for f in core.__cpu_dispatch__ if core.__cpu_features__.get(f)]


@pytest.fixture(scope="module")
def baseline_child():
    """What one interpreter with every dispatched feature disabled saw."""
    features = dispatched()
    if not features:
        pytest.skip("this CPU runs NumPy's baseline kernels already")
    root = Path(__file__).parents[2]
    path = os.pathsep.join(filter(None, [str(root / "src"), str(root),
                                         os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path,
           "NPY_DISABLE_CPU_FEATURES": " ".join(features)}
    child = subprocess.run([sys.executable, "-c", CHILD, *ROWS], cwd=root,
                           env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_child_runs_without_dispatched_kernels(baseline_child):
    assert baseline_child["on"] == []


@pytest.mark.parametrize("row", ROWS)
def test_pin_row_holds_on_numpy_baseline_kernels(baseline_child, row):
    assert row not in baseline_child["moved"]


def test_smallest_keys_sorted_on_numpy_baseline_kernels(baseline_child):
    assert baseline_child["unsorted"] == []
