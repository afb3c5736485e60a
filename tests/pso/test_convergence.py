"""Convergence behaviour of the PSO solver across the paper suite.

These are statistical regression tests pinned by fixed seeds: they
assert the solver achieves sensible quality on each function class
(easy / nice / hard per the paper's classification) within a modest
budget, and that known pathologies behave as expected (the literal
textbook parameters do not converge).
"""

from __future__ import annotations

import numpy as np

from repro.functions import get_function
from repro.pso.swarm import Swarm
from repro.utils.config import PSOConfig


def best_of_runs(fname: str, evaluations: int, runs: int = 3, **pso_kwargs) -> float:
    f = get_function(fname)
    results = []
    for seed in range(runs):
        swarm = Swarm(f, PSOConfig(particles=16, **pso_kwargs),
                      np.random.default_rng(seed))
        results.append(swarm.run(evaluations, synchronous=True))
    return min(results)


class TestSuiteConvergence:
    def test_f2_easy(self):
        assert best_of_runs("f2", 16 * 200) < 1e-6

    def test_sphere_deep_convergence(self):
        assert best_of_runs("sphere", 16 * 500) < 1e-15

    def test_zakharov_nice(self):
        assert best_of_runs("zakharov", 16 * 500) < 1e-6

    def test_rosenbrock_moderate(self):
        # The banana valley: last digits are hard; 1e2 is a good swarm.
        assert best_of_runs("rosenbrock", 16 * 500) < 100.0

    def test_schaffer_reaches_inner_rings(self):
        # In 10-D a single 16-particle swarm typically lands a few
        # rings out (the paper's 0.00972 first-ring value needs the
        # collective network budget); a handful of rings in is still
        # far below random sampling (~0.5).
        assert best_of_runs("schaffer", 16 * 500) < 0.05

    def test_griewank_partial(self):
        # Hard: stuck in local minima but far below random (~90).
        assert best_of_runs("griewank", 16 * 500) < 0.5


class TestParameterPathologies:
    def test_textbook_parameters_do_not_converge(self):
        """w=1, c=2 (the paper's literal equations) stagnates orders of
        magnitude above the constricted defaults — the documented
        reason we default to constriction."""
        literal = best_of_runs("sphere", 16 * 300, inertia=1.0, c1=2.0, c2=2.0)
        constricted = best_of_runs("sphere", 16 * 300)
        assert literal > 1e3 * max(constricted, 1e-300)

    def test_tiny_swarm_is_weak(self):
        """k=1 degenerates (no independent social signal): the paper's
        Figure 1 shows particles=1 far above the rest."""
        k1 = Swarm(get_function("sphere"), PSOConfig(particles=1),
                   np.random.default_rng(0)).run(1000)
        k16 = Swarm(get_function("sphere"), PSOConfig(particles=16),
                    np.random.default_rng(0)).run(1000, synchronous=True)
        assert k16 < k1

    def test_more_evaluations_never_hurt_much(self):
        short = best_of_runs("sphere", 16 * 50)
        long = best_of_runs("sphere", 16 * 400)
        assert long <= short * 1.01


class TestConvergenceTrajectory:
    def test_sphere_log_linear_decay(self):
        """Constricted PSO converges roughly exponentially on Sphere:
        log-quality drops by a healthy factor between budget
        checkpoints."""
        f = get_function("sphere")
        swarm = Swarm(f, PSOConfig(particles=16), np.random.default_rng(7))
        checkpoints = []
        for _ in range(4):
            swarm.run(16 * 100, synchronous=True)
            checkpoints.append(swarm.best_value)
        # Each extra 100 sweeps buys at least 2 orders of magnitude.
        for a, b in zip(checkpoints, checkpoints[1:]):
            assert b < a * 1e-2 or b < 1e-200
