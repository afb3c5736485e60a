"""Micro-benchmarks of the hot paths.

Unlike the experiment benches (one pedantic round each), these use
pytest-benchmark's statistical timing: they are the numbers to watch
when optimizing the simulator or solver internals.
"""

from __future__ import annotations

import numpy as np

from repro.core.dpso import DistributedPSOService
from repro.core.kernels import get_backend
from repro.core.kernels.workspace import Workspace
from repro.functions.base import get_function
from repro.pso.swarm import Swarm
from repro.simulator.engine import CycleDrivenEngine
from repro.simulator.network import Network
from repro.topology.array_views import pack_views
from repro.topology.newscast import NewscastProtocol, bootstrap_views
from repro.utils.config import NewscastConfig, PSOConfig
from repro.utils.rng import SeedSequenceTree

from run_bench import _time, fast_engine, reference_engine, scenario_config


class TestFunctionEvaluation:
    def test_sphere_batch_1k(self, benchmark):
        f = get_function("sphere")
        pts = f.sample_uniform(np.random.default_rng(0), 1000)
        benchmark(f.batch, pts)

    def test_griewank_batch_1k(self, benchmark):
        f = get_function("griewank")
        pts = f.sample_uniform(np.random.default_rng(0), 1000)
        benchmark(f.batch, pts)

    def test_rosenbrock_batch_1k(self, benchmark):
        f = get_function("rosenbrock")
        pts = f.sample_uniform(np.random.default_rng(0), 1000)
        benchmark(f.batch, pts)


class TestSolverStep:
    def test_synchronous_sweep_k16(self, benchmark):
        swarm = Swarm(
            get_function("sphere"), PSOConfig(particles=16), np.random.default_rng(0)
        )
        benchmark(swarm.step_cycle)

    def test_per_particle_step(self, benchmark):
        swarm = Swarm(
            get_function("sphere"), PSOConfig(particles=16), np.random.default_rng(0)
        )
        benchmark(swarm.step_particle)

    def test_service_bulk_100_evals(self, benchmark):
        service = DistributedPSOService(
            get_function("sphere"), PSOConfig(particles=10), np.random.default_rng(0)
        )
        benchmark(service.step_evaluations, 100)


class TestNewscastCycle:
    def _build(self, n):
        tree = SeedSequenceTree(0)
        net = Network(rng=tree.rng("network"))
        cfg = NewscastConfig(view_size=20)

        def factory(node):
            node.attach(
                "newscast", NewscastProtocol(cfg, tree.rng("n", node.node_id))
            )

        net.populate(n, factory=factory)
        bootstrap_views(net, tree.rng("bootstrap"))
        return CycleDrivenEngine(net, rng=tree.rng("engine"))

    def test_newscast_cycle_n100(self, benchmark):
        engine = self._build(100)
        benchmark(engine.run, 1)

    def test_newscast_cycle_n1000(self, benchmark):
        engine = self._build(1000)
        benchmark(engine.run, 1)


class TestKernelBackendMicro:
    """Kernel cost on the paper-default hot-path shapes (n=1000 nodes,
    k=8 particles, d=10 dimensions; NEWSCAST view capacity c=20).  Each
    call runs through a warmed workspace so first-touch allocation
    stays out of the timed region."""

    def test_fused_update_n1000_k8(self, benchmark):
        backend = get_backend("numpy")
        rng = np.random.default_rng(0)
        m, w, d = 1000, 8, 10
        pos = rng.uniform(-100.0, 100.0, (m, w, d))
        vel = rng.uniform(-1.0, 1.0, (m, w, d))
        pb = rng.uniform(-100.0, 100.0, (m, w, d))
        gbest = rng.uniform(-100.0, 100.0, (m, 1, d))
        r1 = rng.random((m, w, d))
        r2 = rng.random((m, w, d))
        vmax = np.full(d, 50.0)
        lower = np.full(d, -100.0)
        upper = np.full(d, 100.0)
        out_vel = np.empty_like(vel)
        out_pos = np.empty_like(pos)
        ws = Workspace()

        def run():
            return backend.fused_pso_update(
                pos, vel, pb, gbest, r1, r2, 0.729, 1.494, 1.494,
                vmax=vmax, lower=lower, upper=upper,
                out_vel=out_vel, out_pos=out_pos, ws=ws,
            )

        run()  # warm: size the scratch buffers
        benchmark(run)

    def test_newscast_merge_n1000_c20(self, benchmark):
        backend = get_backend("numpy")
        rng = np.random.default_rng(1)
        m, c = 1000, 20
        width = 2 * c + 1
        cand_ids = rng.integers(0, 4 * m, (m, width)).astype(np.int64)
        cand_ts = rng.integers(0, 1 << 20, (m, width)).astype(np.int64)
        # Sprinkle empty slots the way a warming overlay produces them.
        cand_ids[rng.random((m, width)) < 0.25] = -1
        keys = pack_views(cand_ids, cand_ts)
        ws = Workspace()

        def run():
            return backend.merge_candidates(keys, c, ws=ws)

        run()  # warm as above
        benchmark(run)


class TestNetworkEngineCycle:
    """Whole-network cycle cost: reference protocol stack vs the
    vectorized SoA fast path, both simulating the real NEWSCAST
    overlay, on the paper-default scenario shape (n=1000, k=r=8).
    The speedup test mirrors the BENCH_3 CI gate at a safety floor."""

    def test_fast_engine_cycle_n1000_k8(self, benchmark):
        fast = fast_engine(scenario_config(1000, 8), "newscast")
        fast.run(2)  # settle into steady-state full sweeps
        benchmark.pedantic(fast.run_one_cycle, rounds=10, iterations=1)

    def test_reference_engine_cycle_n1000_k8(self, benchmark):
        reference = reference_engine(scenario_config(1000, 8))
        reference.run(1)
        benchmark.pedantic(reference.run, args=(1,), rounds=3, iterations=1)

    def test_fast_engine_at_least_10x_faster(self, report_dir):
        """Median-of-rounds wall-clock ratio on one engine cycle.

        Measured ~17x on the development machine with real overlays
        (BENCH_3's headline is gated at 15x in CI); asserted here at a
        10x safety floor, with one re-measure (more rounds) before
        failing so a transient load spike on a shared runner doesn't
        sink the suite.  Timing comes from run_bench._time — the same
        code that produces the committed BENCH_3.json numbers.
        """
        config = scenario_config(1000, 8)
        fast = fast_engine(config, "newscast")
        reference = reference_engine(config)
        fast.run(2)
        reference.run(1)

        speedup = 0.0
        for rounds, ref_rounds in ((10, 4), (30, 8)):
            fast_s = _time(fast.run_one_cycle, rounds=rounds)["median_s"]
            ref_s = _time(lambda: reference.run(1), rounds=ref_rounds)["median_s"]
            speedup = ref_s / fast_s
            if speedup >= 10.0:
                break
        from conftest import save_report

        save_report(
            report_dir,
            "engine_speedup",
            (
                "Fast vs reference engine (real NEWSCAST overlay), "
                "one cycle at n=1000 k=8 r=k\n"
                f"reference: {1e3 * ref_s:8.2f} ms/cycle\n"
                f"fast:      {1e3 * fast_s:8.2f} ms/cycle\n"
                f"speedup:   {speedup:8.1f} x (acceptance floor: 10x)\n"
            ),
        )
        assert speedup >= 10.0, f"fast path only {speedup:.1f}x faster"
