"""Report-rendering tests for every experiment module.

Tiny hand-built sweeps (not the module SCALES) keep these fast while
exercising the full table + ASCII-figure rendering path of each
report function.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    exp1_swarm_size,
    exp2_network_size,
    exp3_cycle_length,
    exp4_time_to_quality,
)
from repro.experiments.common import SweepData
from repro.scenario import Scenario, Session


def tiny_sweep(name, points) -> SweepData:
    data = SweepData(name=name, scale="tiny")
    for point in points:
        data.entries.append(Session(point).run())
    data.elapsed_seconds = 0.1
    return data


@pytest.fixture(scope="module")
def quality_sweep() -> SweepData:
    points = [
        Scenario(
            function=f, nodes=n, particles_per_node=k,
            total_evaluations=200 * n, gossip_cycle=k,
            repetitions=2, seed=5,
        )
        for f in ("sphere", "griewank")
        for n in (1, 4)
        for k in (4, 8)
    ]
    return tiny_sweep("exp1", points)


@pytest.fixture(scope="module")
def threshold_sweep() -> SweepData:
    points = [
        Scenario(
            function=f, nodes=n, particles_per_node=4,
            total_evaluations=2**13, gossip_cycle=4,
            repetitions=2, seed=5, quality_threshold=1e-6,
        )
        for f in ("sphere", "griewank")
        for n in (1, 4)
    ]
    return tiny_sweep("exp4", points)


class TestQualityReports:
    def test_exp1_report_structure(self, quality_sweep):
        text = exp1_swarm_size.report(quality_sweep)
        assert "Table 1" in text
        assert "Figure 1 (sphere)" in text
        assert "Figure 1 (griewank)" in text
        assert "size=1" in text and "size=4" in text

    def test_exp2_report_structure(self, quality_sweep):
        text = exp2_network_size.report(quality_sweep)
        assert "Table 2" in text
        assert "Min" in text
        assert "particles=4" in text

    def test_exp3_report_structure(self, quality_sweep):
        text = exp3_cycle_length.report(quality_sweep)
        assert "Table 3" in text
        assert "Figure 3 (sphere)" in text


class TestTimeReport:
    def test_exp4_report_has_dash_for_griewank(self, threshold_sweep):
        text = exp4_time_to_quality.report(threshold_sweep)
        assert "Table 4" in text
        lines = [l for l in text.splitlines() if l.startswith("griewank")]
        assert lines and "–" in lines[0]

    def test_exp4_report_has_numbers_for_sphere(self, threshold_sweep):
        text = exp4_time_to_quality.report(threshold_sweep)
        lines = [l for l in text.splitlines() if l.startswith("sphere")]
        assert lines and "–" not in lines[0]

    def test_exp4_figure_omits_unconverged(self, threshold_sweep):
        text = exp4_time_to_quality.report(threshold_sweep)
        # Griewank's panel exists but shows "no data" markers.
        assert "Figure 4 (griewank)" in text
        griewank_section = text.split("Figure 4 (griewank)")[1]
        assert "(no data)" in griewank_section or "no finite data" in griewank_section
