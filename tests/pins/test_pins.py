"""Every row of the pin corpus reproduces its committed digest."""

from __future__ import annotations

import pytest

from repro.experiments import EXPERIMENTS

from .cases import CASES, ENGINES, load_pins

DIGESTS = load_pins()


@pytest.mark.parametrize("name", sorted(CASES))
def test_row_matches_its_pin(name):
    assert CASES[name].digest() == DIGESTS.get(name), (
        f"{name} moved; if on purpose, run `python -m tests.pins --regen "
        f"{name}` and give the reason in CHANGES.md"
    )


def test_table_and_pins_name_the_same_rows():
    assert sorted(CASES) == sorted(DIGESTS)


def test_every_experiment_has_its_dump_rows():
    dumps = {name for name in CASES if name.startswith("dump/")}
    assert dumps == {f"dump/{exp}/{engine}" for exp in EXPERIMENTS for engine in ENGINES}
