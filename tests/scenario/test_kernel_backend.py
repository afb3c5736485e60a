"""``Scenario.kernel_backend``: one legal value, ``"numpy"``."""

from __future__ import annotations

import pytest

from repro.scenario import Scenario, ScenarioValidationError, Session


def make(**overrides) -> Scenario:
    base = dict(
        function="sphere", nodes=8, particles_per_node=4,
        total_evaluations=640, gossip_cycle=4, repetitions=2, seed=7,
        engine="fast",
    )
    base.update(overrides)
    return Scenario(**base)


def test_default_is_numpy():
    assert make().kernel_backend == "numpy"


@pytest.mark.parametrize("name", ["numba", "tpu"])
def test_other_backends_rejected(name):
    with pytest.raises(ScenarioValidationError, match="kernel_backend"):
        make(kernel_backend=name)


@pytest.mark.parametrize("engine", ["reference", "fast", "event"])
def test_numba_fails_with_one_message_on_every_engine(engine):
    """Construction rejects ``"numba"`` the same way whatever the
    engine: no fallback, no engine-specific rule."""
    horizon = 5.0 if engine == "event" else None
    with pytest.raises(ScenarioValidationError,
                       match="kernel_backend: must be 'numpy', got 'numba'"):
        make(kernel_backend="numba", engine=engine, horizon=horizon)


def test_round_trip_preserves_backend():
    s = make(kernel_backend="numpy")
    assert s.to_dict()["kernel_backend"] == "numpy"
    assert Scenario.from_dict(s.to_dict()) == s


def test_old_json_without_field_loads():
    """Scenario dicts serialized before the field existed carry no
    kernel_backend key and keep loading with the default."""
    d = make().to_dict()
    del d["kernel_backend"]
    assert Scenario.from_dict(d).kernel_backend == "numpy"


def test_numpy_backend_explicit_equals_default():
    base = Session(make()).run()
    explicit = Session(make(kernel_backend="numpy")).run()
    assert [r.to_dict() for r in explicit.records] == [
        r.to_dict() for r in base.records
    ]
