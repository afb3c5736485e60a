"""Run the library's docstring examples as tests.

Every ``>>>`` example in the public API must actually work — stale
examples are worse than none.
"""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import pytest

import repro


def _all_modules():
    out = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        out.append(info.name)
    return sorted(out)


@pytest.mark.parametrize("module_name", _all_modules())
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(
        module,
        optionflags=doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS,
    )
    assert results.failed == 0, f"{module_name}: {results.failed} doctest failures"


def test_package_quickstart_example():
    """The package-docstring quickstart itself, executed for real."""
    results = doctest.testmod(repro, optionflags=doctest.NORMALIZE_WHITESPACE)
    assert results.attempted >= 4  # import, scenario, run, assertion
    assert results.failed == 0
