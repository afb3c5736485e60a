"""Package metadata and installation entry point.

Plain ``setup.py`` (no ``pyproject.toml``) so ``pip install -e .``
works on offline boxes without fetching PEP 517 build dependencies.

Extras:

* ``repro[analysis]`` — networkx, for the overlay graph metrics of
  :mod:`repro.topology.analysis` (no engine or CLI path needs it).
* ``repro[dev]`` — the test/lint toolchain CI runs.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# One source for the version: read it out of the package, without
# importing it (numpy may not be installed yet at build time).
_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"$', _INIT.read_text(encoding="utf-8"), re.M
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Gossip-based distributed particle swarm optimization "
        "(reproduction of Biazzini, Brunato & Montresor, IPDPS 2008)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy>=1.26"],
    extras_require={
        "analysis": ["networkx"],
        "dev": [
            "pytest",
            "pytest-benchmark",
            "pytest-cov",
            "hypothesis",
            "ruff",
        ],
    },
)
