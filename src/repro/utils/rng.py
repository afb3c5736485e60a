"""Deterministic hierarchical random-number streams.

Reproducibility contract
------------------------

Every experiment in this library consumes exactly **one** integer
master seed.  All randomness — particle initialization, NEWSCAST peer
selection, gossip partner choice, churn arrival times, per-repetition
variation — is drawn from streams *derived* from that seed through a
:class:`SeedSequenceTree`.

Derivation is keyed by **path**, not by call order:

>>> tree = SeedSequenceTree(42)
>>> rng_a = tree.rng("rep", 0, "node", 17, "pso")
>>> rng_b = tree.rng("rep", 0, "node", 17, "gossip")

``rng_a`` and ``rng_b`` are statistically independent, and asking for
the same path twice returns an identically-seeded (fresh) generator.
This means two simulations that touch nodes in different orders (e.g.
because a shuffled iteration differs) still give each node the *same*
private stream, which is what makes churn and topology ablations
comparable run-to-run.

Implementation notes
--------------------

NumPy's :class:`numpy.random.SeedSequence` already implements robust
entropy splitting (``spawn_key``); we layer a stable string/int → key
mapping on top so paths are self-describing.  Hash truncation uses
BLAKE2b which is deterministic across platforms and Python versions
(unlike built-in ``hash``).
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["SeedSequenceTree", "derive_rng", "spawn_rngs"]

#: Number of 32-bit words taken from the path digest when deriving keys.
_KEY_WORDS = 4


def _path_to_key(path: tuple) -> tuple[int, ...]:
    """Map an arbitrary path of ints/strings to spawn-key integers.

    The mapping must be stable across processes and platforms, so we
    serialize the path canonically and digest it with BLAKE2b.
    """
    parts = []
    for item in path:
        if isinstance(item, bool):  # bool is an int subclass; be explicit
            parts.append(f"b:{int(item)}")
        elif isinstance(item, (int, np.integer)):
            parts.append(f"i:{int(item)}")
        elif isinstance(item, str):
            parts.append(f"s:{item}")
        else:
            raise TypeError(
                f"RNG path components must be int or str, got {type(item).__name__}"
            )
    digest = hashlib.blake2b("/".join(parts).encode("utf-8"), digest_size=4 * _KEY_WORDS)
    raw = digest.digest()
    return tuple(
        int.from_bytes(raw[4 * i : 4 * (i + 1)], "little") for i in range(_KEY_WORDS)
    )


class SeedSequenceTree:
    """Derive independent, reproducible RNG streams keyed by path.

    Parameters
    ----------
    master_seed:
        The experiment's single source of entropy.  Any non-negative
        integer.

    Examples
    --------
    >>> tree = SeedSequenceTree(7)
    >>> r1 = tree.rng("node", 3)
    >>> r2 = tree.rng("node", 3)
    >>> float(r1.random()) == float(r2.random())   # same path, same stream
    True
    """

    def __init__(self, master_seed: int):
        if not isinstance(master_seed, (int, np.integer)):
            raise TypeError("master_seed must be an integer")
        if master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        self._master_seed = int(master_seed)

    @property
    def master_seed(self) -> int:
        """The master seed this tree was constructed with."""
        return self._master_seed

    def seed_sequence(self, *path: int | str) -> np.random.SeedSequence:
        """Return the :class:`~numpy.random.SeedSequence` for ``path``."""
        key = _path_to_key(tuple(path))
        return np.random.SeedSequence(entropy=self._master_seed, spawn_key=key)

    def rng(self, *path: int | str) -> np.random.Generator:
        """Return a fresh :class:`~numpy.random.Generator` for ``path``.

        Calling twice with the same path returns independent generator
        *objects* positioned at the start of the identical stream.
        """
        return np.random.default_rng(self.seed_sequence(*path))

    def subtree(self, *path: int | str) -> "SeedSequenceTree":
        """Return a tree rooted at ``path``.

        Useful to hand a component its own namespace without exposing
        the experiment-level paths: streams from
        ``tree.subtree("rep", 3).rng("node", 0)`` differ from
        ``tree.rng("node", 0)``.
        """
        # Fold the path into a new master seed deterministically.
        key = _path_to_key(tuple(path))
        folded = hashlib.blake2b(
            (str(self._master_seed) + ":" + ":".join(map(str, key))).encode(),
            digest_size=8,
        ).digest()
        return SeedSequenceTree(int.from_bytes(folded, "little"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SeedSequenceTree(master_seed={self._master_seed})"


def derive_rng(master_seed: int, *path: int | str) -> np.random.Generator:
    """One-shot convenience wrapper around :class:`SeedSequenceTree`.

    >>> derive_rng(1, "a").random() == derive_rng(1, "a").random()
    True
    """
    return SeedSequenceTree(master_seed).rng(*path)


def spawn_rngs(
    master_seed: int, count: int, *prefix: int | str
) -> list[np.random.Generator]:
    """Spawn ``count`` independent generators under a common prefix.

    Equivalent to ``[tree.rng(*prefix, i) for i in range(count)]`` and
    used wherever a vector of per-entity streams is needed (one per
    node, one per repetition, ...).
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    tree = SeedSequenceTree(master_seed)
    return [tree.rng(*prefix, i) for i in range(count)]


def rngs_from_tree(
    tree: SeedSequenceTree, count: int, *prefix: int | str
) -> list[np.random.Generator]:
    """Like :func:`spawn_rngs` but reusing an existing tree."""
    return [tree.rng(*prefix, i) for i in range(count)]
