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
(unlike built-in ``hash``).  :meth:`SeedSequenceTree.rngs` derives a
family of paths in one batch, bit for bit what
:meth:`~SeedSequenceTree.rng` returns per path.  NumPy's documented
``SeedSequence`` mixing (frozen with the stream by NEP 19) takes its
hash constants from a fixed sequence, indexed by how many words came
before — never by the data — so the master seed's words, first on
every path, are mixed once per seed; the four key words of all ``m``
paths go through ``(4, 4)`` constant tables as ``(m, 4)`` ``uint32``
arrays; ``generate_state`` is one ``(m, 8)`` pass; and each row seeds
``PCG64`` (four ``uint64`` words) or ``SFC64`` (three) through NumPy's
seed-sequence interface, ``ISeedSequence``.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

__all__ = ["SeedSequenceTree"]

#: Number of 32-bit words taken from the path digest when deriving keys.
_KEY_WORDS = 4
#: NumPy's SeedSequence hash constants (pool of 4 words; 0-d arrays keep
#: each ufunc call of a small batch cheap); ``uint64`` state words made
#: per stream (PCG64 reads 4, SFC64 3) and their constants.
_INIT_A, _MULT_A, _INIT_B, _MULT_B, _MIX_L, _MIX_R, _SHIFT = (
    np.array(c, np.uint32)
    for c in (0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED, 0xCA01F9DD, 0x4973F715, 16)
)
_STATE_WORDS = 4
_GEN = _INIT_B * _MULT_B ** np.arange(2 * _STATE_WORDS + 1, dtype=np.uint32)


@lru_cache(maxsize=64)
def _spawn_mix(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pool a master seed's words leave, times ``_MIX_L`` (the first step
    of mixing in a key word), and the key words' hash tables."""
    words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))  # as NumPy pads them under a spawn key
    # w words take 4w hash calls; key word j meets pool word d at call
    # k = 4w + 4j + d, which xors constant k and multiplies by constant k + 1.
    consts = _INIT_A * _MULT_A ** np.arange(4 * len(words), 4 * len(words) + 17, dtype=np.uint32)
    tables = (c.reshape(_KEY_WORDS, 1, 4) for c in (consts[:-1], consts[1:]))
    return np.random.SeedSequence(words).pool * _MIX_L, *tables


def _part(item) -> str:
    """Canonical text of one path component."""
    if isinstance(item, str):
        return f"s:{item}"
    if isinstance(item, bool):  # bool is an int subclass; be explicit
        return f"b:{int(item)}"
    if isinstance(item, (int, np.integer)):
        return f"i:{int(item)}"
    raise TypeError(f"RNG path components must be int or str, got {type(item).__name__}")


def _path_to_key(path: tuple) -> tuple[int, ...]:
    """Map an arbitrary path of ints/strings to spawn-key integers.

    The mapping must be stable across processes and platforms, so we
    serialize the path canonically and digest it with BLAKE2b.
    """
    raw = "/".join(map(_part, path)).encode("utf-8")
    digest = hashlib.blake2b(raw, digest_size=4 * _KEY_WORDS).digest()
    return tuple(np.frombuffer(digest, "<u4").tolist())


class _StateWords(np.random.bit_generator.ISeedSequence):
    """One stream's ``generate_state(n, uint64)``, computed in a batch."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if np.dtype(dtype) != np.uint64 or n_words > _STATE_WORDS:
            raise ValueError(f"only up to {_STATE_WORDS} uint64 words are precomputed")
        return self.words[:n_words]


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

    def rngs(
        self, prefix: tuple, ids, suffix: tuple = (), bit_generator=np.random.PCG64
    ) -> list[np.random.Generator]:
        """``[Generator(bit_generator(self.seed_sequence(*prefix, i, *suffix)))
        for i in ids]``, bit for bit, derived in one batch (module notes)."""
        ids = np.asarray(ids)
        if ids.size and ids.dtype.kind not in "iu":
            raise TypeError(f"ids must be integers, got dtype {ids.dtype}")
        texts = [_part(c).replace("%", "%%") for c in (*prefix, *suffix)]
        fmt = "/".join(texts[: len(prefix)] + ["i:%d"] + texts[len(prefix) :]).encode("utf-8")
        keys = b"".join([hashlib.blake2b(fmt % i, digest_size=16).digest() for i in ids.tolist()])
        keys = np.frombuffer(keys, "<u4").reshape(-1, _KEY_WORDS).T
        pool_l, xor, mul = _spawn_mix(self._master_seed)
        hashed = (keys[:, :, None] ^ xor) * mul  # hashmix: [key word, path, pool word]
        hashed ^= hashed >> _SHIFT
        hashed *= _MIX_R
        pool = pool_l - hashed[0]  # mix(pool, ·), one key word after another
        for j in range(1, _KEY_WORDS):
            pool ^= pool >> _SHIFT
            pool *= _MIX_L
            pool -= hashed[j]
        pool ^= pool >> _SHIFT
        state = np.concatenate((pool, pool), axis=1)  # generate_state: word k reads pool[k % 4]
        state ^= _GEN[:-1]
        state *= _GEN[1:]
        state ^= state >> _SHIFT
        words = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
        return [np.random.Generator(bit_generator(_StateWords(w))) for w in words]

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
