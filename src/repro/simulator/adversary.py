"""Hostile-overlay seam: Byzantine nodes in the gossip coordination layer.

The coordination service adopts a remote optimum *without
re-evaluating it* — the value travels with the position.  That trust
is exactly what a Byzantine peer can exploit, and this module models
the three classic attacks plus the obvious defense:

* ``"false-best"`` — a Byzantine sender claims an absurdly good value
  at a random position.  Honest receivers adopt the lie, stop
  improving (their real discoveries look worse than the fake
  incumbent), and the network's *believed* optimum diverges from any
  *true* objective value.
* ``"corrupt"`` — the claimed value is honest but the attached
  position is perturbed, so the belief points at the wrong place.
* ``"drop"`` — Byzantine nodes silently discard every coordination
  message they should send, thinning the gossip overlay.

The **plausibility filter** (``defense=True``) has honest receivers
re-evaluate every offered position before adoption and fold on the
*verified* value — false bests die on arrival (at the price of one
objective evaluation per received offer, tallied but never charged to
the optimization budget).

One :class:`Adversary` instance serves every engine: scalar hooks for
the per-node reference/deployment protocol stacks and vectorized hooks
for the SoA fast/event engines.  The Byzantine subset is drawn once
from the repetition's ``("adversary",)`` seed branch, so all engines
agree on who lies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validate import FRACTION, check, choice, flag, real

__all__ = ["AdversarySpec", "ADVERSARY_BEHAVIORS", "Adversary"]

#: Attack behaviors the scenario layer accepts.
ADVERSARY_BEHAVIORS = ("false-best", "corrupt", "drop")

#: Verified-vs-claimed slack before an offer counts as filtered: honest
#: offers under a *dynamic* landscape may be slightly stale, which is
#: degradation, not an attack.
_FILTER_TOLERANCE = 1e-9


@dataclass(frozen=True)
class AdversarySpec:
    """Declarative knobs of a hostile overlay (a Scenario bundle).

    Attributes
    ----------
    fraction:
        Fraction of the *initial* population that is Byzantine
        (joiners are honest).  ``0.0`` disables the adversary.
    behavior:
        One of :data:`ADVERSARY_BEHAVIORS`.
    magnitude:
        ``"false-best"``: the claimed value is ``-magnitude`` — far
        below any true objective value of the (non-negative) suite.
    noise:
        ``"corrupt"``: per-coordinate position perturbation scale as a
        fraction of the domain width.
    defense:
        Enable the plausibility filter at honest receivers.
    """

    fraction: float = 0.0
    behavior: str = "false-best"
    magnitude: float = 1e9
    noise: float = 0.25
    defense: bool = False

    RULES = {"fraction": FRACTION, "behavior": choice(*ADVERSARY_BEHAVIORS),
             "magnitude": real(above=0), "noise": real(above=0), "defense": flag}

    def __post_init__(self) -> None:
        check(self, self.RULES)

    @property
    def enabled(self) -> bool:
        return self.fraction > 0.0


class Adversary:
    """Runtime state of one repetition's Byzantine subset.

    Parameters
    ----------
    spec:
        The declarative knobs.
    node_count:
        Initial population size; ``round(fraction * node_count)``
        nodes are drawn Byzantine without replacement.
    rng:
        The repetition's ``("adversary",)`` stream.  The subset draw
        happens first, so every engine sharing the stream selects the
        same liars; subsequent noise draws may diverge (the attacks
        are stochastic — cross-engine equivalence is statistical).

    Tallies (``false_offers``, ``corrupted``, ``dropped``,
    ``filtered``, ``verifications``) count attack and defense events
    and surface in ``RunRecord.adversary``.
    """

    def __init__(
        self, spec: AdversarySpec, node_count: int, rng: np.random.Generator
    ):
        self.spec = spec
        self._rng = rng
        count = int(round(spec.fraction * node_count))
        count = min(count, max(0, node_count - 1))  # never all-Byzantine
        self._byz = np.zeros(node_count, dtype=bool)
        if count > 0:
            chosen = rng.choice(node_count, size=count, replace=False)
            self._byz[chosen] = True
        self.byzantine_count = count
        self.false_offers = 0
        self.corrupted = 0
        self.dropped = 0
        self.filtered = 0
        self.verifications = 0

    # -- membership -------------------------------------------------------

    def is_byzantine(self, node_id: int) -> bool:
        """Scalar membership test (joiners beyond the initial ids are honest)."""
        nid = int(node_id)
        return 0 <= nid < self._byz.size and bool(self._byz[nid])

    def mask(self, ids: np.ndarray) -> np.ndarray:
        """Vectorized membership over an id array."""
        ids = np.asarray(ids)
        out = np.zeros(ids.shape, dtype=bool)
        in_range = (ids >= 0) & (ids < self._byz.size)
        out[in_range] = self._byz[ids[in_range]]
        return out

    # -- scalar hooks (reference / deployment protocol stacks) ------------

    def outgoing(
        self,
        node_id: int,
        position: np.ndarray | None,
        value: float | None,
        lower: np.ndarray,
        upper: np.ndarray,
    ) -> tuple[np.ndarray, float] | None:
        """Transform one outgoing coordination payload.

        Honest senders pass through unchanged.  Byzantine senders lie
        per the configured behavior; ``None`` means the message is
        silently dropped.  ``position``/``value`` may be ``None`` (a
        node with no incumbent yet) — Byzantine ``"false-best"``
        senders fabricate regardless.
        """
        if not self.is_byzantine(node_id):
            if position is None:
                return None
            return position, float(value)
        behavior = self.spec.behavior
        if behavior == "drop":
            self.dropped += 1
            return None
        if behavior == "false-best":
            self.false_offers += 1
            fake = self._rng.uniform(lower, upper)
            return fake, -self.spec.magnitude
        # "corrupt": honest value, perturbed position
        if position is None:
            return None
        self.corrupted += 1
        width = upper - lower
        noisy = position + self._rng.normal(
            0.0, self.spec.noise * width, size=position.shape
        )
        return np.clip(noisy, lower, upper), float(value)

    def screen(
        self, position: np.ndarray, value: float, evaluate
    ) -> float:
        """Plausibility filter: return the verified value of an offer.

        ``evaluate(position) -> float`` re-evaluates under the
        receiver's current objective (never charged to the budget).
        A claim better than its verification is tallied as filtered.
        """
        verified = float(evaluate(position))
        self.verifications += 1
        if value < verified - _FILTER_TOLERANCE:
            self.filtered += 1
        return verified

    # -- vectorized hooks (SoA fast / event engines) ----------------------

    def tamper(
        self,
        sender_ids: np.ndarray,
        val: np.ndarray,
        pos: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply the attack to a batch of outgoing offers.

        ``val``/``pos`` are the senders' honest snapshots (``(m,)`` /
        ``(m, d)``, aligned with ``sender_ids``).  Returns
        ``(send_val, send_pos, sendable)`` — copies with Byzantine rows
        transformed, plus the mask of rows that are sent at all
        (``"drop"`` removes Byzantine rows).  Inputs are not mutated.
        """
        byz = self.mask(sender_ids)
        sendable = np.ones(sender_ids.shape, dtype=bool)
        if not byz.any():
            return val, pos, sendable
        behavior = self.spec.behavior
        if behavior == "drop":
            self.dropped += int(byz.sum())
            sendable = ~byz
            return val, pos, sendable
        send_val = val.copy()
        send_pos = pos.copy()
        rows = np.nonzero(byz)[0]
        if behavior == "false-best":
            self.false_offers += rows.size
            send_val[rows] = -self.spec.magnitude
            send_pos[rows] = self._rng.uniform(
                lower, upper, size=(rows.size, pos.shape[1])
            )
        else:  # "corrupt"
            self.corrupted += rows.size
            width = upper - lower
            send_pos[rows] = np.clip(
                send_pos[rows]
                + self._rng.normal(
                    0.0, self.spec.noise * width, size=(rows.size, pos.shape[1])
                ),
                lower,
                upper,
            )
        return send_val, send_pos, sendable

    def screen_batch(
        self, claimed: np.ndarray, verified: np.ndarray
    ) -> None:
        """Tally a batch plausibility-filter pass (values already verified)."""
        self.verifications += int(claimed.size)
        self.filtered += int(
            np.sum(claimed < verified - _FILTER_TOLERANCE)
        )

    # -- reporting --------------------------------------------------------

    def tally_dict(self) -> dict:
        """JSON-safe tally summary for ``RunRecord.adversary``."""
        return {
            "byzantine_nodes": int(self.byzantine_count),
            "behavior": self.spec.behavior,
            "defense": bool(self.spec.defense),
            "false_offers": int(self.false_offers),
            "corrupted": int(self.corrupted),
            "dropped": int(self.dropped),
            "filtered": int(self.filtered),
            "verifications": int(self.verifications),
        }
