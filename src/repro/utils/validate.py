"""One vocabulary of field rules for every configuration value.

Each frozen value a user, a sweep file or a spool file fills declares
one rule per field in a class-level ``RULES`` table and calls
:func:`check` from ``__post_init__``; its ``from_dict`` is
:func:`load`.  Type is checked before range, and a rule returns the
value to store, so NumPy scalars are kept as the Python values JSON
takes.  Checks that read two fields stay hand-written beside the
table (:func:`require`).

The rules:

* ``count(min=1)`` — an ``int`` or NumPy integer ``>= min``; ``bool``,
  floats and strings are rejected.  Stored as ``int``.
* ``real(min=, above=, max=, below=)`` — a finite ``int``, ``float``
  or NumPy real within the bounds; ``bool``, strings, NaN and inf are
  rejected.  NumPy reals are stored as ``float``.
* ``flag`` — ``True``, ``False`` or a ``numpy.bool_``, stored as ``bool``.
* ``choice(*names)`` — one of the names, stored as ``str``.
* ``text`` — a non-empty string, stored as ``str``.
* ``mapping`` — a mapping, stored as a ``dict``.
* ``sequence(item=None, nonempty=False, distinct=False)`` — a list or
  tuple whose items pass ``item``, stored as a ``tuple``.
* ``optional(rule)`` — ``None``, or what ``rule`` takes.
* ``bundle(cls)`` — an instance of the value class ``cls``; :func:`load`
  builds it from a dict.

Ranges that several shapes carry are written once, as the named rules
:data:`PERIOD`, :data:`LATENCY`, :data:`FRACTION`, :data:`JITTER`,
:data:`RATE` and :data:`SEVERITY`.  Every failure is one
:class:`ScenarioValidationError`: ``.field`` is the dotted path and the
message reads ``<Owner>.<path>: <reason>``.

>>> from repro.utils.config import NewscastConfig
>>> NewscastConfig(view_size=4.5)
Traceback (most recent call last):
...
repro.utils.validate.ScenarioValidationError: NewscastConfig.view_size: must be an integer, got 4.5
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, fields
from typing import Any, Mapping

import numpy as np

from repro.utils.exceptions import ConfigurationError

__all__ = [
    "ScenarioValidationError", "Rule", "count", "real", "flag", "choice",
    "text", "mapping", "sequence", "optional", "bundle", "check", "require",
    "load", "PERIOD", "LATENCY", "FRACTION", "JITTER", "RATE", "SEVERITY",
]


class ScenarioValidationError(ConfigurationError):
    """A configuration field failed its rule or a cross-field check.

    ``owner`` is the class being built, ``field`` the dotted path from
    it (``"transport.loss_rate"``) and ``reason`` the text after the
    colon of ``<owner>.<field>: <reason>``.
    """

    def __init__(self, field: str, reason: str, owner: str = "Scenario"):
        self.field, self.reason, self.owner = field, reason, owner
        super().__init__(f"{owner}.{field}: {reason}")

    def __reduce__(self):
        return type(self), (self.field, self.reason, self.owner)


class _Invalid(Exception):
    """A rule's verdict: ``args`` is what the field requires, and what it got."""

    def named(self, field: str, owner: str) -> ScenarioValidationError:
        requirement, got = self.args
        return ScenarioValidationError(field, f"{requirement}, got {got!r}", owner)


class Rule:
    """One field's test: ``rule(value)`` returns the value to store."""

    def apply(self, value: Any, field: str, owner: str) -> Any:
        """``self(value)``, failing as ``<owner>.<field>``."""
        try:
            return self(value)
        except _Invalid as bad:
            raise bad.named(field, owner) from None


class count(Rule):
    def __init__(self, min: int = 1):
        self.min = min

    def __call__(self, value):
        if type(value) is not int:
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise _Invalid("must be an integer", value)
            value = int(value)
        if value < self.min:
            raise _Invalid(f"must be >= {self.min}", value)
        return value


class real(Rule):
    def __init__(self, min=None, above=None, max=None, below=None):
        self.min, self.above, self.max, self.below = min, above, max, below
        self.range = " and ".join(
            f"{op} {bound:g}" for op, bound in
            ((">=", min), (">", above), ("<=", max), ("<", below)) if bound is not None)

    def __call__(self, value):
        if type(value) is not float and type(value) is not int:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise _Invalid("must be a finite number", value)
            value = float(value)
        if type(value) is float and not math.isfinite(value):
            raise _Invalid("must be a finite number", value)
        if not ((self.min is None or value >= self.min)
                and (self.above is None or value > self.above)
                and (self.max is None or value <= self.max)
                and (self.below is None or value < self.below)):
            raise _Invalid(f"must be {self.range}", value)
        return value


class _Kind(Rule):
    """A type test, and what the values that pass it are stored as."""

    def __init__(self, passes, requirement: str, store: type):
        self.passes, self.requirement, self.store = passes, requirement, store

    def __call__(self, value):
        if not self.passes(value):
            raise _Invalid(self.requirement, value)
        return self.store(value)


class choice(Rule):
    def __init__(self, *names: str):
        self.names = names
        self.requirement = (f"must be {names[0]!r}" if len(names) == 1
                            else f"must be one of {names}")

    def __call__(self, value):
        if not isinstance(value, str) or value not in self.names:
            raise _Invalid(self.requirement, value)
        return str(value)


class sequence(Rule):
    def __init__(self, item: Rule | None = None, nonempty=False, distinct=False):
        self.item, self.nonempty, self.distinct = item, nonempty, distinct

    def __call__(self, value):
        if not isinstance(value, (list, tuple)):
            raise _Invalid("must be a list or tuple", value)
        items = tuple(value if self.item is None else map(self.item, value))
        if self.nonempty and not items:
            raise _Invalid("must not be empty", value)
        if self.distinct and len(set(items)) != len(items):
            raise _Invalid("must hold distinct items", value)
        return items


class optional(Rule):
    def __init__(self, rule: Rule):
        self.rule = rule

    def __call__(self, value):
        if value is None:
            return None
        try:
            return self.rule(value)
        except _Invalid as bad:
            raise _Invalid(f"{bad.args[0]} or None", value) from None


class bundle(Rule):
    def __init__(self, cls: type):
        self.cls = cls

    def __call__(self, value):
        if not isinstance(value, self.cls):
            raise _Invalid(f"must be a {self.cls.__name__}", value)
        return value


flag = _Kind(lambda v: isinstance(v, (bool, np.bool_)), "must be True or False", bool)
text = _Kind(lambda v: isinstance(v, str) and v != "", "must be a non-empty string", str)
mapping = _Kind(lambda v: isinstance(v, Mapping), "must be a mapping", dict)

#: Timer periods and the dynamics period, in clock units.
PERIOD = real(above=0)
#: Per-message latency bounds, in simulated seconds.
LATENCY = real(min=0)
#: Message loss, the per-cycle crash fraction, the Byzantine fraction.
FRACTION = real(min=0, below=1)
#: Timer jitter, as a fraction of the period.
JITTER = real(min=0, max=1)
#: Crashes or joins per cycle (a fraction of the initial size) or per second.
RATE = real(min=0)
#: Landscape change per epoch, as a fraction of the domain width.
SEVERITY = real(above=0)


def check(obj: Any, rules: Mapping[str, Rule]) -> None:
    """Apply ``rules`` to ``obj``'s fields in order, storing what each returns."""
    for name, rule in rules.items():
        value = getattr(obj, name)
        try:
            stored = rule(value)
        except _Invalid as bad:
            raise bad.named(name, type(obj).__name__) from None
        if stored is not value:
            object.__setattr__(obj, name, stored)


def require(condition: bool, field: str, reason: str, owner: str = "Scenario") -> None:
    """A hand-written cross-field check, failing like a rule."""
    if not condition:
        raise ScenarioValidationError(field, reason, owner)


def load(cls: type, data: Mapping[str, Any]) -> Any:
    """Build ``cls`` from a dict: unknown and missing keys fail by name,
    and a dict at a ``bundle`` field is loaded too, its errors named by
    the dotted path from ``cls``."""
    owner, rules = cls.__name__, cls.RULES
    kwargs = {}
    for key, value in data.items():
        rule = rules.get(key)
        if rule is None:
            raise ScenarioValidationError(str(key), "unknown field", owner)
        if isinstance(rule, bundle) and isinstance(value, Mapping):
            try:
                value = load(rule.cls, value)
            except ScenarioValidationError as err:
                raise ScenarioValidationError(
                    f"{key}.{err.field}", err.reason, owner) from None
        kwargs[key] = value
    if len(kwargs) < len(rules):
        for f in fields(cls):
            require(f.name in kwargs or f.default is not MISSING
                    or f.default_factory is not MISSING, f.name, "missing field", owner)
    return cls(**kwargs)
