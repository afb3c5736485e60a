"""Check or regenerate the pin corpus.

Run from the repository root::

    PYTHONPATH=src python -m tests.pins --check
    PYTHONPATH=src python -m tests.pins --regen record/reference- dump/

``--check`` recomputes every row of ``cases.py`` and exits 1 if any
digest differs from ``pins.json``.  ``--regen NAME...`` recomputes the
rows whose name starts with one of the NAMEs and writes only those to
``pins.json``.  Both print ``name: old → new`` for every row that moved.
"""

from __future__ import annotations

import argparse

from .cases import CASES, load_pins, save_pins


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.pins")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="recompute every row; exit 1 if any moved")
    mode.add_argument("--regen", nargs="+", metavar="NAME",
                      help="rewrite the rows named by these prefixes")
    args = parser.parse_args(argv)
    pins = load_pins()
    names = sorted(CASES)
    if args.regen:
        unknown = [p for p in args.regen if not any(n.startswith(p) for n in names)]
        if unknown:
            parser.error(f"no row starts with {', '.join(unknown)}")
        names = [n for n in names if n.startswith(tuple(args.regen))]
    moved = {}
    for name in names:
        new = CASES[name].digest()
        if pins.get(name) != new:
            print(f"{name}: {pins.get(name)} → {new}")
            moved[name] = new
    if args.regen:
        save_pins({**pins, **moved})
        return 0
    for name in sorted(set(pins) - set(CASES)):
        print(f"{name}: {pins[name]} → (no row)")
    return 1 if moved or set(pins) - set(CASES) else 0


if __name__ == "__main__":
    raise SystemExit(main())
