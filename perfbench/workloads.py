"""Workload definitions: the items each sweep computes, and how to check them.

An item is ``(route, vector, seeded)``.  ``route`` is ``"tesler"`` (hook sums
passed to ``f_tesler``) or ``"tableaux"`` (a vector passed to ``f_tableaux``).
Fixed items are checked against the committed digests in ``golden.json``;
seeded items are checked against a second route after timing.  The verify
workload has no items of its own: its unit of work is one check of
``run_verify``, and it is checked by counting mismatches.

This module does not import ``qtcatalan``, so item lists can be built (and
tested) without the package on the path.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

WORKLOADS = ("tesler_sweep", "tableau_sweep", "verify_sweep")

#: verify_sweep runs these (n, max) grids, in this order.
VERIFY_GRIDS = ((4, 5), (5, 2))
#: Pool size of the timed verify pass; the machine the baseline was taken
#: on has 2 CPUs.
VERIFY_JOBS = 2

#: First hook sums of the Tesler items; F does not depend on a_1.
TESLER_FIRST = (0, 3)


def criterion_triples(amax: int):
    """(a, b, c) with b <= a+1 and c <= min(a+1, b+1), a <= amax: the grid
    of acceptance criterion 3."""
    for a in range(amax + 1):
        for b in range(a + 2):
            for c in range(min(a + 1, b + 1) + 1):
                yield (a, b, c)


def weakly_decreasing(length: int, maxval: int) -> list[tuple[int, ...]]:
    return [
        v
        for v in itertools.product(range(maxval + 1), repeat=length)
        if all(v[i] >= v[i + 1] for i in range(length - 1))
    ]


def fixed_items(workload: str) -> list[tuple[str, tuple[int, ...]]]:
    """The (route, vector) items every seed runs, in canonical order."""
    if workload == "tesler_sweep":
        items = [("tesler", (x,) + t) for x in TESLER_FIRST for t in criterion_triples(5)]
        items += [("tesler", (0,) + v) for v in weakly_decreasing(4, 2)]
        return items
    if workload == "tableau_sweep":
        return [("tableaux", v) for v in weakly_decreasing(4, 3) + weakly_decreasing(5, 1)]
    if workload == "verify_sweep":
        return []
    raise ValueError(f"unknown workload {workload!r}")


#: Seeded tableau extras: (length, entry range) per kind.  Each seed draws one
#: non-monotone nonnegative vector and one signed vector ending in -1 of each
#: length, so every seed adds the same number of items of each cost class
#: (the cost of a tableau sum depends mostly on the length).
_EXTRA_RANGES = {4: (0, 3), 5: (0, 1)}


def seeded_extras(workload: str, rng: random.Random) -> list[tuple[str, tuple[int, ...]]]:
    if workload != "tableau_sweep":
        return []
    extras = []
    for length, (lo, hi) in _EXTRA_RANGES.items():
        while True:
            v = tuple(rng.randint(lo, hi) for _ in range(length))
            if any(v[i] < v[i + 1] for i in range(length - 1)):
                break
        extras.append(("tableaux", v))
        signed = tuple(rng.randint(-1, hi) for _ in range(length - 1)) + (-1,)
        extras.append(("tableaux", signed))
    return extras


def items(workload: str, seed: int) -> list[tuple[str, tuple[int, ...], bool]]:
    """Fixed items plus seeded extras, in an order fixed by the seed."""
    rng = random.Random(seed)
    out = [(route, vec, False) for route, vec in fixed_items(workload)]
    out += [(route, vec, True) for route, vec in seeded_extras(workload, rng)]
    rng.shuffle(out)
    return out


def setup_calls(workload: str) -> list[tuple[str, tuple[int, ...]]]:
    """One cheap call per vector length the workload uses; it fills the
    per-length caches (tableau plans, coefficient caches) a cold process
    pays for once.  ``("verify", (n, 0))`` is ``run_verify(n, 0)``."""
    if workload == "verify_sweep":
        return [("verify", (n, 0)) for n, _ in VERIFY_GRIDS]
    lengths = sorted({(route, len(vec)) for route, vec in fixed_items(workload)})
    return [(route, (0,) * length) for route, length in lengths]


def tableau_lengths(workload: str) -> tuple[int, ...]:
    """Lengths of the vectors the workload passes to ``f_tableaux``."""
    if workload == "verify_sweep":
        return tuple(n - 1 for n, _ in VERIFY_GRIDS)
    return tuple(sorted({len(vec) for route, vec in fixed_items(workload) if route == "tableaux"}))


def item_key(route: str, vec: tuple[int, ...]) -> str:
    return f"{route}:" + ",".join(map(str, vec))


def digest(poly) -> str:
    """Digest of a polynomial's canonical term list (independent of any
    text formatter)."""
    terms = sorted(poly.terms().items())
    return hashlib.sha256(repr(terms).encode()).hexdigest()


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def second_route(route: str, vec: tuple[int, ...]):
    """The value of an item by an independent route, for seeded items.

    A vector ending in -1 has F = 0 (the vanishing identity); otherwise the
    other of tableaux/Tesler is used.
    """
    import qtcatalan

    if route == "tableaux":
        if vec[-1] == -1:
            return qtcatalan.LaurentPoly.zero()
        return qtcatalan.f_tesler((0,) + vec)
    return qtcatalan.f_tableaux(vec[1:])
