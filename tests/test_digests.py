"""Outputs pinned by digest: one SHA-256 prefix per vector and function.

``fixtures/digests.json`` holds, for each function below, the digest of its
output on every vector of its grid.  The file was written once by running
this module as a script from the repository root:

    PYTHONPATH=src python tests/test_digests.py

The script writes a digest only where a second route gives the same value,
and fails otherwise:

- F by tableaux, against F by Tesler sums on nonnegative vectors, against
  the closed forms f1 and f2 where they apply, against 0 for a vector
  ending in -1, and against F rebuilt from H otherwise;
- H by tableaux, rebuilt into F (``combine_h_to_f``), against F by Tesler
  sums on nonnegative vectors and against F by tableaux otherwise, and
  against h2 and h3 at lengths 1 and 2;
- F by Tesler sums, against F by tableaux;
- the rows of ``enumerate_tesler``, whose weights sum to F by tableaux;
- ``decompose``, ``f_chains`` and ``f_stat``, against F by tableaux and by
  the recursion, with the chain-partition check passing.

The fixture is not regenerated to make the test pass: a change that alters
an output says so and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
from itertools import product
from pathlib import Path

import pytest

from oracles import enumerate_tesler
from qtcatalan import (
    ABCParams,
    LaurentPoly,
    combine_h_to_f,
    decompose,
    f1,
    f2,
    f3_recursive,
    f_chains,
    f_stat,
    f_tableaux,
    f_tesler,
    h2,
    h3,
    h_tableaux,
    valid_triples,
)
from qtcatalan.verification import check_chain_partition

FIXTURE = Path(__file__).parent / "fixtures" / "digests.json"


def _tableau_grid():
    return [v for n in range(1, 5) for v in product(range(-1, 4), repeat=n)]


def _poly(value: LaurentPoly) -> str:
    return repr(sorted(value.terms().items()))


#: function name -> (its vectors, vector -> canonical text of its output)
FUNCTIONS = {
    "f_tableaux": (_tableau_grid, lambda v: _poly(f_tableaux(v))),
    "h_tableaux": (_tableau_grid, lambda v: _poly(h_tableaux(v))),
    "f_tesler": (
        lambda: [(x,) + t for n in range(1, 5) for t in product(range(4), repeat=n) for x in (0, 3)],
        lambda v: _poly(f_tesler(v)),
    ),
    "enumerate_tesler": (
        lambda: [v for n in range(2, 5) for v in product(range(3), repeat=n)],
        lambda v: repr([m.rows for m in enumerate_tesler(v)]),
    ),
    "decompose": (lambda: list(valid_triples(8)), lambda v: repr(decompose(ABCParams(*v)))),
    "f_chains": (lambda: list(valid_triples(8)), lambda v: _poly(f_chains(ABCParams(*v)))),
    "f_stat": (lambda: list(valid_triples(8)), lambda v: _poly(f_stat(ABCParams(*v)))),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _key(v) -> str:
    return ",".join(map(str, v))


def _expected():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_outputs_match_their_digests(name):
    vectors, output = FUNCTIONS[name]
    pinned = _expected()[name]
    keys = [_key(v) for v in vectors()]
    assert sorted(keys) == sorted(pinned)
    wrong = [k for v, k in zip(vectors(), keys) if _digest(output(v)) != pinned[k]]
    assert not wrong, f"{name} changed on {wrong[:10]}"


# -- writing the fixture -------------------------------------------------------

def _f_second_route(v) -> LaurentPoly:
    if min(v) >= 0:
        return f_tesler((0,) + v)
    if len(v) == 1:
        return f1(v[0])
    if len(v) == 2 and v[1] >= -1 and v[0] >= v[1] - 1:
        return f2(*v)
    if v[-1] == -1:
        return LaurentPoly.zero()
    return combine_h_to_f(h_tableaux(v))


def _h_agrees(v) -> bool:
    h = h_tableaux(v)
    f = f_tesler((0,) + v) if min(v) >= 0 else f_tableaux(v)
    closed = h2(*v) if len(v) == 1 else h3(*v) if len(v) == 2 else h
    return h == closed and combine_h_to_f(h) == f


def _triple_agrees(v) -> bool:
    p = ABCParams(*v)
    f = f_tableaux(v)
    ok = check_chain_partition(v)[0].ok
    return ok and f_chains(p) == f_stat(p) == f3_recursive(p) == f


def _rows_agree(v) -> bool:
    total = LaurentPoly.zero()
    for m in enumerate_tesler(v):
        total = total + m.weight()
    return total == f_tableaux(v[1:])


AGREES = {
    "f_tableaux": lambda v: f_tableaux(v) == _f_second_route(v),
    "h_tableaux": _h_agrees,
    "f_tesler": lambda v: f_tesler(v) == f_tableaux(v[1:]),
    "enumerate_tesler": _rows_agree,
    "decompose": _triple_agrees,
    "f_chains": _triple_agrees,
    "f_stat": _triple_agrees,
}


def main() -> int:
    fixture, disagree = {}, []
    for name, (vectors, output) in FUNCTIONS.items():
        fixture[name] = {}
        for v in vectors():
            if not AGREES[name](v):
                disagree.append((name, v))
            fixture[name][_key(v)] = _digest(output(v))
    if disagree:
        print(f"routes disagree on {disagree[:10]}; {FIXTURE.name} not written", file=sys.stderr)
        return 1
    with open(FIXTURE, "w") as fh:
        json.dump(fixture, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {sum(map(len, fixture.values()))} digests to {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
