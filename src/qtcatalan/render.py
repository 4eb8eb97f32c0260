"""Rendering polynomials as text, LaTeX, JSON, and CSV.

The JSON interchange schema is fixed:

    {"params": [...], "terms": [{"q": int, "t": int, "coeff": "int"}]}

with terms sorted by q-degree descending then t-degree ascending, and
coefficients encoded as strings so arbitrary-precision integers survive
any consumer.  Rendering is deterministic, so render -> parse -> render
is byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Sequence

from .poly import LaurentPoly, format_terms


def render_latex(p: LaurentPoly) -> str:
    """LaTeX form in the same term order as the text renderer."""
    return format_terms(p, "{}^{{{}}}", "")


def render_json(p: LaurentPoly, params: Sequence[int]) -> str:
    obj = {
        "params": [int(x) for x in params],
        "terms": [
            {"q": qe, "t": te, "coeff": str(coeff)}
            for (qe, te), coeff in p.sorted_terms()
        ],
    }
    return json.dumps(obj)


def parse_json(text: str) -> tuple[tuple[int, ...], LaurentPoly]:
    obj = json.loads(text)
    params = tuple(int(x) for x in obj["params"])
    terms = {(int(t["q"]), int(t["t"])): int(t["coeff"]) for t in obj["terms"]}
    return params, LaurentPoly(terms)


def render_csv(p: LaurentPoly) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["q", "t", "coeff"])
    for (qe, te), coeff in p.sorted_terms():
        writer.writerow([qe, te, coeff])
    return buf.getvalue()


RENDERERS = {
    "text": lambda p, params: p.to_text(),
    "latex": lambda p, params: render_latex(p),
    "json": render_json,
    "csv": lambda p, params: render_csv(p),
}
