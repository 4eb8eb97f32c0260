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
from typing import Iterable, Sequence

from .errors import DomainError, integer_entries
from .poly import LaurentPoly, format_terms


def render_latex(p: LaurentPoly) -> str:
    """LaTeX form in the same term order as the text renderer."""
    return format_terms(p, "{}^{{{}}}", "")


def render_json(p: LaurentPoly, params: Sequence[int]) -> str:
    obj = {
        "params": list(integer_entries(params)),
        "terms": [
            {"q": qe, "t": te, "coeff": str(coeff)}
            for (qe, te), coeff in p.sorted_terms()
        ],
    }
    return json.dumps(obj)


def _coefficient(value) -> int:
    """A term's coefficient: an integer, or the ASCII decimal string of one;
    1.5, "2.9", "\u0661\u0662" (Arabic-Indic 12) or a string of more digits
    than ``int`` reads (``sys.get_int_max_str_digits``) is refused."""
    if isinstance(value, str) and value.removeprefix("-").isdecimal() and value.isascii():
        try:
            return int(value)
        except ValueError as exc:
            raise DomainError(f"coefficient of {len(value)} characters: {exc}") from None
    return integer_entries((value,))[0]


def _is_object(value, *keys: str) -> bool:
    return isinstance(value, dict) and value.keys() == set(keys)


def parse_json(text: str) -> tuple[tuple[int, ...], LaurentPoly]:
    """The params and polynomial of interchange text.  What the renderer
    never writes is refused: text that is not JSON, another shape than the
    schema's, an exponent pair that appears twice or a zero coefficient."""
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise DomainError(f"not JSON text: {exc}") from None
    if not (_is_object(obj, "params", "terms") and isinstance(obj["params"], list) and isinstance(obj["terms"], list)):
        raise DomainError('expected an object {"params": [...], "terms": [...]}')
    params = integer_entries(obj["params"])
    terms = {}
    for t in obj["terms"]:
        if not _is_object(t, "q", "t", "coeff"):
            raise DomainError(f'expected a term {{"q": ..., "t": ..., "coeff": ...}}, got {t!r}')
        key = integer_entries((t["q"], t["t"]))
        if key in terms:
            raise DomainError(f"exponent pair {key} appears twice")
        terms[key] = _coefficient(t["coeff"])
        if not terms[key]:
            raise DomainError(f"exponent pair {key} has the coefficient 0")
    return params, LaurentPoly(terms)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The header and rows as CSV, one "\\n"-terminated line each."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def render_csv(p: LaurentPoly) -> str:
    return csv_text(["q", "t", "coeff"], ((qe, te, coeff) for (qe, te), coeff in p.sorted_terms()))


RENDERERS = {
    "text": lambda p, params: p.to_text(),
    "latex": lambda p, params: render_latex(p),
    "json": render_json,
    "csv": lambda p, params: render_csv(p),
}
