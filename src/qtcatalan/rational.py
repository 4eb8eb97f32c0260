"""Rational expressions with binomial denominators, and exact reduction.

The tableau sums produce values of the form

    numerator / product of factors (1 - q^alpha t^beta),

which are rational a priori but reduce to Laurent polynomials once summed.
``FactoredRational`` keeps the denominator as an explicit multiset of
binomial factors so that common factors cancel exactly; it adds and
multiplies such values and reduces them (``to_poly``).

Polynomials on a box of exponents are packed into one integer by Kronecker
substitution (``PackedBox``), and one loop, ``_times_factors``, multiplies
a packed value by binomials, one shift and subtract each.  A sum of such
products is a ``ProductTree``: rows that share a factor add their partial
sums first and multiply by it once, each partial sum on its own span.  A
tableau plan builds its tree once; ``sum_of_products`` builds one per call.
``to_poly`` and ``divide_sum_of_products`` (which takes the packed sum as
it is) divide by the denominator's inverse modulo a power of 2, one factor
at a time (``exact_divide`` of a packed polynomial), on the window of the
box where the quotient lies, at the numerator's width, and prove the
quotient by multiplying it back through the same loop.  A numerator given
as terms too sparse for its box, or one whose quotient that width does not
prove, is divided by ``exact_divide`` term by term along lattice lines,
which also tells a numerator that does not divide.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError, NotPolynomialError
from .poly import ZERO, ExponentPair, LaurentPoly


@dataclass(frozen=True, order=True)
class BinomialFactor:
    """The factor (1 - q^alpha t^beta).  (0, 0) is forbidden: that factor
    is identically zero and must never be stored."""

    alpha: int
    beta: int

    def __post_init__(self):
        if self.alpha == 0 and self.beta == 0:
            raise DomainError("the factor (1 - q^0 t^0) is identically zero")

    def __iter__(self):
        return iter((self.alpha, self.beta))

    def to_poly(self) -> LaurentPoly:
        return LaurentPoly({(0, 0): 1, (self.alpha, self.beta): -1})


def _zero_digit(nbytes: int) -> bytes:
    # the digit 0 plus the bias 2^(w-1), little-endian
    return bytes(nbytes - 1) + b"\x80"


class PackedBox:
    """Kronecker substitution on a box of exponent pairs (Harvey 2009, J.
    Symbolic Comput.).

    The pair (a, b) of [q_lo, q_hi] x [t_lo, t_hi] maps to the slot
    (a - q_lo) * stride + (b - t_lo), where the stride is one more than the
    t-span, so distinct pairs land in distinct slots and a factor q^alpha
    t^beta moves a slot by alpha * stride + beta.  A polynomial on the box
    is then one integer, its value at X = 2^width: one balanced digit of
    width bits per slot (width a multiple of 8), exact while every
    coefficient is below 2^(width-1) in absolute value.  Every pack and
    unpack of the module goes through here.
    """

    __slots__ = ("q_lo", "q_hi", "t_lo", "t_hi", "stride", "slots")

    def __init__(self, q_lo: int, q_hi: int, t_lo: int, t_hi: int):
        self.q_lo, self.q_hi, self.t_lo, self.t_hi = q_lo, q_hi, t_lo, t_hi
        self.stride = t_hi - t_lo + 1
        self.slots = (q_hi - q_lo + 1) * self.stride

    @classmethod
    def around(cls, exponents: Iterable[ExponentPair]) -> "PackedBox":
        qs, ts = zip(*exponents)
        return cls(min(qs), max(qs), min(ts), max(ts))

    def slot(self, e: int, f: int) -> int:
        return (e - self.q_lo) * self.stride + f - self.t_lo

    def _bias(self, nbytes: int, pad: int = 0) -> int:
        # 2^(8 nbytes - 1) in every slot of (nbytes + pad) bytes
        return int.from_bytes((_zero_digit(nbytes) + bytes(pad)) * self.slots, "little")

    def _digits(self, value: int, nbytes: int) -> bytes:
        # the biased digits of value modulo 2^(slots * width), lowest slot first
        size = self.slots * nbytes
        biased = (value + self._bias(nbytes)) & ((1 << (8 * size)) - 1)
        return biased.to_bytes(size, "little")

    def encode(self, terms: dict[ExponentPair, int], width: int) -> int:
        nbytes = width // 8
        half = 1 << (width - 1)
        raw = bytearray(_zero_digit(nbytes) * self.slots)
        for (e, f), coeff in terms.items():
            i = self.slot(e, f) * nbytes
            raw[i : i + nbytes] = (coeff + half).to_bytes(nbytes, "little")
        return int.from_bytes(raw, "little") - self._bias(nbytes)

    def decode(self, value: int, width: int) -> dict[ExponentPair, int]:
        """The terms whose digits value holds, read modulo 2^(slots * width)."""
        nbytes = width // 8
        zero_digit = _zero_digit(nbytes)
        raw = self._digits(value, nbytes)
        half = 1 << (width - 1)
        stride, q_lo, t_lo = self.stride, self.q_lo, self.t_lo
        data: dict[ExponentPair, int] = {}
        for i in range(0, len(raw), nbytes):
            digit = raw[i : i + nbytes]
            if digit != zero_digit:
                qe, te = divmod(i // nbytes, stride)
                data[(qe + q_lo, te + t_lo)] = int.from_bytes(digit, "little") - half
        return data

    def widen(self, value: int, width: int, new_width: int) -> int:
        """The same digits, each in new_width bits."""
        nbytes, new_nbytes = width // 8, new_width // 8
        raw = self._digits(value, nbytes)
        out = bytearray(self.slots * new_nbytes)
        for j in range(nbytes):
            out[j::new_nbytes] = raw[j::nbytes]
        return int.from_bytes(out, "little") - self._bias(nbytes, new_nbytes - nbytes)


class Packed:
    """A polynomial packed on box at width bits per slot.  Its length is the
    number of slots: the size of every operation on it."""

    __slots__ = ("box", "width", "value")

    def __init__(self, box: PackedBox, width: int, value: int):
        self.box, self.width, self.value = box, width, value

    def __len__(self) -> int:
        return self.box.slots

    def unpack(self) -> LaurentPoly:
        return LaurentPoly._from_dict(self.box.decode(self.value, self.width))


def _round_width(bits: int) -> int:
    return -(-bits // 8) * 8


def _span(factors: Iterable[tuple[int, int]]) -> tuple[int, int, int, int]:
    """The box (q_lo, q_hi, t_lo, t_hi) of prod (1 - q^alpha t^beta): the
    sums of its factors' boxes."""
    q, t = [0, 0], [0, 0]
    for alpha, beta in factors:
        q[alpha > 0] += alpha
        t[beta > 0] += beta
    return q[0], q[1], t[0], t[1]


def _times_factors(x: int, factors: Iterable[tuple[int, int]], stride: int, width: int) -> tuple[int, int]:
    """x * prod (1 - q^alpha t^beta), packed at X = 2^width with stride, as
    (y, offset): the product is X^offset * y.

    The factor is 1 - X^k with k = alpha * stride + beta, one shift and
    subtract: x - (x << k*w) for k > 0, and for k < 0, (1 - X^k) =
    X^k (X^-k - 1) gives (x << -k*w) - x with the offset moved by k.
    """
    offset = 0
    for alpha, beta in factors:
        k = alpha * stride + beta
        if k > 0:
            x -= x << (k * width)
        else:
            x = (x << (-k * width)) - x
            offset += k
    return x, offset


def _smallest_first(factor: tuple[int, int]) -> tuple[int, int]:
    # factors with small exponents first, so that packed products grow slowly
    return abs(factor[0]), abs(factor[1])


def _presence(rows: list[tuple[int, Counter]]) -> Counter:
    # how many of the rows have each factor
    counts: Counter = Counter()
    for _, bag in rows:
        counts.update(bag.keys())
    return counts


class ProductTree:
    """A sum of products of binomials, sum over rows r of
    q^e_r t^f_r * prod (1 - q^alpha t^beta) over the row's factors, as a
    program that multiplies by a factor shared by several rows once.

    The rows are split on the factor that most of them contain: those rows
    add their partial sums first and multiply by it once, and both halves
    are split again; a row left alone keeps its own chain, smallest factor
    first.  Factors every row of a part contains are taken together.  The
    program is that tree in post-order: an int i pushes q^e_i t^f_i, a tuple
    of factors multiplies the top of the stack by them, and None adds the
    top two.  It depends on the factor multisets only, so a plan builds it
    once and evaluates it at every vector's exponents (``_pack_sum``).
    """

    __slots__ = ("factors", "spans", "program")

    def __init__(self, factor_lists: Iterable[Iterable[tuple[int, int]]]):
        self.factors = tuple(
            tuple((alpha, beta) for alpha, beta in factors) for factors in factor_lists
        )
        self.spans = tuple(_span(factors) for factors in self.factors)
        program: list = []
        rows = [(i, Counter(factors)) for i, factors in enumerate(self.factors)]
        # a stack of ops, pushed in the reverse of the order they are emitted
        # in, and of parts to split, lists [rows, counts]: (i, the factors
        # left of row i) per row, and how many of those rows have a factor
        todo: list = [[rows, _presence(rows)]] if rows else []
        while todo:
            item = todo.pop()
            if not isinstance(item, list):
                program.append(item)
                continue
            rows, counts = item
            common = Counter(
                {g: min(bag[g] for _, bag in rows) for g, c in counts.items() if c == len(rows)}
            )
            if common:
                for _, bag in rows:
                    for g, m in common.items():
                        if bag[g] == m:
                            del bag[g]
                        else:
                            bag[g] -= m
                for g in common:
                    left = sum(g in bag for _, bag in rows)
                    if left:
                        counts[g] = left
                    else:
                        del counts[g]
                todo.append(tuple(sorted(common.elements(), key=_smallest_first)))
            if len(rows) == 1:
                todo.append(rows[0][0])
                continue
            if counts:  # else the rows' factors were all common
                ((shared, _),) = counts.most_common(1)
                sharing = [row for row in rows if shared in row[1]]
                rest = [row for row in rows if shared not in row[1]]
            else:
                sharing, rest = rows[:1], rows[1:]
            # count the smaller half; the larger one has the difference
            if len(sharing) <= len(rest):
                sharing_counts = _presence(sharing)
                rest_counts = counts - sharing_counts
            else:
                rest_counts = _presence(rest)
                sharing_counts = counts - rest_counts
            todo += (None, [rest, rest_counts], [sharing, sharing_counts])
        self.program = tuple(program)


def _evaluate(tree: ProductTree, exponents: list[ExponentPair], box: PackedBox, width: int) -> int:
    """The tree's sum packed on box at width.  Each partial sum is a pair
    (lo, y) worth X^lo * y, so it costs only its own span, and two are
    aligned by one shift.  lo is never negative: it is the slot of the
    lowest term of one row's partial product, which lies in that row's box."""
    stride = box.stride
    stack: list[tuple[int, int]] = []
    for op in tree.program:
        if op is None:
            lo, y = stack.pop()
            lo2, y2 = stack.pop()
            if lo > lo2:
                lo, y, lo2, y2 = lo2, y2, lo, y
            stack.append((lo, y + (y2 << ((lo2 - lo) * width))))
        elif isinstance(op, int):
            stack.append((box.slot(*exponents[op]), 1))
        else:
            lo, y = stack[-1]
            y, offset = _times_factors(y, op, stride, width)
            stack[-1] = lo + offset, y
    ((lo, y),) = stack
    return y << (lo * width)


def _pack_sum(exponents: Iterable[ExponentPair], tree: ProductTree) -> "Packed | LaurentPoly":
    """The sum of the tree at the rows' exponents, packed on one box; or,
    when the rows lie too far apart for one box, unpacked."""
    exponents = list(exponents)
    if not exponents:
        return LaurentPoly.zero()
    q_box: list[int] = []
    t_box: list[int] = []
    own_slots = 0
    for (e, f), (q_lo, q_hi, t_lo, t_hi) in zip(exponents, tree.spans):
        q_box += (e + q_lo, e + q_hi)
        t_box += (f + t_lo, f + t_hi)
        own_slots += (q_hi - q_lo + 1) * (t_hi - t_lo + 1)
    box = PackedBox(min(q_box), max(q_box), min(t_box), max(t_box))
    if box.slots > own_slots:
        return sum((sum_of_products([row]) for row in zip(exponents, tree.factors)), ZERO)
    max_m = max(len(factors) for factors in tree.factors)
    width = _round_width(max_m + len(exponents).bit_length() + 1)
    return Packed(box, width, _evaluate(tree, exponents, box, width))


def sum_of_products(rows: Iterable[tuple[ExponentPair, Iterable[tuple[int, int]]]]) -> LaurentPoly:
    """The sum over rows ((e, f), factors) of q^e t^f * prod (1 - q^alpha t^beta),
    expanded by Kronecker substitution into one big integer.

    The box spans the rows' own boxes (``_span``), and the rows are summed
    through their ``ProductTree``, each binomial one shift and subtract
    (``_times_factors``).  Substitution is a ring map, so the order in which
    the tree adds and multiplies does not change the integer.

    Exactness: every coefficient of a product of m binomials is at most 2^m
    in absolute value (the sum of the absolute values of its coefficients is
    at most 2^m), so a slot of the sum over all rows holds at most
    len(rows) * 2^max_m < 2^(w-1) when w >= max_m + bit_length(len(rows)) + 1.
    Every slot then is one balanced w-bit digit, and one pass over the bytes
    of the biased sum decodes them all.

    Rows far apart would leave most slots of the common box empty; when it
    has more slots than the rows' own boxes together, each row is packed on
    its own box and the results are added.
    """
    rows = list(rows)
    total = _pack_sum([ef for ef, _ in rows], ProductTree(factors for _, factors in rows))
    return total if isinstance(total, LaurentPoly) else total.unpack()


def product_of_factors(factors: Iterable[BinomialFactor]) -> LaurentPoly:
    return sum_of_products((((0, 0), factors),))


def exact_divide(p: "LaurentPoly | Packed", factor: BinomialFactor) -> "LaurentPoly | Packed":
    """Divide p exactly by (1 - q^alpha t^beta).

    With 1 - X^v = -X^v (1 - X^-v), the division is taken along the
    direction u = v or -v with a positive first nonzero entry.  Terms of p
    are grouped along lattice lines e, e+u, e+2u, ...; on each line the
    quotient coefficients are the running partial sums, and the division is
    exact iff every line sums to zero.  The quotient is unique, so any
    correct method agrees.

    A packed p is divided modulo 2^L, L = slots * width, where the factor
    is 1 - X^k with k = alpha * stride + beta.  For k > 0 that is odd at
    X = 2^width, and its inverse is the geometric series 1 + X^k + X^2k +
    ..., summed by doubling; for k < 0, 1 / (1 - X^k) = -X^-k / (1 - X^-k).
    The digits of the result are the quotient only if it lies in p's box
    and fits the width, which the caller must prove (``_packed_quotient``).
    """
    alpha, beta = v = tuple(factor)
    if alpha == 0 and beta == 0:
        raise DomainError("cannot divide by the zero factor (1 - q^0 t^0)")
    if isinstance(p, Packed):
        box, width, y = p.box, p.width, p.value
        k = alpha * box.stride + beta
        if k == 0:
            raise DomainError(f"(1 - q^{alpha} t^{beta}) is 0 on a box of stride {box.stride}")
        bits = box.slots * width
        mask = (1 << bits) - 1
        if k < 0:
            k = -k
            y = -(y << (k * width))
        s = k * width
        while s < bits:
            y = (y + (y << s)) & mask
            s <<= 1
        return Packed(box, width, y & mask)
    if p.is_zero():
        return LaurentPoly.zero()
    sign, first = 1, 0
    if alpha < 0 or (alpha == 0 and beta < 0):
        # divide by (1 - X^-v), then multiply by -X^-v
        alpha, beta, sign, first = -alpha, -beta, -1, 1
    step = alpha or beta

    # A line is keyed by alpha*b - beta*a and by the residue of its
    # position (a, or b when alpha = 0) modulo step; positions increase
    # along u.
    lines: dict[int, list[tuple[int, int, int, int]]] = {}
    for (a, b), coeff in p.terms().items():
        pos = a if alpha else b
        key = (alpha * b - beta * a) * step + pos % step
        line = lines.get(key)
        if line is None:
            lines[key] = [(pos, a, b, coeff)]
        else:
            line.append((pos, a, b, coeff))

    out: dict[ExponentPair, int] = {}
    for entries in lines.values():
        entries.sort()
        running = 0
        for (pos, a, b, coeff), following in zip(entries, entries[1:]):
            running += coeff
            if running:
                value = sign * running
                for k in range(first, first + (following[0] - pos) // step):
                    out[(a + k * alpha, b + k * beta)] = value
        if running + entries[-1][3]:
            raise NotPolynomialError(f"(1 - q^{v[0]} t^{v[1]}) does not divide {p.to_text()}")
    return LaurentPoly._from_dict(out)


#: The packed division allocates the numerator's whole box, so a numerator
#: given as terms is packed only while that box has at most this many slots
#: per term.  The tableau sums of the benchmark and of the verify grids have
#: at most 4.5 slots per term.  On the numerators of F(a, 0), F(a, b, c) and
#: F(a, a, 0, 0) the packed division was faster than the chain up to 20-30
#: slots per term, and slower from 60 on.  F(a, 0) has 36 terms in
#: (a + 9)^2 slots, so from a = 16 on it is divided factor by factor, at a
#: cost that follows its terms rather than its span.  A numerator the kernel
#: packed is divided as it is: its box is already allocated.
SLOTS_PER_TERM = 16


def divide_sum_of_products(
    exponents: Iterable[ExponentPair],
    tree: ProductTree,
    denominator: Iterable[tuple[int, int]],
) -> LaurentPoly:
    """The sum of tree at the rows' exponents (see ``sum_of_products``)
    over prod (1 - q^alpha t^beta) over the denominator, taken on the packed
    sum without unpacking it; NotPolynomialError if that is not a Laurent
    polynomial."""
    # sorted as FactoredRational sorts it: the order the chain divides in
    return _exact_quotient(_pack_sum(exponents, tree), tuple(sorted(denominator)))


def _exact_quotient(numerator: "Packed | LaurentPoly", factors: tuple) -> LaurentPoly:
    """numerator / prod (1 - q^alpha t^beta) over factors; NotPolynomialError
    if that is not a Laurent polynomial."""
    packed = None
    if isinstance(numerator, Packed):
        if not numerator.value:
            return ZERO
        packed = numerator
    elif not (numerator and factors):
        return numerator
    else:
        terms = numerator._terms
        box = PackedBox.around(terms)
        if box.slots <= SLOTS_PER_TERM * len(terms):
            width = _round_width(max(abs(c) for c in terms.values()).bit_length() + 1)
            packed = Packed(box, width, box.encode(terms, width))
    if packed is not None:
        quotient = _packed_quotient(packed, factors)
        if quotient is not None:
            return quotient
    p = numerator.unpack() if isinstance(numerator, Packed) else numerator
    for f in factors:
        p = exact_divide(p, f)
    return p


def _packed_quotient(numerator: Packed, factors: tuple) -> LaurentPoly | None:
    """The quotient Q = N / D for the packed N, or None if the packed
    division does not prove it at N's width.

    With (1 - X^k) = -X^k (1 - X^-k) for k < 0, N = D Q reads
    X^shift N = sign * d Q with d = prod (1 - X^|k|) and shift the sum of
    |k| over k < 0.  Since Newt(N) = Newt(D) + Newt(Q), Q lies in the q-rows
    [q_lo - d_q_lo, q_hi - d_q_hi] of N's box, where D spans the q-degrees
    [d_q_lo, d_q_hi] (0 is in Newt(D)): the window ``sub``, with all t and
    the same stride, whose first slot is lo in N's box.  So X^shift N is
    X^lo times sign * d Q_w, Q_w = Q / X^lo on sub; when D divides N, its
    lowest lo slots are empty and are dropped exactly.  d is odd at
    X = 2^w, so Q_w = sign * X^(shift - lo) N / d modulo 2^L, L = sub.slots
    * w: the window is divided there by one factor after another
    (``exact_divide`` of a packed polynomial).  Its digits are Q's if every
    coefficient of Q fits in w bits; Q is returned only once D Q is shown
    to equal N on N's box.  Otherwise the caller divides term by term,
    which also tells an N that D does not divide.
    """
    box, width, value = numerator.box, numerator.width, numerator.value
    d_q_lo, d_q_hi, d_t_lo, d_t_hi = _span(factors)  # the box of D
    if d_q_hi - d_q_lo > box.q_hi - box.q_lo or d_t_hi - d_t_lo > box.t_hi - box.t_lo:
        return None  # D Q would have a wider box than N; this keeps every k nonzero
    sub = PackedBox(box.q_lo - d_q_lo, box.q_hi - d_q_hi, box.t_lo, box.t_hi)
    lo = -d_q_lo * box.stride
    shift, sign, positive = 0, 1, []
    for alpha, beta in factors:
        k = alpha * box.stride + beta
        if k < 0:
            shift, sign, alpha, beta = shift - k, -sign, -alpha, -beta
        positive.append((alpha, beta))
    y = (sign * (value << (shift * width))) >> (lo * width)
    quotient = Packed(sub, width, y & ((1 << (sub.slots * width)) - 1))
    for f in positive:
        quotient = exact_divide(quotient, f)
    y = quotient.value
    terms = sub.decode(y, width)
    # Proof that Q D = N.  Q D has the box box(Q) + box(D), since the
    # extreme terms of a product do not cancel.  When that box is inside
    # N's, the stride keeps every term of Q D - N in a slot of its own.  A
    # coefficient of Q D is at most max|Q| * ||D||_1 <= max|Q| * 2^m in
    # absolute value, and one of N is below 2^(w-1), so at a width W above
    # both bounds every digit of Q D - N is below 2^W.  Then
    # (Q D - N)(2^W) = 0 only if Q D = N: else its lowest nonzero digit
    # would be a multiple of 2^W, but smaller.
    q_box = terms and PackedBox.around(terms)
    if not (
        q_box
        and box.q_lo <= q_box.q_lo + d_q_lo
        and q_box.q_hi + d_q_hi <= box.q_hi
        and box.t_lo <= q_box.t_lo + d_t_lo
        and q_box.t_hi + d_t_hi <= box.t_hi
    ):
        return None
    q_bits = max(abs(c) for c in terms.values()).bit_length()
    check = max(_round_width(max(q_bits + len(factors), width - 1) + 1), width)
    # D Q_w = X^offset x, and N = X^lo D Q_w
    x, offset = _times_factors(sub.widen(y, width, check), factors, box.stride, check)
    align = (lo + offset) * check
    if x << max(align, 0) != box.widen(value, width, check) << max(-align, 0):
        return None
    return LaurentPoly._from_dict(terms)


class FactoredRational:
    """numerator / product of (1 - q^alpha t^beta) factors; not reduced.

    The denominator is a multiset, canonically stored as a sorted tuple.
    Sums and products take FactoredRational operands only.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: LaurentPoly, denominator: Iterable[BinomialFactor] = ()):
        factors = []
        for f in denominator:
            if not isinstance(f, BinomialFactor):
                f = BinomialFactor(*f)
            factors.append(f)
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", tuple(sorted(factors)))

    def __setattr__(self, name, value):
        raise AttributeError("FactoredRational is immutable")

    def __mul__(self, other: "FactoredRational") -> "FactoredRational":
        if not isinstance(other, FactoredRational):
            return NotImplemented
        return FactoredRational(
            self.numerator * other.numerator, self.denominator + other.denominator
        )

    def __add__(self, other: "FactoredRational") -> "FactoredRational":
        if not isinstance(other, FactoredRational):
            return NotImplemented
        mine = Counter(self.denominator)
        thine = Counter(other.denominator)
        union = mine | thine
        num = self.numerator * product_of_factors((union - mine).elements()) + (
            other.numerator * product_of_factors((union - thine).elements())
        )
        return FactoredRational(num, union.elements())

    __radd__ = __add__

    def to_poly(self) -> LaurentPoly:
        """Reduce to a LaurentPoly; NotPolynomialError if any factor fails
        to divide the numerator exactly."""
        return _exact_quotient(self.numerator, self.denominator)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FactoredRational):
            return NotImplemented
        return self.numerator == other.numerator and self.denominator == other.denominator

    def __hash__(self) -> int:
        return hash((self.numerator, self.denominator))

    def __repr__(self) -> str:
        den = " * ".join(f"(1 - q^{a} t^{b})" for a, b in self.denominator) or "1"
        return f"FactoredRational(({self.numerator.to_text()}) / {den})"
