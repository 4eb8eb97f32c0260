"""Rational expressions with binomial denominators, and exact reduction.

The tableau sums produce values of the form

    numerator / product of factors (1 - q^alpha t^beta),

which are rational a priori but reduce to Laurent polynomials once summed.
``FactoredRational`` keeps the denominator as an explicit multiset of
binomial factors so that common factors cancel exactly; it adds and
multiplies such values and reduces them (``to_poly``).

Polynomials on a box of exponents are packed into one integer by Kronecker
substitution (``PackedBox``, which maps exponents to slots).  The digit
operations read nothing of the box but its slots and stride: ``relayout``
moves each row of digits to the start of a longer row and widens them in
one pass, and ``narrowest`` finds their largest absolute value by tests on
all of them at once (``_within``) and re-packs them at the narrowest width
that holds it.  One loop, ``_times_factors``, multiplies a packed value by
binomials, one shift and subtract each.  A sum of such products, each row a
signed monomial +-q^e t^f times binomials, is a ``ProductTree`` of nested
nodes, summed by one recursion over them (``_evaluate``): rows that share a
factor add their partial sums first and multiply by it once, each partial
sum on its own span, and a row's sign is its leaf's value.  A tableau plan
builds its tree once; ``sum_of_products`` builds one per call, with every
sign +1.  ``_pack_sum`` packs a sum on one box, at the tree's kernel width,
unless that box has more than ``SLOTS_PER_TERM`` slots per term its rows
can make; else it sums each row on its own box, as terms.
The kernel width holds a bound on the sum's coefficients: one the caller
proves, as a tableau plan does, or else the bound every sum of products of
binomials obeys (``sum_of_products``).
``divide_sum_of_products`` divides a packed sum by the inverse modulo a
power of 2 of a denominator whose factors point forward (``forward``), one
factor at a time (``exact_divide`` of a packed polynomial), on the box's
first slots, where the quotient lies, at the numerator's width, and proves
the quotient by multiplying it back through the same loop.  A numerator
given as terms (such a sum, or a ``FactoredRational``'s), or one whose
quotient that width does not prove, is divided by ``exact_divide`` term by
term along lattice lines, which also tells a numerator that does not divide.
"""

from __future__ import annotations

import struct
import sys
from collections import Counter, defaultdict
from functools import lru_cache
from operator import add
from typing import Iterable, Sequence

from .errors import DomainError, NotPolynomialError, integer_entries
from .poly import ZERO, ExponentPair, LaurentPoly
from .record import Record


class BinomialFactor(Record):
    """The factor (1 - q^alpha t^beta).  (0, 0) is forbidden: that factor
    is identically zero and must never be stored."""

    __slots__ = ("alpha", "beta")

    def _check(self):
        if integer_entries((self.alpha, self.beta)) == (0, 0):
            raise DomainError("the factor (1 - q^0 t^0) is identically zero")

    def __iter__(self):
        return iter((self.alpha, self.beta))

    def to_poly(self) -> LaurentPoly:
        return LaurentPoly({(0, 0): 1, (self.alpha, self.beta): -1})


def forward(alpha: int, beta: int) -> bool:
    """Whether (1 - q^alpha t^beta) points forward: its first nonzero
    exponent is positive.  Of it and its associate, exactly one does."""
    return (alpha, beta) > (0, 0)


def _zero_digit(nbytes: int) -> bytes:
    # the digit 0 plus the bias 2^(w-1), little-endian
    return bytes(nbytes - 1) + b"\x80"


#: memoryview formats of the native unsigned integers of 1, 2, 4 and 8 bytes,
#: which read little-endian digits only on a little-endian machine
_UNSIGNED = {struct.calcsize(f): f for f in "BHIQ"} if sys.byteorder == "little" else {}
#: a byte with its top bit flipped
_FLIP_TOP_BIT = bytes(b ^ 0x80 for b in range(256))


def _restride(raw: bytes, nbytes: int, new_nbytes: int) -> bytearray:
    # the low new_nbytes bytes of each nbytes-byte digit, zero-padded if wider
    out = bytearray(len(raw) // nbytes * new_nbytes)
    for j in range(min(nbytes, new_nbytes)):
        out[j::new_nbytes] = raw[j::nbytes]
    return out


def _digit_values(raw: bytes, nbytes: int) -> Sequence[int]:
    """The unsigned little-endian digits of nbytes bytes each in raw, lowest
    first: a memoryview cast to the narrowest native integer that holds
    them, or slices past 64 bits."""
    size = min((s for s in _UNSIGNED if s >= nbytes), default=None)
    if size is None:
        return [int.from_bytes(raw[i : i + nbytes], "little") for i in range(0, len(raw), nbytes)]
    if size != nbytes:
        raw = _restride(raw, nbytes, size)
    return memoryview(raw).cast(_UNSIGNED[size])


def _bias_of(slots: int, nbytes: int, pad: int) -> int:
    # 2^(8 nbytes - 1) in each of slots digits of (nbytes + pad) bytes, cut
    # from a cached bias of a power of two of slots: few keys per octave
    bias = _bias_block(1 << (slots - 1).bit_length(), nbytes, pad)
    return bias & ((1 << (8 * (nbytes + pad) * slots)) - 1) if slots & (slots - 1) else bias


@lru_cache(maxsize=64)
def _bias_block(slots: int, nbytes: int, pad: int) -> int:
    return int.from_bytes((_zero_digit(nbytes) + bytes(pad)) * slots, "little")


def fit_width(bound: int) -> int:
    """The smallest multiple of 8 bits w with 2^(w-1) > bound >= 0: a
    balanced digit of w bits holds every integer of absolute value at most
    bound.  Every packed value of the package is sized by this rule."""
    return 8 * (bound.bit_length() // 8 + 1)


def _digits(value: int, slots: int, nbytes: int) -> bytes:
    # the biased digits of value modulo 2^(slots * width), lowest slot first
    size = slots * nbytes
    biased = (value + _bias_of(slots, nbytes, 0)) & ((1 << (8 * size)) - 1)
    return biased.to_bytes(size, "little")


def relayout(value: int, slots: int, stride: int, width: int, new_stride: int, new_width: int) -> int:
    """The slots digits of value in rows of stride, each row moved to the
    start of a row of new_stride >= stride digits and each digit widened to
    new_width >= width bits, in one pass over their bytes."""
    if new_stride < stride or new_width < width:
        raise DomainError(f"cannot re-lay rows of {stride} digits of {width} bits as rows of {new_stride} digits of {new_width} bits")
    nbytes, new_nbytes = width // 8, new_width // 8
    pad = new_nbytes - nbytes
    raw = _digits(value, slots, nbytes)
    if pad:
        raw = _restride(raw, nbytes, new_nbytes)
    if new_stride != stride:
        rows, row, new_row = slots // stride, stride * new_nbytes, new_stride * new_nbytes
        slots = rows * new_stride
        out = bytearray((_zero_digit(nbytes) + bytes(pad)) * slots)
        for r in range(rows):
            out[r * new_row : r * new_row + row] = raw[r * row : (r + 1) * row]
        raw = out
    return int.from_bytes(raw, "little") - _bias_of(slots, nbytes, pad)


def _masks(slots: int, width: int) -> tuple[int, int]:
    # (TOP, ONES) at width: the bias, and 1 in every slot
    top = _bias_of(slots, width // 8, 0)
    return top, top >> (width - 1)


def _within(value: int, masks: tuple[int, int], bound: int) -> bool:
    """Whether every digit of value is at most bound in absolute value, for
    the masks (TOP, ONES) of a width w with bound < 2^(w - 2).

    The digits are tested on the integer itself, all at once (broadword,
    Knuth, TAOCP 4A 7.1.3).  With ONES = sum_i X^i and TOP = ONES << (w - 1)
    (the bias), and T = bound < 2^(w-2), every digit c has |c| <= T exactly
    when (v + K ONES) & TOP and (K ONES - v) & TOP are 0, where
    K = 2^(w-1) - 1 - T > T.  Proof for the first test (the second is the
    first for -v): if every c lies in [-K, T], the digits c + K of
    v + K ONES lie in [0, 2^(w-1)), so none carries and no top bit is set.
    Else at the lowest slot with c outside [-K, T], nothing carries in, and
    c + K lies in [2^(w-1), 2^w) or, borrowed, c + K + 2^w in [2^w - T, 2^w):
    its top bit is set.
    """
    top, ones = masks
    k_ones = top - (bound + 1) * ones
    return not ((value + k_ones) & top or (k_ones - value) & top)


def _bisect(value: int, masks: tuple[int, int], lo: int, hi: int) -> int:
    # the largest |digit| of value, known to lie in [lo, hi], for the masks
    # of a width w with hi < 2^(w - 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if _within(value, masks, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def narrowest(value: int, slots: int, width: int) -> tuple[int, int, int]:
    """(value', w, m): m is the largest |digit| of the slots digits of value
    at width, and value' holds the same digits at w = min(width,
    fit_width(m)) bits.  Every digit must be below 2^(width - 1) in
    absolute value.

    The digits are tested all at once (``_within``): at the bounds
    2^(w - 1) - 1 for w = 8, 16, 24, ... below width, which gives w, then
    at bounds bisecting m, on value' at w; in the top quarter of w's
    digits, past what a test at w reaches, on value' widened to w + 8."""
    masks = _masks(slots, width)
    new_width, lo = 8, 0
    while new_width < width and not _within(value, masks, (1 << (new_width - 1)) - 1):
        lo = 1 << (new_width - 1)
        new_width += 8
    if new_width < width:
        # each digit's low bytes hold d + 2^(w-1) modulo 2^(new w), that
        # is d; flipping their top bit adds the new bias 2^(new w - 1)
        nbytes, new_nbytes = width // 8, new_width // 8
        out = _restride(_digits(value, slots, nbytes), nbytes, new_nbytes)
        top = slice(new_nbytes - 1, None, new_nbytes)
        out[top] = out[top].translate(_FLIP_TOP_BIT)
        value = int.from_bytes(out, "little") - _bias_of(slots, new_nbytes, 0)
        masks = _masks(slots, new_width)
    quarter = 1 << (new_width - 2)
    if _within(value, masks, quarter - 1):
        norm = _bisect(value, masks, lo, quarter - 1)
    else:
        wide = relayout(value, slots, slots, new_width, slots, new_width + 8)
        norm = _bisect(wide, _masks(slots, new_width + 8), quarter, 2 * quarter - 1)
    return value, new_width, norm


class PackedBox:
    """Kronecker substitution on a box of exponent pairs (Harvey 2009, J.
    Symbolic Comput.).

    The pair (a, b) of [q_lo, q_hi] x [t_lo, t_hi] maps to the slot
    (a - q_lo) * stride + (b - t_lo), where the stride is one more than the
    t-span, so distinct pairs land in distinct slots and a factor q^alpha
    t^beta moves a slot by alpha * stride + beta.  A polynomial on the box
    is then one integer, its value at X = 2^width: one balanced digit of
    width bits per slot (width a multiple of 8), exact while every
    coefficient is below 2^(width-1) in absolute value.  The box maps
    exponents to slots and back; the digit operations that need only the
    number of slots and the stride (``relayout``, ``narrowest``) are module
    functions, and every read of the digits as bytes goes through
    ``_digits``.
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

    def decode(self, value: int, width: int, degree: int | None = None) -> dict[ExponentPair, int]:
        """The terms whose digits value holds, read modulo 2^(slots * width).
        Given a degree, only the slots (i, j) from the box's corner with
        i + j <= degree are read: value must hold no other."""
        nbytes = width // 8
        half = 1 << (width - 1)
        stride, q_lo, t_lo = self.stride, self.q_lo, self.t_lo
        digits = _digit_values(_digits(value, self.slots, nbytes), nbytes)
        degree = self.slots if degree is None else degree
        data: dict[ExponentPair, int] = {}
        for i in range(min(self.slots // stride, degree + 1)):
            for j, digit in enumerate(digits[i * stride : i * stride + min(stride, degree + 1 - i)]):
                if digit != half:
                    data[(i + q_lo, j + t_lo)] = digit - half
        return data


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


def _split(rows: list[tuple[int, Counter]], counts: Counter) -> tuple:
    """The node (factors, part) over rows of a ``ProductTree``: rows holds (i,
    the factors left of row i), and counts how many of rows have each factor."""
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
    factors = tuple(sorted(common.elements(), key=_smallest_first))
    if len(rows) == 1:
        return factors, rows[0][0]
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
    return factors, (_split(sharing, sharing_counts), _split(rest, rest_counts))


class ProductTree:
    """A sum of products of binomials, sum over rows r of
    s_r q^e_r t^f_r * prod (1 - q^alpha t^beta) over the row's factors, with
    s_r = +1 or -1 (``signs``, all +1 by default), as a tree that
    multiplies by a factor shared by several rows once.

    The rows are split on the factor that most of them contain: those rows
    add their partial sums first and multiply by it once, and both halves
    are split again (``_split``); a row left alone keeps its own chain,
    smallest factor first.  Factors every row of a part contains are taken
    together.  Each node of the tree (``root``, None for no rows) is a pair
    (factors, part): the part is a row index i, worth s_i q^e_i t^f_i, or
    the pair (sharing, rest) of child nodes, worth their sum, and the node
    is its part times its factors.  The tree depends on the factor multisets
    and signs only, so a plan builds it once and evaluates it at every
    vector's exponents (``_pack_sum``).  It also keeps the two sizes that
    depend on it alone: the kernel ``width``, which holds every slot of the
    sum, and ``own_slots``, the slots of the rows' own boxes added up.  The
    width is fit_width(norm_bound) for a caller that proves no coefficient
    of the sum exceeds norm_bound at any exponents, as a tableau plan does,
    and else that of the bound every product of binomials obeys
    (``sum_of_products``).
    """

    __slots__ = ("factors", "signs", "spans", "width", "own_slots", "root")

    def __init__(
        self,
        factor_lists: Iterable[Iterable[tuple[int, int]]],
        signs: Sequence[int] | None = None,
        norm_bound: int | None = None,
    ):
        self.factors = tuple(
            tuple((alpha, beta) for alpha, beta in factors) for factors in factor_lists
        )
        self.signs = tuple(signs) if signs is not None else (1,) * len(self.factors)
        self.spans = tuple(_span(factors) for factors in self.factors)
        if norm_bound is None:
            norm_bound = len(self.factors) << max(map(len, self.factors), default=0)
        self.width = fit_width(norm_bound)
        self.own_slots = sum((q_hi - q_lo + 1) * (t_hi - t_lo + 1) for q_lo, q_hi, t_lo, t_hi in self.spans)
        rows = [(i, Counter(factors)) for i, factors in enumerate(self.factors)]
        self.root = _split(rows, _presence(rows)) if rows else None


def _evaluate(tree: ProductTree, exponents: list[ExponentPair], box: PackedBox) -> int:
    """The tree's sum packed on box at the tree's width.  Each node's partial
    sum is a pair (lo, y) worth X^lo * y, so it costs only its own span, and
    two are aligned by one shift.  lo is never negative: it is the slot of the
    lowest term of one row's partial product, which lies in that row's box."""
    stride, width = box.stride, tree.width

    def node(factors: tuple, part) -> tuple[int, int]:
        if isinstance(part, int):
            lo, y = box.slot(*exponents[part]), tree.signs[part]
        else:
            (lo, y), (lo2, y2) = node(*part[0]), node(*part[1])
            if lo > lo2:
                lo, y, lo2, y2 = lo2, y2, lo, y
            y += y2 << ((lo2 - lo) * width)
        y, offset = _times_factors(y, factors, stride, width)
        return lo + offset, y

    lo, y = node(*tree.root)
    return y << (lo * width)


#: The sparsest box a sum is packed on, in slots per term its rows can make
#: (their own boxes' slots, added up): the packed path costs the box, the
#: per-row one the terms.  Over length-3 and length-4 H, packed was faster on
#: 198 of 198 at 16 to 32 slots per term (114 -> 72 ms in all), 233 of 330
#: at 32 to 64 (249 -> 227 ms) and 52 of 429 at 64 to 128.  H(20, 20, 20)
#: (58.5) and H(0, 1000) (about 10^6) are summed per row.  The benchmark's
#: tableau sums reach 0.75 slots per term, and ``qtc verify``'s 7.9.
SLOTS_PER_TERM = 32


def _box_of(exponents: list[ExponentPair], tree: ProductTree) -> PackedBox:
    """The span of the rows' own boxes, each moved by its monomial."""
    es, fs = zip(*exponents)
    q_lo, q_hi, t_lo, t_hi = zip(*tree.spans)
    return PackedBox(min(map(add, es, q_lo)), max(map(add, es, q_hi)), min(map(add, fs, t_lo)), max(map(add, fs, t_hi)))


def _pack_sum(exponents: Iterable[ExponentPair], tree: ProductTree, box: PackedBox | None = None) -> "Packed | LaurentPoly":
    """The sum of the tree at the rows' exponents, packed on one box (given,
    or ``_box_of``); or, when it has more than ``SLOTS_PER_TERM`` slots per
    term the rows can make, each row packed on its own box and the sum added."""
    exponents = list(exponents)
    if not exponents:
        return LaurentPoly.zero()
    box = box or _box_of(exponents, tree)
    if box.slots > SLOTS_PER_TERM * tree.own_slots:
        rows = zip(exponents, tree.factors, tree.signs)
        return sum((sign * sum_of_products([(ef, fs)]) for ef, fs, sign in rows), ZERO)
    return Packed(box, tree.width, _evaluate(tree, exponents, box))


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
    of the biased sum decodes them all.  Only the sum's digits must fit: the
    partial sums are exact integers whatever their digits, so a tree given a
    smaller bound on the sum's coefficients, such as the sum of its rows'
    ||P_r||_inf (a monomial moves a row's terms and keeps their size), runs
    at that bound's width: 16 bits for the 38 rows of the size-6 tableau
    plan, where len(rows) * 2^max_m takes 24.

    Rows far apart would leave most slots of the common box empty; past
    ``SLOTS_PER_TERM`` slots per term of the rows' own boxes, each row is
    packed on its own box and the results are added.
    """
    rows = list(rows)
    total = _pack_sum([ef for ef, _ in rows], ProductTree(factors for _, factors in rows))
    return total if isinstance(total, LaurentPoly) else total.unpack()


def product_of_factors(factors: Iterable[BinomialFactor]) -> LaurentPoly:
    return sum_of_products((((0, 0), factors),))


def exact_divide(p: "LaurentPoly | Packed", factor: "BinomialFactor | tuple[int, int]") -> "LaurentPoly | Packed":
    """Divide p exactly by (1 - q^alpha t^beta).

    With 1 - X^v = -X^v (1 - X^-v), the division is taken along the one
    u of v and -v that points forward (``forward``).  Terms of p
    are grouped along lattice lines e, e+u, e+2u, ...; on each line the
    quotient coefficients are the running partial sums, and the division is
    exact iff every line sums to zero.  The quotient is unique, so any
    correct method agrees.  Each run of equal quotient terms is counted
    before it is written, and past ``MAX_QUOTIENT_SLOTS`` terms refused.

    A packed p is divided modulo 2^L, L = slots * width, where the factor
    is 1 - X^k with k = alpha * stride + beta.  For k > 0 that is odd at
    X = 2^width, and its inverse is the geometric series 1 + X^k + X^2k +
    ..., summed by doubling.  Only k > 0 is taken: the one caller,
    ``_packed_quotient``, passes forward factors that fit p's box, and proves
    that the quotient lies in p's box and fits the width, as its digits need.
    """
    alpha, beta = v = tuple(factor)
    if alpha == 0 and beta == 0:
        raise DomainError("cannot divide by the zero factor (1 - q^0 t^0)")
    if isinstance(p, Packed):
        box, width, y = p.box, p.width, p.value
        k = alpha * box.stride + beta
        if k <= 0:
            raise DomainError(f"(1 - q^{alpha} t^{beta}) is 1 - X^{k} on a box of stride {box.stride}, not divided packed")
        bits = box.slots * width
        mask = (1 << bits) - 1
        s = k * width
        while s < bits:
            y = (y + (y << s)) & mask
            s <<= 1
        return Packed(box, width, y & mask)
    if p.is_zero():
        return LaurentPoly.zero()
    sign, first = 1, 0
    if not forward(alpha, beta):
        # divide by (1 - X^-v), then multiply by -X^-v
        alpha, beta, sign, first = -alpha, -beta, -1, 1
    step = alpha or beta

    # A line is keyed by alpha*b - beta*a and by the residue of its
    # position (a, or b when alpha = 0) modulo step; positions increase
    # along u.
    lines: dict[int, list[tuple[int, int, int, int]]] = defaultdict(list)
    for (a, b), coeff in p.terms().items():
        pos = a if alpha else b
        lines[(alpha * b - beta * a) * step + pos % step].append((pos, a, b, coeff))

    out: dict[ExponentPair, int] = {}
    terms = 0
    for entries in lines.values():
        entries.sort()
        running = 0
        for (pos, a, b, coeff), following in zip(entries, entries[1:]):
            running += coeff
            if running:
                value, run = sign * running, (following[0] - pos) // step
                terms += run
                if terms > MAX_QUOTIENT_SLOTS:
                    raise DomainError(f"the quotient needs at least {terms} terms, more than the {MAX_QUOTIENT_SLOTS} allowed")
                for k in range(first, first + run):
                    out[(a + k * alpha, b + k * beta)] = value
        if running + entries[-1][3]:
            raise NotPolynomialError(f"(1 - q^{v[0]} t^{v[1]}) does not divide {p.to_text()}")
    return LaurentPoly._from_dict(out)


#: The most slots the box of a packed result may have, and the most terms a
#: quotient of ``exact_divide`` by terms may have: it bounds the quotient's
#: box of ``divide_sum_of_products``, the division term by term, and F's box
#: of the Tesler walk (``tesler._box``), which holds every node of the walk.
#: F(0, 1000)'s H has 2.0e6 slots and takes 0.6 s and 160 MB (Python 3.11.7,
#: Intel Xeon); the tableau sums of the tests, README and benchmark reach
#: 1,904.  F(a, 0) = [a + 1] is divided from one slot into a + 1 terms.  The
#: Tesler boxes the tests sum reach 1,027,072 slots, at (0, 1000, 1).
MAX_QUOTIENT_SLOTS = 1 << 21


def divide_sum_of_products(
    exponents: Iterable[ExponentPair],
    tree: ProductTree,
    denominator: Iterable[tuple[int, int]],
) -> LaurentPoly:
    """The sum of tree at the rows' exponents (see ``sum_of_products``)
    over prod (1 - q^alpha t^beta) over the denominator, taken on the packed
    sum without unpacking it; NotPolynomialError if that is not a Laurent
    polynomial, and DomainError if a factor does not point forward.  As
    Newt(N) = Newt(D) + Newt(Q), the quotient lies in N's box less D's
    degree span in each variable; a box of more than ``MAX_QUOTIENT_SLOTS``
    slots is refused before any polynomial work."""
    exponents = list(exponents)
    # sorted as FactoredRational sorts it: the order the chain divides in
    factors = tuple(sorted(denominator))
    if not all(forward(alpha, beta) for alpha, beta in factors):
        raise DomainError(f"every factor of the denominator must point forward, got {factors}")
    if not exponents:
        return ZERO
    box = _box_of(exponents, tree)
    # the quotient's box lies in N's, so D's span matters only past the limit
    _, d_q_hi, d_t_lo, d_t_hi = _span(factors) if box.slots > MAX_QUOTIENT_SLOTS else (0, 0, 0, 0)
    slots = max(box.q_hi - box.q_lo - d_q_hi + 1, 0) * max(box.t_hi - box.t_lo - d_t_hi + d_t_lo + 1, 0)
    if slots > MAX_QUOTIENT_SLOTS:
        raise DomainError(f"the quotient needs a box of {slots} slots, more than the {MAX_QUOTIENT_SLOTS} allowed")
    return _exact_quotient(_pack_sum(exponents, tree, box), factors)


def _exact_quotient(numerator: "Packed | LaurentPoly", factors: tuple) -> LaurentPoly:
    """numerator / prod (1 - q^alpha t^beta) over factors; NotPolynomialError
    if that is not a Laurent polynomial.  A packed numerator is divided packed
    first; one given as terms goes straight to the ``exact_divide`` chain."""
    if isinstance(numerator, Packed):
        quotient = _packed_quotient(numerator, factors) if numerator.value else ZERO
        if quotient is not None:
            return quotient
        numerator = numerator.unpack()
    for f in factors:
        numerator = exact_divide(numerator, f)
    return numerator


def _packed_quotient(numerator: Packed, factors: tuple) -> LaurentPoly | None:
    """The quotient Q = N / D for the packed N, or None if the packed
    division does not prove it at N's width.

    Every factor of D points forward (``forward``), so D spans the
    q-degrees [0, d_q_hi], and on a box that D fits each factor is 1 - X^k
    with k > 0.  Since Newt(N) = Newt(D) + Newt(Q), Q lies in the q-rows
    [q_lo, q_hi - d_q_hi] of N's box: the window ``sub``, with all t and the
    same stride, which is the first sub.slots slots of N's box.  d = D(X) is
    odd at X = 2^w, so Q = N / d modulo 2^L, L = sub.slots * w: the first L
    bits of N are divided there by one factor after another (``exact_divide``
    of a packed polynomial).  Its digits are Q's if every coefficient of Q
    fits in w bits; Q is returned only once D Q is shown to equal N on N's
    box.  Otherwise the caller divides term by term, which also tells an N
    that D does not divide.
    """
    box, width, value = numerator.box, numerator.width, numerator.value
    _, d_q_hi, d_t_lo, d_t_hi = _span(factors)  # the box of D
    if d_q_hi > box.q_hi - box.q_lo or d_t_hi - d_t_lo > box.t_hi - box.t_lo:
        return None  # D Q would have a wider box than N; this keeps every k positive
    sub = PackedBox(box.q_lo, box.q_hi - d_q_hi, box.t_lo, box.t_hi)
    quotient = Packed(sub, width, value & ((1 << (sub.slots * width)) - 1))
    for f in factors:
        quotient = exact_divide(quotient, f)
    y = quotient.value
    terms = sub.decode(y, width)
    # Proof that Q D = N.  Q D has the box box(Q) + box(D), since the
    # extreme terms of a product do not cancel.  When that box is inside
    # N's, the stride keeps every term of Q D - N in a slot of its own.  Its
    # q-rows always are: Q lies in sub, N's q-rows but the top d_q_hi, and D
    # in the q-degrees 0..d_q_hi; only its t-rows are tested.  A coefficient
    # of Q D is at most max|Q| * ||D||_1 <= max|Q| * 2^m in absolute value,
    # and one of N is below 2^(w-1), so at the width W = max(fit_width(max|Q|
    # * 2^m), w), whose balanced digit holds both, every digit of Q D - N is
    # below 2^W.  Then (Q D - N)(2^W) = 0 only if Q D = N: else its lowest
    # nonzero digit would be a multiple of 2^W, but smaller.
    q_box = terms and PackedBox.around(terms)
    if not (
        q_box
        and box.t_lo <= q_box.t_lo + d_t_lo
        and q_box.t_hi + d_t_hi <= box.t_hi
    ):
        return None
    check = max(fit_width(max(map(abs, terms.values())) << len(factors)), width)
    x, _ = _times_factors(relayout(y, sub.slots, sub.stride, width, sub.stride, check), factors, box.stride, check)
    if x != relayout(value, box.slots, box.stride, width, box.stride, check):
        return None
    return LaurentPoly._from_dict(terms)


class FactoredRational(Record):
    """numerator / product of (1 - q^alpha t^beta) factors; not reduced.

    The denominator is a multiset, canonically stored as a sorted tuple.
    Sums and products take FactoredRational operands only.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: LaurentPoly, denominator: Iterable[BinomialFactor] = ()):
        factors = (f if isinstance(f, BinomialFactor) else BinomialFactor(*f) for f in denominator)
        super().__init__(numerator, tuple(sorted(factors)))

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

    def __repr__(self) -> str:
        den = " * ".join(f"(1 - q^{a} t^{b})" for a, b in self.denominator) or "1"
        return f"FactoredRational(({self.numerator.to_text()}) / {den})"
