"""Exact q,t-polynomials of integer sequences.

The value F(a_2, ..., a_n) attached to an integer vector is computed by
four independent routes (tableau sums, Tesler-matrix sums, recursions,
and, for three arguments, symmetric-chain formulas), all in exact
arbitrary-precision arithmetic, so the routes can be cross-verified
term by term.
"""

from .chains import (
    CaseLabel,
    ChainRecord,
    PositiveHeadIndex,
    PseudoheadIndex,
    QuasiheadIndex,
    TailIndex,
    appendage_of,
    area,
    chain_of,
    classify,
    decompose,
    enumerate_heads,
    enumerate_pseudoheads,
    enumerate_quasiheads,
    enumerate_tails,
    f_chains,
    f_stat,
    h_comb_poly,
    locate,
    locate_tail,
    omega_inv,
    omega_map,
    phi,
    phi_inv,
    psi,
    psi_inv,
    stat,
    string_of,
    subpartitions3,
    theta,
    theta_inv,
)
from .closed_forms import (
    f1,
    f2,
    f3_recursive,
    f3_two_step,
    h2,
    h3,
    slope_sequence,
)
from .errors import DomainError, NotPolynomialError, canonical_partition
from .poly import (
    ONE,
    Q,
    T,
    ZERO,
    LaurentPoly,
    bracket,
    qt_power,
    unimodality_check,
)
from .rational import BinomialFactor, FactoredRational, exact_divide
from .record import ABCParams
from .render import parse_json, render_csv, render_json, render_latex
from .tableaux import (
    StandardTableau,
    combine_h_to_f,
    enumerate_syt,
    f_tableaux,
    h_tableaux,
)
from .tesler import (
    f_tesler,
    lambda_partition,
    subdiagram_area_gf,
)
from .verification import VerificationReport, hcomb_recursion_residual, run_verify, valid_triples

__version__ = "1.0.0"
