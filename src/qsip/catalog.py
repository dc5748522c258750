"""Registry of series = product identities, verified coefficientwise.

Each identity is one row of data: an id, a source, the series side, the
product side and, where the identity has a combinatorial reading, a
brute-force counting oracle; verification is exact integer comparison up
to the requested truncation order.  Each side and oracle is the library
function that builds it, its data bound by ``functools.partial`` where it
takes any, so it takes only the truncation order, or the largest total for
an oracle.

* A series side is a q-hypergeometric sum for
  :func:`~qsip.qfactory.series_sum`: a pair ``(a, b)`` giving
  Q(n) = (a*n^2 + b*n)/2, numerator and denominator ``PochSpec`` lists, so
  the sum is over n of q^Q(n) (num)_n / (den)_n.
* Or it is an Andrews-Gordon multisum, the pair ``(k, i)`` for
  :func:`~qsip.qfactory.andrews_gordon_sum`: the sum over
  n_1, ..., n_(k-1) of q^(N_1^2 + ... + N_(k-1)^2 + N_i + ... + N_(k-1)) /
  ((q)_n_1 ... (q)_n_(k-1)), N_j = n_j + ... + n_(k-1), which equals the
  product over n not congruent to 0 or +-i (mod 2k + 1) of 1/(1 - q^n).
* Or it is the class generating function :func:`~qsip.sip.class_gf` of a
  separable class (schur-refined's weighted class).
* Or it is glasgow-mod8's :func:`mod8_sum`, 1 + the sum over n >= 1 of
  q^(2n) (1 + q^(2n-1)) (-q^3; q^4)_(n-1) / (q^2; q^2)_n, whose numerator
  is the sum of the class's n-part basis rows
  (:func:`~qsip.closed_forms.glasgow_row_sums`).
* A product side is a list of ``(PochSpec, power)`` pairs with power +1 or
  -1; a congruence product is the list of its admitted residues r, each a
  factor 1/(q^r; q^modulus).  Where the list is a quotient of theta and eta
  series (:func:`~qsip.qfactory.eta_theta_quotient` takes it), the side is
  :func:`~qsip.qfactory.eta_theta_product`, O(trunc^1.5): ten rows.
  glasgow-mod8, whose excluded residues 1, 5 and 6 mod 8 are not closed
  under r -> 8 - r, and the marked schur-refined keep the factor loop
  :func:`~qsip.qfactory.poch_product`, O(trunc^2), which the tests also
  run against the other ten.

Registered identities:

    euler-any            sum q^n/(q;q)_n                = 1/(q;q)
    euler-distinct       sum q^(n(n+1)/2)/(q;q)_n       = (-q;q)
    rogers-ramanujan     Andrews-Gordon (2, 2)          = 1/((q;q^5)(q^4;q^5))
    gollnitz-gordon-1    sum (-q;q^2)_n q^(n^2)/(q^2;q^2)_n
                                                        = 1/((q;q^8)(q^4;q^8)(q^7;q^8))
    schur-refined        weighted-class sum             = (-uq;q^3)(-vq^2;q^3)
    glasgow-mod8         telescoping sum                = product over n != 1,5,6 mod 8
    slater-46            n-copies, differences > 0      = product over n != 0,4,6 mod 10
    slater-61            n-copies, differences >= 0     = product over n != 0,6,8 mod 14
    slater-81            n-copies, differences >= -1    = two-color mod-14 product
    slater-6-corrected   overlined n-copies sum         = product over 3-free parts
    slater-86            even-subscript n-copies        = product over +-2..+-5 mod 16
    mod7-sum             Andrews-Gordon (3, 3)          = product over n != 0,3,4 mod 7

The n-copies sums (difference at least r) are ``ncopies_gf(r)``, sum
q^(n^2 + r n(n-1)/2) / ((q;q^2)_n (q;q)_n); slater-86 is sum
q^(2n^2)/(q;q)_(2n) with (q;q)_(2n) = (q;q^2)_n (q^2;q^2)_n.
Andrews-Gordon (2, 2) is sum q^(n^2)/(q;q)_n, and (3, 3) is
sum q^(N_1^2 + N_2^2) / ((q;q)_n_1 (q;q)_n_2) with N_1 = n_1 + n_2, N_2 = n_2.

Every oracle enumerates its objects, as a counting walk with one walk
state per counted object and no memo across states.  A state keeps only
what the class rule reads and the remaining total, and the states are
tallied by remaining total (:func:`~qsip.partitions.walk_series`; a
weighted walk tallies its own states).  The six
partition oracles are :func:`~qsip.sip.count_class` on their separable
class, so they visit only the members they count (schur-refined weighted
by its parts' marker monomials, with one tally per monomial).  The
n-copies oracles are the walks of
:func:`~qsip.ncopies.count_ncopies` and
:func:`~qsip.ncopies.count_even_subscript`.  Almost all of their states
have no next part, so they run on :func:`~qsip.partitions.grow_leaves`, as
do the marked and k > 1 class walks; every state is still its own tuple,
counted once.  The slater-6-corrected oracle
(:func:`~qsip.ncopies.count_ncopies_over`) walks the n-copies partitions
with non-negative weighted differences and counts each with weight 2^s,
s its number of overline carriers (:func:`~qsip.ncopies.overline_carriers`),
on the same kernel: that is how many overlined versions
:func:`~qsip.ncopies.enumerate_ncopies_over` lists one by one.  The
mod7-sum oracle (:func:`~qsip.partitions.count_gordon`) walks the
partitions under Gordon's frequency condition for (k, i) = (3, 3): at most
two ones, and at most two parts equal to j or j + 1 for every j.  The tuple
enumerators of :mod:`~qsip.sip` and :mod:`~qsip.ncopies` stay as the
references these walks are tested against.

The slater-81 product is stored in its corrected form: parts not congruent
to 0 or +-6 mod 14, with parts congruent to +-3 mod 14 in two colors.  The
transcriptions of this identity in circulation drop the +-1 and +-5
residue classes, which already fails at q^1; the corrected product matches
the series (and the counting oracle) exactly, with the exponent pattern
confirmed periodic through q^120.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import add, sub
from typing import Callable

from . import ncopies as nc
from .partitions import count_gordon
from .qfactory import (CongruenceProductSpec, PochSpec, andrews_gordon_sum,
                       eta_theta_product, poch_product, series_sum)
from .series import QSeries, _convolve_into, _nested_sum
from .sip import (DISTINCT, GLASGOW, GOLLNITZ_GORDON, NATURAL, ROGERS_RAMANUJAN,
                  SCHUR_REFINED, class_gf, count_class)


class UnknownIdentity(Exception):
    """The requested identity id is not registered."""


class NoOracle(Exception):
    """The identity has no combinatorial counting oracle attached."""


_ONES = PochSpec(1, 1)       # (q; q)
_EVENS = PochSpec(2, 2)      # (q^2; q^2)
_ODDS = PochSpec(1, 2)       # (q; q^2)


def _parts(modulus: int, residues: set[int], mode: str = "excluded"
           ) -> list[tuple[PochSpec, int]]:
    return CongruenceProductSpec(modulus, frozenset(residues), mode).factors()


def _mod8_summands(trunc: int) -> tuple[list, list]:
    """The :func:`~qsip.series._nested_sum` terms and factors of the mod-8
    series through q^trunc.  Term 0 is 1 and term n >= 1 is the row
    1 + q^(2n-1) at q^(2n) (just 1 where q^(2n-1) falls past the cut);
    g_0 = 1/(1 - q^2) and g_i = (1 + q^(4i-1))/(1 - q^(2i+2)), so the
    numerator runs one step behind the denominator."""
    terms, factors = [(0, [1])], [[(-1, 2, -1)]]
    for n in range(1, trunc // 2 + 1):
        terms.append((2 * n, [1] + [0] * (2 * n - 2) + [1] if 4 * n - 1 <= trunc else [1]))
        factors.append([(1, 4 * n - 1, 1), (-1, 2 * n + 2, -1)])
    return terms, factors


def mod8_sum(trunc: int) -> QSeries:
    """glasgow-mod8's series side, exact to ``trunc``: one
    :func:`~qsip.series._nested_sum` call over :func:`_mod8_summands`."""
    total = [0] * (trunc + 1)   # first, so a size too large to hold fails before any term
    start, row = _nested_sum(*_mod8_summands(trunc), trunc)
    total[start:] = row
    return QSeries._make({(): total}, trunc, ())


# -- the registry -------------------------------------------------------------

@dataclass(frozen=True)
class IdentityEntry:
    """One identity: each side, and the oracle, maps a truncation order (the
    largest total for the oracle) to a series."""

    id: str
    source: str
    lhs: Callable[[int], QSeries]
    rhs: Callable[[int], QSeries]
    oracle: Callable[[int], QSeries] | None = None


REGISTRY: dict[str, IdentityEntry] = {entry.id: entry for entry in (
    IdentityEntry(
        "euler-any", "Euler's series for unrestricted partitions",
        partial(series_sum, (0, 2), (), [_ONES]), partial(eta_theta_product, [(_ONES, -1)]),
        partial(count_class, NATURAL)),
    IdentityEntry(
        "euler-distinct", "Euler's series for distinct parts",
        partial(series_sum, (1, 1), (), [_ONES]),
        partial(eta_theta_product, [(PochSpec(1, 1, sign=-1), 1)]),
        partial(count_class, DISTINCT)),
    IdentityEntry(
        "rogers-ramanujan", "first Rogers-Ramanujan identity",
        partial(andrews_gordon_sum, 2, 2),
        partial(eta_theta_product, [(PochSpec(1, 5), -1), (PochSpec(4, 5), -1)]),
        partial(count_class, ROGERS_RAMANUJAN)),
    IdentityEntry(
        "gollnitz-gordon-1", "first Gollnitz-Gordon identity",
        partial(series_sum, (2, 0), [PochSpec(1, 2, sign=-1)], [_EVENS]),
        partial(eta_theta_product, [(PochSpec(1, 8), -1), (PochSpec(4, 8), -1),
                                    (PochSpec(7, 8), -1)]),
        partial(count_class, GOLLNITZ_GORDON)),
    IdentityEntry(
        "schur-refined", "refined Schur product with part-class markers",
        partial(class_gf, SCHUR_REFINED),
        partial(poch_product, [(PochSpec(1, 3, sign=-1, marker="u"), 1),
                               (PochSpec(2, 3, sign=-1, marker="v"), 1)]),
        partial(count_class, SCHUR_REFINED)),
    IdentityEntry(
        "glasgow-mod8", "Gollnitz mod-8 theorem (Glasgow Math. J. 1967)",
        mod8_sum,
        partial(poch_product, _parts(8, {1, 5, 6})),
        partial(count_class, GLASGOW)),
    IdentityEntry(
        "slater-46", "Slater (46)",
        partial(nc.ncopies_gf, 1),
        partial(eta_theta_product, _parts(10, {0, 4, 6})),
        partial(nc.count_ncopies, min_diff=1)),
    IdentityEntry(
        "slater-61", "Slater (61)",
        partial(nc.ncopies_gf, 0),
        partial(eta_theta_product, _parts(14, {0, 6, 8})),
        partial(nc.count_ncopies, min_diff=0)),
    IdentityEntry(
        "slater-81", "Slater (81), product side corrected",
        partial(nc.ncopies_gf, -1),
        partial(eta_theta_product, [*_parts(14, {0, 6, 8}), (PochSpec(3, 14), -1),
                                    (PochSpec(11, 14), -1)]),
        partial(nc.count_ncopies, min_diff=-1)),
    IdentityEntry(
        "slater-6-corrected", "Slater (6), corrected",
        partial(series_sum, (2, 0), [PochSpec(0, 1, sign=-1)], [_ONES, _ODDS]),
        partial(eta_theta_product, [(PochSpec(1, 3, sign=-1), 1),
                                    (PochSpec(2, 3, sign=-1), 1), *_parts(3, {0})]),
        nc.count_ncopies_over),
    IdentityEntry(
        "slater-86", "Slater (86)",
        partial(series_sum, (4, 0), (), [_ODDS, _EVENS]),
        partial(eta_theta_product, _parts(16, {2, 3, 4, 5, 11, 12, 13, 14}, "allowed")),
        nc.count_even_subscript),
    IdentityEntry(
        "mod7-sum", "mod-7 Rogers-Ramanujan analogue",
        partial(andrews_gordon_sum, 3, 3),
        partial(eta_theta_product, _parts(7, {0, 3, 4})),
        partial(count_gordon, 3, 3)),
)}


def identity_ids() -> list[str]:
    return list(REGISTRY)


def get(identity: str) -> IdentityEntry:
    try:
        return REGISTRY[identity]
    except KeyError:
        raise UnknownIdentity(f"no identity registered under {identity!r}") from None


# -- verification -------------------------------------------------------------

@dataclass(frozen=True)
class VerifyResult:
    identity: str
    trunc: int
    passed: bool
    first_mismatch: int | None

    def summary(self) -> str:
        verdict = "pass" if self.passed else f"FAIL at q^{self.first_mismatch}"
        return f"{self.identity} (trunc {self.trunc}): {verdict}"


def verify(identity: str, trunc: int) -> VerifyResult:
    """Compare both sides of one identity coefficientwise up to trunc."""
    entry = get(identity)
    mismatch = entry.lhs(trunc).first_mismatch(entry.rhs(trunc))
    return VerifyResult(identity, trunc, mismatch is None, mismatch)


def verify_all(trunc: int) -> list[VerifyResult]:
    return [verify(identity, trunc) for identity in REGISTRY]


@dataclass(frozen=True)
class ConcordanceResult:
    identity: str
    total_max: int
    passed: bool
    oracle_vs_lhs: int | None
    oracle_vs_rhs: int | None

    def summary(self) -> str:
        if self.passed:
            return f"{self.identity} (totals <= {self.total_max}): oracle = lhs = rhs"
        return (f"{self.identity} (totals <= {self.total_max}): FAIL "
                f"(vs lhs at {self.oracle_vs_lhs}, vs rhs at {self.oracle_vs_rhs})")


def oracle_concordance(identity: str, total_max: int) -> ConcordanceResult:
    """Three-way check: enumeration counts, LHS and RHS coefficients."""
    entry = get(identity)
    if entry.oracle is None:
        raise NoOracle(f"{identity} has no counting oracle")
    counted = entry.oracle(total_max)
    vs_lhs = counted.first_mismatch(entry.lhs(total_max))
    vs_rhs = counted.first_mismatch(entry.rhs(total_max))
    return ConcordanceResult(entry.id, total_max, vs_lhs is None and vs_rhs is None,
                             vs_lhs, vs_rhs)


# -- the telescoping proof of the mod-8 sum -----------------------------------

@dataclass(frozen=True)
class TelescopeResult:
    n_max: int
    trunc: int
    passed: bool
    failures: tuple[str, ...]

    def summary(self) -> str:
        if self.passed:
            return f"telescoping partial sums pass for N <= {self.n_max} (trunc {self.trunc})"
        return "telescoping FAIL: " + "; ".join(self.failures)


def telescope_check(n_max: int, trunc: int) -> TelescopeResult:
    """Partial sums of the mod-8 series against their closed form.

    For each N the partial sum through term N must equal
    (-q^3; q^4)_N / (q^2; q^2)_N, and consecutive closed forms must differ
    by exactly the N-th summand.  Each side moves one factor per N, in
    O(n_max * trunc) in all: summand N is term N of :func:`_mod8_summands`
    times the carried g_0 ... g_(N-1), which then takes g_N by a two-term
    :func:`~qsip.series._nested_sum` call; the closed form takes
    (1 + q^(4N-1)) / (1 - q^(2N)) by :meth:`~qsip.qfactory.PochSpec.apply`.
    A summand that starts past q^trunc is zero and costs no call.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if trunc < 0:
        raise ValueError("truncation order must be non-negative")
    closed = [1] + [0] * trunc   # first, so a size too large to hold fails before any term
    partial, carried = [0] * (trunc + 1), closed[:]   # carried: g_0 ... g_(N-1)
    terms, factors = _mod8_summands(trunc)
    failures: list[str] = []
    for n in range(n_max + 1):
        term = [0] * (trunc + 1)
        if n < len(terms):
            offset, row = terms[n]
            _convolve_into(term, [0] * offset + row, carried)
            if n + 1 < len(terms):
                carried = _nested_sum([None, (0, carried)], [factors[n]], trunc)[1]
        partial[:] = map(add, partial, term)
        if n == 0:
            continue
        previous = closed[:]
        PochSpec(4 * n - 1, 4, sign=-1).apply(closed, 1)   # times 1 + q^(4n-1)
        PochSpec(2 * n, 2).apply(closed, 1, -1)          # over 1 - q^(2n)
        if partial != closed:
            failures.append(f"partial sum N={n} differs from closed form")
        if n >= 2 and list(map(sub, closed, previous)) != term:
            failures.append(f"closed-form difference at N={n} is not term {n}")
    return TelescopeResult(n_max, trunc, not failures, tuple(failures))


# -- proof-chain helpers for the Gollnitz-Gordon product ----------------------

def gollnitz_intermediate(trunc: int) -> QSeries:
    """The pivot form (-q; q^2)-prefactored even-square sum.

    Equals (-q; q^2)_infinity times the sum over j of
    q^(2 j^2) / ((-q; q^2)_j (q^2; q^2)_j); both of the registered
    Gollnitz-Gordon sides must agree with it.  The product is applied to
    the sum's row, so no two series are multiplied.
    """
    plus_odds = PochSpec(1, 2, sign=-1)
    row = series_sum((4, 0), (), (plus_odds, _EVENS), trunc).int_coefficients(trunc)
    return QSeries._make({(): plus_odds.apply(row, None)}, trunc, ())


def substitute_neg_q_squared(series: QSeries) -> QSeries:
    """Map q to -q^2: exponents double, odd coefficients flip sign.

    A series exact to trunc t becomes exact to 2t + 1 (odd exponents all
    vanish).
    """
    if series.trunc is None:
        raise ValueError("substitution needs a truncated series")
    if series.markers:
        raise ValueError("substitution is defined for marker-free series")
    out = [0] * (2 * series.trunc + 2)
    for n, c in enumerate(series.int_coefficients(series.trunc)):
        out[2 * n] = -c if n % 2 else c
    return QSeries._make({(): out}, 2 * series.trunc + 1, ())
