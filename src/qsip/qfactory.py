"""Constructors for standard q-objects.

Finite and infinite q-Pochhammer products, Gaussian (q-binomial)
polynomials, congruence-restricted partition products, q-hypergeometric
sums, Andrews-Gordon multisums and the terms of theta series.  Everything is
exact integer arithmetic on :class:`~qsip.series.QSeries` values, except
that Gaussian binomials are cached as immutable int rows
(:func:`binomial_row`) for the int-row builders; :func:`gaussian_binomial`
wraps a row as a series.  The factor loop :func:`poch_product` builds
every product: each unmarked spec, Gaussian binomials included, is one loop,
:meth:`PochSpec.apply`, of one factor kernel,
:func:`~qsip.series.binomial_factor`, which multiplies or divides one int
list by a single factor 1 + c*q^e in O(trunc), so an infinite product
costs O(trunc^2).  A product that is a quotient of theta series
(q^r, q^(m-r), q^m; q^m)_infinity, eta series (q^k; q^k)_infinity among
them, has a second route, :func:`eta_theta_product`: by the Jacobi triple
product each such series has about sqrt(trunc) terms
(:func:`theta_terms`), all +-1 after the 1, and one pass of a sparse
kernel, :func:`~qsip.series.sparse_multiply` or
:func:`~qsip.series.sparse_divide`, applies it, so the product costs
O(trunc^1.5).  The two routes share no code, and the factor loop is the
check on the other.  Every sum is one or more
calls of the inside-out sum :func:`~qsip.series._nested_sum`, which runs
that kernel on the part of the sum already gathered.  A product with a
marker x is expanded by the q-binomial theorem and Euler's two identities
(Andrews, *The Theory of Partitions*, 1976, Thm 2.1 and Cor. 2.2): the
x^k row of a marked Pochhammer product is its x^(k-1) row shifted and run
through one or two such kernel calls (:func:`_expand`).  So no builder
multiplies two series, and a product costs O(rows * trunc).  Infinite
products are cut at the first factor whose minimal exponent exceeds the
requested truncation, which cannot affect any retained coefficient."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import neg
from typing import Iterable

from .series import (QSeries, _nested_sum, _shifted, _sum_rows, binomial_factor,
                     sparse_divide, sparse_multiply)


class DivergentProduct(Exception):
    """An infinite product had a factor with q-exponent zero."""


@dataclass(frozen=True)
class PochSpec:
    """Description of a q-Pochhammer symbol (A; q^step) with A = sign-adjusted.

    Each factor is ``1 - sign * x * q^(offset + j*step)`` for j = 0, 1, ...,
    where ``x`` is the named marker if one is attached and 1 otherwise.  So
    ``sign=+1`` gives the standard (1 - .) factors and ``sign=-1`` gives
    (1 + .) factors, e.g. PochSpec(offset=1, step=2, sign=-1) is (-q; q^2).
    """

    offset: int
    step: int
    sign: int = 1
    marker: str | None = None

    def __post_init__(self):
        if self.step < 1:
            raise ValueError("step must be a positive integer")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def factor_exponent(self, j: int) -> int:
        return self.offset + j * self.step

    def apply(self, coeffs: list, count: int | None, power: int = 1) -> list:
        """Multiply (power 1) or divide (power -1) an int list in place by the
        first ``count`` factors (all for None), one kernel call each, skipping
        those past its end, which cannot change it; returns it.  A negative
        count or a marked spec (a plain list has no marker) raises ValueError."""
        if self.marker is not None:
            raise ValueError(f"marker {self.marker!r} on a plain coefficient list")
        if count is not None and count < 0:
            raise ValueError(f"factor count must be non-negative, got {count}")
        for e in range(self.offset, len(coeffs), self.step)[:count]:
            binomial_factor(coeffs, -self.sign, e, power)
        return coeffs


def _expand(rows: dict[tuple[int, ...], tuple[int, list[int]]], spec: PochSpec,
            count: int | None, power: int, i: int, size: int
            ) -> dict[tuple[int, ...], tuple[int, list[int]]]:
    """The rows times the first ``count`` factors of marked spec (all of them
    for None) to the power 1 or -1, x the marker at key index i.  Each row
    is (start, tail): tail[j] is the coefficient of q^(start + j), through
    q^(size - 1).

    By the q-binomial theorem (Andrews 1976, Thm 2.1 and Cor. 2.2), with
    sign s, offset o, step d and count n, the x^k row of the product comes
    from its x^(k-1) row:

        power 1:   row_k = row_(k-1) * (-s) q^(o + d(k-1)) (1 - q^(d(n-k+1))) / (1 - q^(dk)),
        power -1:  row_k = row_(k-1) * s q^o / (1 - q^(dk)),

    with no numerator factor for n = None and no row past k = n; a divided
    spec is infinite (no caller divides by a finite product).  Each step
    moves the start by the shift and cuts the tail to match, negates it
    when the sign asks for it and runs one or two
    :func:`~qsip.series.binomial_factor` calls on the tail alone, so no
    kernel walks the zeros below a row's start and every row stays exact.
    Every row of ``rows`` starts a chain of such rows at key + k*e_i, and
    a chain ends when its start passes the cut or its row is zero; the
    rows that land on one key are summed by :func:`~qsip.series._sum_rows`.
    """
    o, d = spec.offset, spec.step
    negate = spec.sign == power
    chains: dict[tuple[int, ...], list[tuple[int, list[int]]]] = {}
    for key, (start, row) in rows.items():
        k = 0
        while True:
            chains.setdefault(key[:i] + (key[i] + k,) + key[i + 1:], []).append((start, row))
            k += 1
            shift = o + d * (k - 1) if power == 1 else o
            if (count is not None and k > count) or start + shift >= size or not any(row):
                break
            tail = row[:len(row) - shift]
            start += shift
            row = list(map(neg, tail)) if negate else tail
            if power == 1 and count is not None:
                binomial_factor(row, -1, d * (count - k + 1))
            binomial_factor(row, -1, d * k, -1)
    return {key: summed for key, pairs in chains.items()
            if (summed := _sum_rows(pairs, 1, size - 1)) is not None}


def _product(factors: list[tuple[PochSpec, int | None, int]], size: int,
             trunc: int | None) -> QSeries:
    """Product over (spec, count, power) triples of the first ``count``
    factors of spec (all of them for None) to the power 1 or -1, over the
    sorted markers of the specs.

    Every list holds ``size`` coefficients; the result is cut at ``trunc``,
    or is an exact polynomial for None, which the lists must then hold
    whole.  Each unmarked spec is applied to one int list by
    :meth:`PochSpec.apply`.  Each marked spec then expands every monomial
    row into its rows by marker degree (:func:`_expand`), so no two series
    are ever multiplied.
    """
    markers = tuple(sorted({spec.marker for spec, _, _ in factors} - {None}))
    plain = [1] + [0] * (size - 1)
    for spec, count, power in factors:
        if spec.marker is None:
            spec.apply(plain, count, power)
    rows = {(0,) * len(markers): (0, plain)}
    for spec, count, power in factors:
        if spec.marker is not None:
            rows = _expand(rows, spec, count, power, markers.index(spec.marker), size)
    return QSeries._make(rows, trunc, markers)


def poch_finite(spec: PochSpec, n: int, trunc: int | None = None) -> QSeries:
    """The n-factor Pochhammer product for ``spec``; n = 0 is the empty product.

    Without ``trunc`` the result is an exact polynomial.  The marker
    registry is the spec's marker, if any.
    """
    if n < 0:
        raise ValueError("factor count must be non-negative")
    if n and spec.offset < 0:
        raise ValueError(f"factor q-exponent {spec.offset} < 0")
    degree = n * spec.offset + spec.step * (n * (n - 1) // 2)
    size = degree + 1 if trunc is None else trunc + 1
    return _product([(spec, n, 1)], size, trunc)


def poch_product(factors: Iterable[tuple[PochSpec, int]], trunc: int) -> QSeries:
    """Product of infinite Pochhammers (spec; .)^power over (spec, power) pairs.

    ``power`` is 1 or -1.  Exact to ``trunc``: factors whose q-exponent
    exceeds ``trunc`` are dropped (they cannot change any retained
    coefficient, since each contributes only exponents >= its own).  Every
    factor needs q-exponent at least 1.  The marker registry is the sorted
    markers of the specs.  Unmarked specs step one int list; each
    marked spec then expands every monomial row into its rows by marker
    degree with the q-binomial theorem (see :func:`_expand`).
    """
    factors = list(factors)
    for spec, power in factors:
        if spec.offset <= 0:
            raise DivergentProduct(
                f"factor q-exponent {spec.offset} <= 0 in an infinite product"
            )
        if power not in (1, -1):
            raise ValueError(f"power must be 1 or -1, got {power}")
    return _product([(spec, None, power) for spec, power in factors], trunc + 1, trunc)


def poch_infinite(spec: PochSpec, trunc: int) -> QSeries:
    """The infinite Pochhammer product, exact to ``trunc``."""
    return poch_product([(spec, 1)], trunc)


@lru_cache(maxsize=4096)
def binomial_row(a: int, b: int, *, base: int = 1) -> tuple[int, ...]:
    """Gaussian binomial [a, b] in base q^base as an immutable int row
    through its degree base*b*(a-b), cached; () where it is zero.

    Zero-extended: the row is empty whenever b < 0 or b > a.  With
    b = min(b, a - b) it is its definition, the product over j = 1..b of
    (1 - q^(base*(a-b+j))) / (1 - q^(base*j)), one pair of
    :func:`~qsip.series.binomial_factor` calls per j on one int list cut at
    the degree base*b*(a-b): the product through j is the polynomial
    [a-b+j, j], so the cut loses nothing.  ``base`` is keyword-only, so each
    row has one cache key.
    """
    if base < 1:
        raise ValueError("base step must be a positive integer")
    if b < 0 or b > a:
        return ()
    b = min(b, a - b)
    coeffs = [1] + [0] * (base * b * (a - b))
    for j in range(1, b + 1):
        binomial_factor(coeffs, -1, base * (a - b + j))
        binomial_factor(coeffs, -1, base * j, -1)
    return tuple(coeffs)


@lru_cache(maxsize=4096)
def gaussian_binomial(a: int, b: int, *, base: int = 1) -> QSeries:
    """Gaussian binomial [a, b] in base q^base as an exact polynomial: the
    series of :func:`binomial_row`, zero whenever b < 0 or b > a.  ``base``
    is keyword-only, so each series has one cache key."""
    return _shifted(0, binomial_row(a, b, base=base))


@dataclass(frozen=True)
class CongruenceProductSpec:
    """Product over 1/(1 - q^n) with n filtered by residue classes.

    ``mode`` is "allowed" (n must lie in one of the residue classes) or
    "excluded" (n must avoid all of them).
    """

    modulus: int
    residues: frozenset[int]
    mode: str = "allowed"

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be a positive integer")
        object.__setattr__(self, "residues", frozenset(self.residues))
        if not self.residues <= set(range(self.modulus)):
            raise ValueError(
                f"residues {set(self.residues)} not within 0..{self.modulus - 1}"
            )
        if self.mode not in ("allowed", "excluded"):
            raise ValueError("mode must be 'allowed' or 'excluded'")

    def admits(self, n: int) -> bool:
        hit = (n % self.modulus) in self.residues
        return hit if self.mode == "allowed" else not hit

    def factors(self) -> list[tuple[PochSpec, int]]:
        """The product as 1/(q^r; q^modulus) over the admitted residues r."""
        m = self.modulus
        return [(PochSpec(r or m, m), -1) for r in range(m) if self.admits(r)]


def congruence_product(spec: CongruenceProductSpec, trunc: int) -> QSeries:
    """Product of 1/(1 - q^n) over admitted part sizes n <= trunc."""
    return poch_product(spec.factors(), trunc)


def series_sum(quad: tuple[int, int], num: Iterable[PochSpec], den: Iterable[PochSpec],
               trunc: int) -> QSeries:
    """The sum over n >= 0 of q^Q(n) (num)_n / (den)_n exact to ``trunc``, as
    a marker-free series.

    Q(n) = (a*n^2 + b*n)/2 for ``quad = (a, b)`` must be integral, grow and
    never fall.  Summand n is term n of one :func:`~qsip.series._nested_sum`
    call: the row 1 at q^Q(n), and g_n the n-th factor of every numerator
    (power 1) and denominator (power -1) spec.  Summands are marker-free: a
    marked spec raises ValueError.
    """
    if not any(quad):
        raise ValueError("Q(n) must grow for the sum to end")
    num, den = tuple(num), tuple(den)
    if any(spec.marker is not None for spec in num + den):
        raise ValueError("q-hypergeometric sums are marker-free")
    a, b = quad
    if a < 0 or a + b < 0 or (a + b) % 2:
        raise ValueError(f"Q(n) = ({a}n^2 + {b}n)/2 must be integral and non-decreasing")
    total = [0] * (trunc + 1)   # first, so a size too large to hold fails before any term
    terms, factors = [], []
    n = 0
    while (exp := (a * n * n + b * n) // 2) <= trunc:
        terms.append((exp, [1]))
        factors.append([(-spec.sign, spec.factor_exponent(n), 1) for spec in num]
                       + [(-spec.sign, spec.factor_exponent(n), -1) for spec in den])
        n += 1
    start, row = _nested_sum(terms, factors, trunc)
    total[start:] = row
    return QSeries._make({(): total}, trunc, ())


def andrews_gordon_sum(k: int, i: int, trunc: int) -> QSeries:
    """The Andrews-Gordon multisum for 1 <= i <= k, k >= 2, exact to ``trunc``:

        sum over n_1, ..., n_(k-1) >= 0 of
            q^(N_1^2 + ... + N_(k-1)^2 + N_i + ... + N_(k-1)) / ((q)_n_1 ... (q)_n_(k-1))

    with N_j = n_j + ... + n_(k-1).  It equals the product over n not
    congruent to 0 or +-i (mod 2k + 1) of 1/(1 - q^n).

    Summed from the inside out over N_1 >= N_2 >= ... >= N_(k-1) >= 0 on
    plain int lists: with F_0 = 1, level j is

        F_j(M) = sum over N >= M of q^(N^2 + [i <= j] N) F_(j-1)(N) / (q)_(N - M),

    and the sum is F_(k-1)(0).  Each F_j(M) is one
    :func:`~qsip.series._nested_sum` call: term t is F_(j-1)(M + t) at its
    offset (the kernel drops those past the cut), and g_t = 1/(1 - q^(t+1)),
    one factor list for every call.  F_j(M) is a list over q^e, e = jM^2 +
    #{l <= j : l >= i} M its least exponent, cut where the next level's own
    factor q^(M^2 + [i <= j+1] M) pushes it past q^trunc; it is computed once
    per M and read by every outer sum that needs it.
    """
    if k < 2 or not 1 <= i <= k:
        raise ValueError(f"Andrews-Gordon sums need k >= 2 and 1 <= i <= k, got ({k}, {i})")
    if trunc < 0:
        raise ValueError("truncation order must be non-negative")
    out = [0] * (trunc + 1)   # first, so a size too large to hold fails before any work

    def least(j: int, m: int) -> int:   # the least exponent of F_j(m)
        return j * m * m + max(j - i + 1, 0) * m

    # term t of a level sum sits at least t^2 above term 0, so t <= isqrt(trunc)
    factors = [[(-1, t, -1)] for t in range(1, math.isqrt(trunc) + 1)]
    rows: list[list[int]] = [[1]] * (math.isqrt(trunc) + 1)   # F_0(N) = 1
    for j in range(1, k):
        level = []
        # the outermost level is F_(k-1)(0) alone
        for m in range(1 if j == k - 1 else trunc + 1):
            size = trunc + 1 - least(j + 1, m)
            if size <= 0:
                break
            terms = [(least(j, n) - least(j, m), rows[n]) for n in range(m, len(rows))]
            level.append(_nested_sum(terms, factors, size - 1)[1])
        rows = level
    out[:] = rows[0]
    return QSeries._make({(): out}, trunc, ())


def theta_terms(m: int, r: int, trunc: int) -> list[tuple[int, int]]:
    """The pairs (n, exponent), n ascending, of the terms
    (-1)^n q^(m*n(n-1)/2 + r*n) of the theta series theta(m, r) whose
    exponent is at most ``trunc`` (m >= 1, trunc >= 0).

    By the Jacobi triple product (Andrews, *The Theory of Partitions*, 1976,
    Thm 2.8), theta(m, r) = (q^r, q^(m-r), q^m; q^m)_infinity for
    0 < r < m, and theta(3k, k) is (q^k; q^k)_infinity by Euler's
    pentagonal theorem (Cor. 1.7).  Other r give exponents below zero, which
    are listed too: the exponents at or below the cut are those of one run
    of consecutive n, about 2*sqrt(2*trunc/m) of them.
    """
    b = 2 * r - m
    root = math.isqrt(b * b + 8 * m * trunc)
    return [(n, e) for n in range((-b - root) // (2 * m) - 1, (root - b) // (2 * m) + 2)
            if (e := (m * n * n + b * n) // 2) <= trunc]


def _theta_series(m: int, r: int, trunc: int) -> tuple[list[int], list[int]]:
    """theta(m, r) through q^trunc as the exponents (plus, minus) of its terms
    of even n != 0 and of odd n, the lists that
    :func:`~qsip.series.sparse_multiply` and
    :func:`~qsip.series.sparse_divide` take."""
    terms = theta_terms(m, r, trunc)
    return [e for n, e in terms if n and not n % 2], [e for n, e in terms if n % 2]


def eta_theta_quotient(factors: Iterable[tuple[PochSpec, int]]) -> dict[tuple[int, int], int]:
    """The product of the (spec, power) pairs that :func:`poch_product`
    takes, as a quotient of theta series: {(m, r): power} for the product
    of theta(m, r)^power (:func:`theta_terms`), with (q^k; q^k)_infinity
    written theta(3k, k).

    With M the lcm of the steps, a sign -1 spec being (q^2o; q^2s) /
    (q^o; q^s), the list is a product of (q^r; q^M)_infinity^(a_r) over
    r = 1..M.  It takes out (q; q)_infinity^c, the product of all M of
    them, for the c that leaves the fewest sparse passes (ties go to c = -1,
    whose 1/(q; q)_infinity is the shared :func:`partition_row`).  Then
    residues r and M - r pair into theta(M, r) / (q^M; q^M)_infinity,
    (q^(M/2); q^M)_infinity is (q^(M/2); q^(M/2))_infinity /
    (q^M; q^M)_infinity and residue M is (q^M; q^M)_infinity itself.
    A marked spec, an offset outside 1..step, a power other than +-1 and
    residues r, M - r of unequal exponents raise ValueError; an offset of 0
    or less raises :class:`DivergentProduct`.
    """
    plain = []   # (offset, step, power) of each unsigned (q^o; q^s)^power
    for spec, power in factors:
        if spec.marker is not None:
            raise ValueError(f"marker {spec.marker!r}: theta quotients are marker-free")
        if spec.offset <= 0:
            raise DivergentProduct(
                f"factor q-exponent {spec.offset} <= 0 in an infinite product"
            )
        if spec.offset > spec.step:
            raise ValueError(f"offset {spec.offset} outside 1..{spec.step}")
        if power not in (1, -1):
            raise ValueError(f"power must be 1 or -1, got {power}")
        if spec.sign == 1:
            plain.append((spec.offset, spec.step, power))
        else:
            plain += [(2 * spec.offset, 2 * spec.step, power), (spec.offset, spec.step, -power)]
    m = math.lcm(*(s for _, s, _ in plain))
    exps = [0] * (m + 1)   # exps[r] is the power of (q^r; q^m), r = 1..m
    for o, s, power in plain:
        for r in range(o, m + 1, s):
            exps[r] += power
    for r in range(1, (m + 1) // 2):
        if exps[r] != exps[m - r]:
            raise ValueError(f"(q^{r}; q^{m}) to the power {exps[r]} and (q^{m - r}; q^{m}) "
                             f"to the power {exps[m - r]} do not pair into theta series")

    half = range(1, m // 2 + 1)
    keys = [(3 * r, r) if 2 * r == m else (m, r) for r in half]

    def quotient(c: int) -> dict[tuple[int, int], int]:
        out = {(3, 1): c}
        for key, r in zip(keys, half):
            out[key] = out.get(key, 0) + exps[r] - c
        # each theta(m, r) and each (q^(m/2); q^(m/2)) holds one (q^m; q^m) too many
        top = (3 * m, m)
        out[top] = out.get(top, 0) + exps[m] - c - sum(exps[r] - c for r in half)
        return {key: power for key, power in out.items() if power}

    options = [(c, quotient(c)) for c in sorted({-1, *exps[1:]})]
    _, best = min(options, key=lambda pair: (sum(map(abs, pair[1].values())), abs(pair[0] + 1)))
    return dict(sorted(best.items()))


@lru_cache(maxsize=64)
def _quotient_of(factors: tuple[tuple[PochSpec, int], ...]) -> tuple:
    """:func:`eta_theta_quotient` once per factor tuple, cached as its
    immutable ((m, r), power) items."""
    return tuple(eta_theta_quotient(factors).items())


@lru_cache(maxsize=64)
def partition_row(trunc: int) -> tuple[int, ...]:
    """p(0), ..., p(trunc), the row of 1/(q; q)_infinity, cached: Euler's
    pentagonal recurrence, one :func:`~qsip.series.sparse_divide` pass."""
    coeffs = [1] + [0] * trunc   # first, so a size too large to hold fails before any term
    sparse_divide(coeffs, *_theta_series(3, 1, trunc))
    return tuple(coeffs)


def eta_theta_product(factors: Iterable[tuple[PochSpec, int]], trunc: int) -> QSeries:
    """The product that :func:`poch_product` builds from the same (spec,
    power) pairs, exact to ``trunc``, by its theta quotient
    (:func:`eta_theta_quotient`, whose ValueError it raises for a list that
    has none): each numerator is one :func:`~qsip.series.sparse_multiply`
    pass and each denominator one :func:`~qsip.series.sparse_divide` pass,
    O(trunc^1.5) in all, and one 1/(q; q)_infinity is the cached
    :func:`partition_row`.  The quotient is computed once per factor list
    (:func:`_quotient_of`), and each call edits a dict of its own.  It
    shares no code with :func:`poch_product`, which tests it."""
    quotient = dict(_quotient_of(tuple((spec, power) for spec, power in factors)))
    if trunc < 0:
        raise ValueError("truncation order must be non-negative")
    coeffs = [0] * (trunc + 1)   # first, so a size too large to hold fails before any term
    if quotient.get((3, 1), 0) < 0:
        coeffs[:] = partition_row(trunc)
        quotient[3, 1] += 1
    else:
        coeffs[0] = 1
    for (m, r), power in quotient.items():
        terms = _theta_series(m, r, trunc) if power else ()
        for _ in range(abs(power)):
            (sparse_multiply if power > 0 else sparse_divide)(coeffs, *terms)
    return QSeries._make({(): coeffs}, trunc, ())
