"""Constructors for standard q-objects.

Finite and infinite q-Pochhammer products, Gaussian (q-binomial)
polynomials, congruence-restricted partition products, q-hypergeometric
sums, Andrews-Gordon multisums and two-sided theta sums.  Everything is
exact integer arithmetic on :class:`~qsip.series.QSeries` values, except
that Gaussian binomials are cached as immutable int rows
(:func:`binomial_row`) for the int-row builders; :func:`gaussian_binomial`
wraps a row as a series.  Every unmarked product, Gaussian binomials
included, is one loop, :meth:`PochSpec.apply`, of one factor kernel,
:func:`~qsip.series.binomial_factor`, which multiplies or divides one int
list by a single factor 1 + c*q^e in O(trunc).  Every sum is one or more
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
from operator import add, neg
from typing import Iterable

from .series import QSeries, _nested_sum, _shifted, binomial_factor


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


def _expand(rows: dict[tuple[int, ...], list[int]], spec: PochSpec, count: int | None,
            power: int, i: int, size: int) -> dict[tuple[int, ...], list[int]]:
    """The rows times the first ``count`` factors of marked spec (all of them
    for None) to the power 1 or -1, x the marker at key index i.

    By the q-binomial theorem (Andrews 1976, Thm 2.1 and Cor. 2.2), with
    sign s, offset o, step d and count n, the x^k row of the product comes
    from its x^(k-1) row:

        power 1:   row_k = row_(k-1) * (-s) q^(o + d(k-1)) (1 - q^(d(n-k+1))) / (1 - q^(dk)),
        power -1:  row_k = row_(k-1) * s q^o / (1 - q^(dk)),

    with no numerator factor for n = None and no row past k = n; a divided
    spec is infinite (no caller divides by a finite product).  Each step
    is one shift cut at ``size``, a negation when the sign asks for one and
    one or two :func:`~qsip.series.binomial_factor` calls, so every row stays
    exact.  Every row of ``rows`` starts a chain of such rows at key + k*e_i;
    rows that land on one key add.  A chain ends when its shift passes the
    cut or its row is zero.
    """
    o, d = spec.offset, spec.step
    negate = spec.sign == power
    out: dict[tuple[int, ...], list[int]] = {}
    for key, row in rows.items():
        k = 0
        while True:
            target = key[:i] + (key[i] + k,) + key[i + 1:]
            have = out.get(target)
            if have is None:
                out[target] = row
            else:
                have[:] = map(add, have, row)
            k += 1
            shift = o + d * (k - 1) if power == 1 else o
            if (count is not None and k > count) or shift >= size or not any(row):
                break
            tail = row[:size - shift]
            row = [0] * shift + (list(map(neg, tail)) if negate else tail)
            if power == 1 and count is not None:
                binomial_factor(row, -1, d * (count - k + 1))
            binomial_factor(row, -1, d * k, -1)
    return out


def _product(factors: list[tuple[PochSpec, int | None, int]], size: int,
             trunc: int | None, markers: tuple[str, ...]) -> QSeries:
    """Product over (spec, count, power) triples of the first ``count``
    factors of spec (all of them for None) to the power 1 or -1.

    Every list holds ``size`` coefficients; the result is cut at ``trunc``,
    or is an exact polynomial for None, which the lists must then hold
    whole.  Each unmarked spec is applied to one int list by
    :meth:`PochSpec.apply`.  Each marked spec then expands every monomial
    row into its rows by marker degree (:func:`_expand`), so no two series
    are ever multiplied.
    """
    plain = [1] + [0] * (size - 1)
    for spec, count, power in factors:
        if spec.marker is None:
            spec.apply(plain, count, power)
        elif spec.marker not in markers:
            raise ValueError(f"marker {spec.marker!r} not in registry {markers}")
    rows = {(0,) * len(markers): plain}
    for spec, count, power in factors:
        if spec.marker is not None:
            rows = _expand(rows, spec, count, power, markers.index(spec.marker), size)
    return QSeries._make(rows, trunc, markers)


def poch_finite(spec: PochSpec, n: int, trunc: int | None = None,
                markers: Iterable[str] | None = None) -> QSeries:
    """The n-factor Pochhammer product for ``spec``; n = 0 is the empty product.

    Without ``trunc`` the result is an exact polynomial.  The marker
    registry defaults to the spec's marker, if any.
    """
    if n < 0:
        raise ValueError("factor count must be non-negative")
    if n and spec.offset < 0:
        raise ValueError(f"factor q-exponent {spec.offset} < 0")
    if markers is None:
        markers = () if spec.marker is None else (spec.marker,)
    degree = n * spec.offset + spec.step * (n * (n - 1) // 2)
    size = degree + 1 if trunc is None else trunc + 1
    return _product([(spec, n, 1)], size, trunc, tuple(markers))


def poch_product(factors: Iterable[tuple[PochSpec, int]], trunc: int,
                 markers: Iterable[str] | None = None) -> QSeries:
    """Product of infinite Pochhammers (spec; .)^power over (spec, power) pairs.

    ``power`` is 1 or -1.  Exact to ``trunc``: factors whose q-exponent
    exceeds ``trunc`` are dropped (they cannot change any retained
    coefficient, since each contributes only exponents >= its own).  Every
    factor needs q-exponent at least 1.  The marker registry defaults to the
    sorted markers of the specs.  Unmarked specs step one int list; each
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
    if markers is None:
        markers = sorted({spec.marker for spec, _ in factors} - {None})
    return _product([(spec, None, power) for spec, power in factors],
                    trunc + 1, trunc, tuple(markers))


def poch_infinite(spec: PochSpec, trunc: int, markers: Iterable[str] | None = None) -> QSeries:
    """The infinite Pochhammer product, exact to ``trunc``."""
    return poch_product([(spec, 1)], trunc, markers)


# binomial_row's two specs, built once each: a spec is immutable, and building
# one costs more than the lookup
_poch = lru_cache(maxsize=4096)(PochSpec)


@lru_cache(maxsize=4096)
def binomial_row(a: int, b: int, *, base: int = 1) -> tuple[int, ...]:
    """Gaussian binomial [a, b] in base q^base as an immutable int row
    through its degree base*b*(a-b), cached; () where it is zero.

    Zero-extended: the row is empty whenever b < 0 or b > a.  With
    b = min(b, a - b) it is its definition
    (q^(base*(a-b+1)); q^base)_b / (q^base; q^base)_b on one int list cut
    at the degree base*b*(a-b): the quotient is that polynomial, so the cut
    loses nothing.  ``base`` is keyword-only, so each row has one cache key.
    """
    if base < 1:
        raise ValueError("base step must be a positive integer")
    if b < 0 or b > a:
        return ()
    b = min(b, a - b)
    coeffs = _poch(base * (a - b + 1), base).apply([1] + [0] * (base * b * (a - b)), b)
    return tuple(_poch(base, base).apply(coeffs, b, -1))


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


def theta_sum(quad: int, lin: int, trunc: int, alternating: bool = False) -> QSeries:
    """Two-sided theta sum over n of (+-1)^n q^(quad*n^2 + lin*n), truncated.

    ``alternating`` selects the (-1)^n sign; the plain sum uses +1.  All
    exponents within the summation window must be non-negative (Laurent
    tails are out of scope).
    """
    if quad < 1:
        raise ValueError("quadratic coefficient must be at least 1")
    if trunc < 0:
        raise ValueError("truncation order must be non-negative")
    coeffs = [0] * (trunc + 1)
    bound = (math.isqrt(lin * lin + 4 * quad * trunc) + abs(lin)) // (2 * quad) + 2
    for n in range(-bound, bound + 1):
        exp = quad * n * n + lin * n
        if exp > trunc:
            continue
        if exp < 0:
            raise ValueError(f"negative exponent {exp} at n={n}; not a power series")
        coeffs[exp] += -1 if (alternating and n % 2) else 1
    return QSeries._make({(): coeffs}, trunc, ())
