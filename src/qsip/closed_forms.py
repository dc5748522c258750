"""Closed-form expressions for basis-row generating functions.

Each function here gives an explicit polynomial (monomials times Gaussian
binomials) for a family of basis-table entries, plus the two q-binomial
summation lemmas used to collapse them.  All Gaussian binomials follow the
zero-extended convention ([a, b] = 0 for b < 0 or b > a); sum ranges are
written wide and rely on that zero extension, so boundary terms that the
convention cannot express are added explicitly where noted.  Every formula
is validated coefficientwise against the recurrence-built tables in the
test suite; where several transcriptions of a formula circulate, the one
implemented here is the one that fits the tables.

Values are built on plain int rows that start at their first nonzero: a
term q^e [a, b] [c, d] ... convolves the cached int rows of its Gaussian
binomials (:func:`~qsip.qfactory.binomial_row`, immutable tuples) into one
product row (``_product_row``) that starts at q^e, and the terms of each
marker monomial u^i v^j are summed once at their exponents (``_sum_exact``;
a single shifted row is ``_shifted``).  Those (start, row) pairs go to
``QSeries._make``, which trims them with no second type scan or copy, so
no row carries a zero prefix, and a coefficient becomes a polynomial only
where a caller reads one off the returned series.  The Schur double sum
S1(n, h) feeds all three Schur branches and S2's unrolled levels, so it is
built once per (n, h) and cached as immutable (start, tuple) rows
(``_schur_s1``); a caller that hands them to ``QSeries._make`` copies
them into fresh lists first.
"""

from __future__ import annotations

from functools import lru_cache

from .qfactory import PochSpec, binomial_row
from .series import QSeries, _convolve_into, _nested_sum, _product_row, _shifted, _sum_exact

SCHUR_MARKERS = ("u", "v")


def gollnitz_closed(n: int, h: int) -> QSeries:
    """Basis row value at largest part 2n + 2h - 1 for the gap-2/gap-3 class.

    Equals q^(n^2 + h^2 + 2h) * [n-1, h] in base q^2; the even largest
    parts follow from the doubling relation b(n, 2m) = q b(n, 2m - 1).
    """
    if n < 1 or h < 0:
        raise ValueError("requires n >= 1 and h >= 0")
    return _shifted(n * n + h * h + 2 * h, binomial_row(n - 1, h, base=2))


def schur_closed(n: int, h: int, branch: int) -> QSeries:
    """Marker-weighted basis row value for the threefold-gap class.

    ``branch`` is the residue mod 3 of the largest part: 2 selects largest
    part 3n + 3h - 1, 1 selects 3n + 3h - 2, 0 selects 3n + 3h.  Markers:
    u counts parts congruent to 0 or 1 (mod 3), v parts congruent to 0 or 2.
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    if branch == 2:
        rows = {key: (start, list(row)) for key, (start, row) in _schur_s1(n, h)}
    elif branch == 1:
        rows = _schur_s2(n, h)
    elif branch == 0:  # u q times branch 2
        rows = {(a + 1, b): (start + 1, list(row)) for (a, b), (start, row) in _schur_s1(n, h)}
    else:
        raise ValueError("branch must be 0, 1 or 2 (largest part mod 3)")
    return QSeries._make(rows, None, SCHUR_MARKERS)


@lru_cache(maxsize=1024)
def _schur_s1(n: int, h: int) -> tuple:
    """Rows of the double sum for largest part 3n + 3h - 1 (residue 2):
    u^(j+h-i) v^(n-j) q^e [n-j-1, h] [j+h-i, h] [h, i] in base q^3.

    Built once per (n, h) and cached, as immutable (monomial, (start, int
    tuple)) pairs, each row from its first nonzero; () where every term
    vanishes."""
    groups: dict = {}
    for j in range(0, n + 1):
        outer = binomial_row(n - j - 1, h, base=3)
        if not outer:
            continue
        for i in range(0, h + 1):
            mid = binomial_row(j + h - i, h, base=3)
            inner = binomial_row(h, i, base=3)
            if mid and inner:
                exp = (n * (3 * n + 1) + h * (3 * h + 5) + i * (3 * i + 1)) // 2 - j
                groups.setdefault((j + h - i, n - j), []).append(
                    (exp, _product_row(outer, mid, inner)))
    return tuple((key, (start, tuple(row))) for key, (start, row) in _sum_exact(groups).items())


def _schur_s2(n: int, h: int) -> dict:
    """Rows of the value for largest part 3n + 3h - 2 (residue 1).

    The all-residue-1 chain 1 + 4 + ... + (3n - 2) contributes the isolated
    monomial u^n q^(n(3n-1)/2) when h = 0; everything else unrolls through
    the residue-2 rows one level down:

        (1 + u q) * sum over t >= 1 of
            u^t q^(t(3n + 3h - 2) - 3 t (t - 1) / 2) * S1(n - t, h - 1).

    Each monomial's terms are summed once, at their exponents.
    """
    groups: dict = {}
    if h == 0:
        groups[(n, 0)] = [(n * (3 * n - 1) // 2, [1])]
    for t in range(1, n):
        tail = [(a, b, start, list(row)) for (a, b), (start, row) in _schur_s1(n - t, h - 1)]
        exp = t * (3 * n + 3 * h - 2) - 3 * t * (t - 1) // 2
        for u_exp, shift in ((t, exp), (t + 1, exp + 1)):
            for a, b, start, row in tail:
                groups.setdefault((a + u_exp, b), []).append((start + shift, row))
    return _sum_exact(groups)


def combined_row_formula(n: int, h: int) -> QSeries:
    """The combined row (1 + u q) S1(n, h) + S2(n, h + 1) as one double sum.

    Valid for h >= -1.  At h = -1 the whole expression degenerates to the
    residue-1 chain monomial u^n q^(n(3n-1)/2), a boundary the zero-extended
    binomials cannot express, so it is returned directly.
    """
    if n < 1 or h < -1:
        raise ValueError("requires n >= 1 and h >= -1")
    if h == -1:
        return QSeries._make({(n, 0): (n * (3 * n - 1) // 2, [1])}, None, SCHUR_MARKERS)
    groups: dict = {}
    for j in range(0, n + 1):
        outer = binomial_row(n - 1 - j, h, base=3)
        if not outer:
            continue
        for i in range(-1, h + 1):
            mid = binomial_row(j + h - i, j, base=3)
            inner = binomial_row(j + 1, i + 1, base=3)
            if mid and inner:
                exp = (n * (3 * n + 1) + h * (3 * h + 5) + i * (3 * i + 1)) // 2 - j
                groups.setdefault((j + h - i, n - j), []).append(
                    (exp, _product_row(outer, mid, inner)))
    return QSeries._make(_sum_exact(groups), None, SCHUR_MARKERS)


def glasgow_closed(n: int, largest: int) -> QSeries:
    """Basis row value for the all-parts-at-least-2 mod-8 class, n >= 2 parts.

    Dispatches on the largest part's residue mod 4; each family is a single
    monomial times a base-q^4 Gaussian binomial:

        largest = 4h + 1:  q^(2n + 2h^2 + h)      * [n-2, h-1]
        largest = 4h:      q^(4n + 2h^2 + h - 4)  * [n-2, h-1]
        largest = 4h - 1:  q^(4n + 2h^2 - 3h)     * [n-2, h-2]
        largest = 4h - 2:  q^(2n - 3 + 2h^2 + h)  * [n-2, h-1]
    """
    if n < 2:
        raise ValueError("requires n >= 2; single-part rows are the seed values")
    if largest < 1:
        return QSeries.zero()
    rem = largest % 4
    if rem == 1:
        h = (largest - 1) // 4
        exp, row = 2 * n + 2 * h * h + h, binomial_row(n - 2, h - 1, base=4)
    elif rem == 0:
        h = largest // 4
        exp, row = 4 * n + 2 * h * h + h - 4, binomial_row(n - 2, h - 1, base=4)
    elif rem == 3:
        h = (largest + 1) // 4
        exp, row = 4 * n + 2 * h * h - 3 * h, binomial_row(n - 2, h - 2, base=4)
    else:
        h = (largest + 2) // 4
        exp, row = 2 * n - 3 + 2 * h * h + h, binomial_row(n - 2, h - 1, base=4)
    return _shifted(exp, row)


def glasgow_row_sums(n: int) -> dict[int, QSeries]:
    """Row sums of the mod-8 class basis split by largest part mod 4, n >= 2.

    Keyed by residue: each is a shifted copy of (-q^7; q^4) with n - 2
    factors; their total factors as (-q^3; q^4)_(n-1) q^(2n) (1 + q^(2n-1)).
    """
    if n < 2:
        raise ValueError("requires n >= 2")
    m = n - 2  # factors 1 + q^(7 + 4k) for k < m, of degree 7m + 2m(m - 1)
    tail = [1] + [0] * (7 * m + 2 * m * (m - 1))
    PochSpec(offset=7, step=4, sign=-1).apply(tail, m)
    return {
        1: _shifted(2 * n + 3, tail),
        0: _shifted(4 * n - 1, tail),
        3: _shifted(4 * n + 2, tail),
        2: _shifted(2 * n, tail),
    }


def chu_vandermonde_check(r: int, s: int, n: int) -> bool:
    """Polynomial q-Chu-Vandermonde instance in base q^3, s >= 1.

    Checks sum over h of [s-1, h] [n+1, r-h] q^(3h^2 + 3h(n+1-r))
    against [n+s, r].  The s = 0 boundary is excluded: under the
    zero-extended convention the left side would collapse.
    """
    if r < 0 or n < 0 or s < 1:
        raise ValueError("requires r, n >= 0 and s >= 1")
    terms = []
    for h in range(0, r + 1):
        left = binomial_row(s - 1, h, base=3)
        right = binomial_row(n + 1, r - h, base=3)
        if left and right:
            terms.append((3 * h * h + 3 * h * (n + 1 - r), _product_row(left, right)))
    # no term cancels, so both sides are rows from q^0 through their degree
    lhs = _sum_exact({(): terms})[()] if terms else (0, [])
    return lhs == (0, list(binomial_row(n + s, r, base=3)))


def chu_vandermonde_series_check(r: int, s: int, trunc: int) -> bool:
    """Series-level companion summation in base q^3.

    Checks sum over m of [r, m] [m+s, r] q^(3m^2 + 3m(s-r)) / (q^3; q^3)_(m+s)
    against 1 / ((q^3; q^3)_r (q^3; q^3)_s) to the given truncation.  The
    sum is one :func:`~qsip.series._nested_sum` call: term m + s is
    [r, m] [m+s, r] at its offset (None where it vanishes), and
    g_i = 1/(1 - q^(3(i+1))), so term m + s sits under (q^3; q^3)_(m+s).
    """
    if r < 0 or s < 0:
        raise ValueError("requires r, s >= 0")
    cubes = PochSpec(offset=3, step=3)
    # first, so a size too large to hold fails before any term
    rhs = cubes.apply(cubes.apply([1] + [0] * trunc, r, -1), s, -1)
    terms = [None] * (r + s + 1)
    for m in range(max(r - s, 0), r + 1):   # [m+s, r] vanishes below r - s
        exp = 3 * m * (m + s - r)
        row = [0] * (trunc + 1 - exp)
        _convolve_into(row, binomial_row(r, m, base=3), binomial_row(m + s, r, base=3))
        terms[m + s] = (exp, row)
    factors = [[(-1, 3 * i, -1)] for i in range(1, r + s + 1)]
    return _nested_sum(terms, factors, trunc) == (0, rhs)
