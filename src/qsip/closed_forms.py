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
"""

from __future__ import annotations

from .qfactory import PochSpec, gaussian_binomial, poch_finite
from .series import MarkerPoly, QSeries

SCHUR_MARKERS = ("u", "v")
_U, _V = MarkerPoly.gens(SCHUR_MARKERS)


def _uv_term(u_exp: int, v_exp: int) -> MarkerPoly:
    return MarkerPoly(SCHUR_MARKERS, {(u_exp, v_exp): 1})


def gollnitz_closed(n: int, h: int) -> QSeries:
    """Basis row value at largest part 2n + 2h - 1 for the gap-2/gap-3 class.

    Equals q^(n^2 + h^2 + 2h) * [n-1, h] in base q^2; the even largest
    parts follow from the doubling relation b(n, 2m) = q b(n, 2m - 1).
    """
    if n < 1 or h < 0:
        raise ValueError("requires n >= 1 and h >= 0")
    gb = gaussian_binomial(n - 1, h, base=2)
    return QSeries.monomial(n * n + h * h + 2 * h) * gb


def schur_closed(n: int, h: int, branch: int) -> QSeries:
    """Marker-weighted basis row value for the threefold-gap class.

    ``branch`` is the residue mod 3 of the largest part: 2 selects largest
    part 3n + 3h - 1, 1 selects 3n + 3h - 2, 0 selects 3n + 3h.  Markers:
    u counts parts congruent to 0 or 1 (mod 3), v parts congruent to 0 or 2.
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    if branch == 2:
        return _schur_s1(n, h)
    if branch == 1:
        return _schur_s2(n, h)
    if branch == 0:
        return QSeries.monomial(1, _U, markers=SCHUR_MARKERS) * _schur_s1(n, h)
    raise ValueError("branch must be 0, 1 or 2 (largest part mod 3)")


def _schur_s1(n: int, h: int) -> QSeries:
    """Double sum for largest part 3n + 3h - 1 (residue 2)."""
    if h < 0:
        return QSeries.zero(markers=SCHUR_MARKERS)
    total = QSeries.zero(markers=SCHUR_MARKERS)
    for j in range(0, n + 1):
        outer = gaussian_binomial(n - j - 1, h, base=3)
        if outer == 0:
            continue
        for i in range(0, h + 1):
            mid = gaussian_binomial(j + h - i, h, base=3)
            inner = gaussian_binomial(h, i, base=3)
            if mid == 0 or inner == 0:
                continue
            exp = (n * (3 * n + 1) + h * (3 * h + 5) + i * (3 * i + 1)) // 2 - j
            mono = QSeries.monomial(exp, _uv_term(j + h - i, n - j),
                                    markers=SCHUR_MARKERS)
            total = total + mono * outer * mid * inner
    return total


def _schur_s2(n: int, h: int) -> QSeries:
    """Row value for largest part 3n + 3h - 2 (residue 1).

    The all-residue-1 chain 1 + 4 + ... + (3n - 2) contributes the isolated
    monomial u^n q^(n(3n-1)/2) when h = 0; everything else unrolls through
    the residue-2 rows one level down:

        (1 + u q) * sum over t >= 1 of
            u^t q^(t(3n + 3h - 2) - 3 t (t - 1) / 2) * S1(n - t, h - 1).
    """
    if h < 0:
        return QSeries.zero(markers=SCHUR_MARKERS)
    total = QSeries.zero(markers=SCHUR_MARKERS)
    if h == 0:
        total = QSeries.monomial(n * (3 * n - 1) // 2, _uv_term(n, 0),
                                 markers=SCHUR_MARKERS)
    one_plus_uq = QSeries.one(markers=SCHUR_MARKERS) \
        + QSeries.monomial(1, _U, markers=SCHUR_MARKERS)
    for t in range(1, n):
        tail = _schur_s1(n - t, h - 1)
        if tail == 0:
            continue
        exp = t * (3 * n + 3 * h - 2) - 3 * t * (t - 1) // 2
        mono = QSeries.monomial(exp, _uv_term(t, 0), markers=SCHUR_MARKERS)
        total = total + one_plus_uq * mono * tail
    return total


def combined_row_formula(n: int, h: int) -> QSeries:
    """The combined row (1 + u q) S1(n, h) + S2(n, h + 1) as one double sum.

    Valid for h >= -1.  At h = -1 the whole expression degenerates to the
    residue-1 chain monomial u^n q^(n(3n-1)/2), a boundary the zero-extended
    binomials cannot express, so it is returned directly.
    """
    if n < 1 or h < -1:
        raise ValueError("requires n >= 1 and h >= -1")
    if h == -1:
        return QSeries.monomial(n * (3 * n - 1) // 2, _uv_term(n, 0),
                                markers=SCHUR_MARKERS)
    total = QSeries.zero(markers=SCHUR_MARKERS)
    for j in range(0, n + 1):
        outer = gaussian_binomial(n - 1 - j, h, base=3)
        if outer == 0:
            continue
        for i in range(-1, h + 1):
            mid = gaussian_binomial(j + h - i, j, base=3)
            inner = gaussian_binomial(j + 1, i + 1, base=3)
            if mid == 0 or inner == 0:
                continue
            exp = (n * (3 * n + 1) + h * (3 * h + 5) + i * (3 * i + 1)) // 2 - j
            mono = QSeries.monomial(exp, _uv_term(j + h - i, n - j),
                                    markers=SCHUR_MARKERS)
            total = total + mono * outer * mid * inner
    return total


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
        exp, gb = 2 * n + 2 * h * h + h, gaussian_binomial(n - 2, h - 1, base=4)
    elif rem == 0:
        h = largest // 4
        exp, gb = 4 * n + 2 * h * h + h - 4, gaussian_binomial(n - 2, h - 1, base=4)
    elif rem == 3:
        h = (largest + 1) // 4
        exp, gb = 4 * n + 2 * h * h - 3 * h, gaussian_binomial(n - 2, h - 2, base=4)
    else:
        h = (largest + 2) // 4
        exp, gb = 2 * n - 3 + 2 * h * h + h, gaussian_binomial(n - 2, h - 1, base=4)
    if gb == 0:
        return QSeries.zero()
    return QSeries.monomial(exp) * gb


def glasgow_row_sums(n: int) -> dict[int, QSeries]:
    """Row sums of the mod-8 class basis split by largest part mod 4, n >= 2.

    Keyed by residue: each is a shifted copy of (-q^7; q^4) with n - 2
    factors; their total factors as (-q^3; q^4)_(n-1) q^(2n) (1 + q^(2n-1)).
    """
    if n < 2:
        raise ValueError("requires n >= 2")
    tail = poch_finite(PochSpec(offset=7, step=4, sign=-1), n - 2)
    return {
        1: QSeries.monomial(2 * n + 3) * tail,
        0: QSeries.monomial(4 * n - 1) * tail,
        3: QSeries.monomial(4 * n + 2) * tail,
        2: QSeries.monomial(2 * n) * tail,
    }


def chu_vandermonde_check(r: int, s: int, n: int) -> bool:
    """Polynomial q-Chu-Vandermonde instance in base q^3, s >= 1.

    Checks sum over h of [s-1, h] [n+1, r-h] q^(3h^2 + 3h(n+1-r))
    against [n+s, r].  The s = 0 boundary is excluded: under the
    zero-extended convention the left side would collapse.
    """
    if r < 0 or n < 0 or s < 1:
        raise ValueError("requires r, n >= 0 and s >= 1")
    lhs = QSeries.zero()
    for h in range(0, r + 1):
        left = gaussian_binomial(s - 1, h, base=3)
        right = gaussian_binomial(n + 1, r - h, base=3)
        if left == 0 or right == 0:
            continue
        lhs = lhs + QSeries.monomial(3 * h * h + 3 * h * (n + 1 - r)) * left * right
    return lhs == gaussian_binomial(n + s, r, base=3)


def chu_vandermonde_series_check(r: int, s: int, trunc: int) -> bool:
    """Series-level companion summation in base q^3.

    Checks sum over m of [r, m] [m+s, r] q^(3m^2 + 3m(s-r)) / (q^3; q^3)_(m+s)
    against 1 / ((q^3; q^3)_r (q^3; q^3)_s) to the given truncation.
    """
    if r < 0 or s < 0:
        raise ValueError("requires r, s >= 0")
    cubes = PochSpec(offset=3, step=3)
    lhs = QSeries.zero(trunc)
    for m in range(0, r + 1):
        left = gaussian_binomial(r, m, base=3)
        right = gaussian_binomial(m + s, r, base=3)
        if left == 0 or right == 0:
            continue
        exp = 3 * m * m + 3 * m * (s - r)
        term = (QSeries.monomial(exp, trunc=trunc) * left * right).int_coefficients(trunc)
        lhs = lhs + QSeries(cubes.apply(term, m + s, -1), trunc=trunc)
    rhs = cubes.apply(cubes.apply([1] + [0] * trunc, r, -1), s, -1)
    return lhs.agrees_through(QSeries(rhs, trunc=trunc))
