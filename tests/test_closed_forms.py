"""Closed forms against the recurrence-built tables, plus summation lemmas."""

import pytest

from qsip import closed_forms
from qsip.closed_forms import (chu_vandermonde_check,
                               chu_vandermonde_series_check,
                               combined_row_formula, glasgow_closed,
                               glasgow_row_sums, gollnitz_closed, schur_closed)
from qsip.qfactory import PochSpec, gaussian_binomial, poch_finite
from qsip.series import QSeries
from qsip.sip import GLASGOW, GOLLNITZ_GORDON, SCHUR_REFINED, basis_table

UV = ("u", "v")


def um(exp, u_exp=0, v_exp=0, coeff=1):
    """The exact monomial coeff u^u_exp v^v_exp q^exp."""
    return QSeries.from_rows({(u_exp, v_exp): [0] * exp + [coeff]}, markers=UV)


# -- references: the double sums as QSeries products of monomial terms -------
# They share no code with the int-row builders of qsip.closed_forms.

def ref_shifted_binomial(exp, a, b, base):
    """q^exp [a, b] in base q^base by a dense series multiply."""
    return QSeries.monomial(exp) * gaussian_binomial(a, b, base=base)


def ref_s1(n, h):
    total = QSeries.zero(markers=UV)
    if h < 0:
        return total
    for j in range(0, n + 1):
        for i in range(0, h + 1):
            exp = (n * (3 * n + 1) + h * (3 * h + 5) + i * (3 * i + 1)) // 2 - j
            total = total + um(exp, j + h - i, n - j) \
                * gaussian_binomial(n - j - 1, h, base=3) \
                * gaussian_binomial(j + h - i, h, base=3) \
                * gaussian_binomial(h, i, base=3)
    return total


def ref_s2(n, h):
    total = QSeries.zero(markers=UV)
    if h < 0:
        return total
    if h == 0:
        total = um(n * (3 * n - 1) // 2, n)
    one_plus_uq = QSeries.one(markers=UV) + um(1, 1)
    for t in range(1, n):
        exp = t * (3 * n + 3 * h - 2) - 3 * t * (t - 1) // 2
        total = total + one_plus_uq * um(exp, t) * ref_s1(n - t, h - 1)
    return total


def ref_schur(n, h, branch):
    return {2: ref_s1(n, h), 1: ref_s2(n, h), 0: um(1, 1) * ref_s1(n, h)}[branch]


def ref_combined(n, h):
    if h == -1:
        return um(n * (3 * n - 1) // 2, n)
    total = QSeries.zero(markers=UV)
    for j in range(0, n + 1):
        for i in range(-1, h + 1):
            exp = (n * (3 * n + 1) + h * (3 * h + 5) + i * (3 * i + 1)) // 2 - j
            total = total + um(exp, j + h - i, n - j) \
                * gaussian_binomial(n - 1 - j, h, base=3) \
                * gaussian_binomial(j + h - i, j, base=3) \
                * gaussian_binomial(j + 1, i + 1, base=3)
    return total


class TestReferences:
    def test_schur_rows(self):
        for n in range(1, 7):
            for h in range(-1, 6):
                for branch in (0, 1, 2):
                    assert schur_closed(n, h, branch) == ref_schur(n, h, branch), \
                        (n, h, branch)

    def test_combined_rows(self):
        for n in range(1, 7):
            for h in range(-1, 5):
                assert combined_row_formula(n, h) == ref_combined(n, h), (n, h)

    def test_shifted_binomials(self):
        for n in range(1, 7):
            for h in range(0, 6):
                assert gollnitz_closed(n, h) == \
                    ref_shifted_binomial(n * n + h * h + 2 * h, n - 1, h, 2), (n, h)
        for n in range(2, 7):
            for h in range(1, 6):
                assert glasgow_closed(n, 4 * h + 1) == \
                    ref_shifted_binomial(2 * n + 2 * h * h + h, n - 2, h - 1, 4)
                assert glasgow_closed(n, 4 * h) == \
                    ref_shifted_binomial(4 * n + 2 * h * h + h - 4, n - 2, h - 1, 4)
                assert glasgow_closed(n, 4 * h - 1) == \
                    ref_shifted_binomial(4 * n + 2 * h * h - 3 * h, n - 2, h - 2, 4)
                assert glasgow_closed(n, 4 * h - 2) == \
                    ref_shifted_binomial(2 * n - 3 + 2 * h * h + h, n - 2, h - 1, 4)

    def test_glasgow_row_sums(self):
        for n in range(2, 7):
            tail = poch_finite(PochSpec(7, 4, sign=-1), n - 2)
            want = {1: 2 * n + 3, 0: 4 * n - 1, 3: 4 * n + 2, 2: 2 * n}
            assert glasgow_row_sums(n) == \
                {rem: QSeries.monomial(exp) * tail for rem, exp in want.items()}, n


class TestSchurCache:
    """S1(n, h) is built once per (n, h) and cached; callers copy its rows."""

    GRID = [(n, h, branch) for n in range(1, 7) for h in range(-1, 6) for branch in (2, 1, 0)]

    def test_cold_then_warm_in_reverse(self):
        want = {key: ref_schur(*key) for key in self.GRID}
        closed_forms._schur_s1.cache_clear()
        for key in self.GRID:
            assert schur_closed(*key) == want[key], key
        for key in reversed(self.GRID):
            assert schur_closed(*key) == want[key], key

    def test_bench_grid_builds_each_s1_once(self, monkeypatch):
        cached, keys = closed_forms._schur_s1, set()

        def recording(n, h):
            keys.add((n, h))
            return cached(n, h)

        cached.cache_clear()
        monkeypatch.setattr(closed_forms, "_schur_s1", recording)
        for n in range(1, 9):
            for h in range(12):
                for branch in (0, 1, 2):
                    schur_closed(n, h, branch)
        info = cached.cache_info()
        assert info.misses <= len(keys) and info.hits > 0


class TestGollnitz:
    def test_seed_values(self):
        assert gollnitz_closed(1, 0) == QSeries.monomial(1)
        assert gollnitz_closed(2, 0) == QSeries.monomial(4)

    def test_table_concordance(self):
        tbl = basis_table(GOLLNITZ_GORDON, 8, 60)
        for n in range(1, 9):
            for h in range(0, 23):
                largest = 2 * n + 2 * h - 1
                if largest > 60:
                    continue
                assert gollnitz_closed(n, h) == tbl.entry(n, largest), (n, h)

    def test_beyond_support_is_zero(self):
        assert gollnitz_closed(2, 2) == QSeries.zero()


class TestSchur:
    def test_one_part_row(self):
        assert schur_closed(1, 0, 1) == um(1, u_exp=1)
        assert schur_closed(1, 0, 2) == um(2, v_exp=1)
        assert schur_closed(1, 0, 0) == um(3, u_exp=1, v_exp=1)

    def test_branch_zero_is_uq_shift(self):
        for n in range(1, 5):
            for h in range(0, 4):
                assert schur_closed(n, h, 0) == um(1, u_exp=1) * schur_closed(n, h, 2)

    def test_two_part_numerator(self):
        tbl = basis_table(SCHUR_REFINED, 2, 20)
        expect = (um(5, 2, 0) + um(6, 1, 1) + um(7, 2, 1) + um(7, 0, 2)
                  + um(8, 1, 2) + um(9, 1, 1) + um(10, 2, 1) + um(11, 1, 2)
                  + um(12, 2, 2))
        assert tbl.row_gf(2) == expect

    def test_table_concordance(self):
        tbl = basis_table(SCHUR_REFINED, 8, 80)
        for n in range(1, 9):
            for h in range(0, 12):
                for branch, largest in ((2, 3 * n + 3 * h - 1),
                                        (1, 3 * n + 3 * h - 2),
                                        (0, 3 * n + 3 * h)):
                    if not 1 <= largest <= 80:
                        continue
                    got = schur_closed(n, h, branch)
                    assert got == tbl.entry(n, largest), (n, h, branch)

    def test_deep_table_concordance(self):
        # every largest part up to 150 for n <= 10: h up to 49
        tbl = basis_table(SCHUR_REFINED, 10, 150)
        checked = 0
        for n in range(1, 11):
            for largest in range(3 * n - 2, 151):
                h, rem = divmod(largest - 3 * n + 2, 3)
                branch = (1, 2, 0)[rem]
                assert schur_closed(n, h, branch) == tbl.entry(n, largest), \
                    (n, largest)
                checked += 1
        assert checked == sum(151 - (3 * n - 2) for n in range(1, 11))


class TestCombinedRow:
    def test_matches_branch_combination(self):
        one_uq = QSeries.one(markers=UV) + um(1, u_exp=1)
        for n in range(1, 6):
            for h in range(-1, 5):
                want = schur_closed(n, h + 1, 1)
                if h >= 0:
                    want = want + one_uq * schur_closed(n, h, 2)
                assert combined_row_formula(n, h) == want, (n, h)

    def test_boundary_chain(self):
        for n in range(1, 7):
            assert combined_row_formula(n, -1) == um(n * (3 * n - 1) // 2, u_exp=n)

    def test_reproduces_bivariate_coefficients(self):
        # summing the combined rows against 1/(q^3; q^3)_n and extracting
        # u^r v^s must give q^(r(3r-1)/2 + s(3s+1)/2) / ((q^3)_r (q^3)_s)
        t = 40
        cubes = PochSpec(3, 3)
        total = QSeries.one(t, markers=UV)
        n = 1
        while n * (3 * n - 1) // 2 <= t:
            inner = QSeries.zero(t, markers=UV)
            for h in range(-1, 8):
                if h >= 0 and h * (3 * h + 5) // 2 > t:
                    break
                inner = inner + combined_row_formula(n, h).truncate(t)
            total = total + inner * poch_finite(cubes, n, trunc=t).inverse(t)
            n += 1
        for r in range(4):
            for s in range(4):
                got = total.marker_coefficient({"u": r, "v": s})
                denom = poch_finite(cubes, r, trunc=t) * poch_finite(cubes, s, trunc=t)
                want = QSeries.monomial(
                    r * (3 * r - 1) // 2 + s * (3 * s + 1) // 2,
                    trunc=t) * denom.inverse(t)
                assert got == want, (r, s)


class TestGlasgow:
    def test_two_part_values(self):
        assert glasgow_closed(2, 2) == QSeries.monomial(4)
        assert glasgow_closed(2, 4) == QSeries.monomial(7)
        assert glasgow_closed(2, 5) == QSeries.monomial(7)
        assert glasgow_closed(2, 7) == QSeries.monomial(10)

    def test_beyond_support_is_zero(self):
        assert glasgow_closed(2, 9) == QSeries.zero()
        assert glasgow_closed(2, 11) == QSeries.zero()

    def test_seed_row(self):
        tbl = basis_table(GLASGOW, 1, 10)
        assert tbl.row(1) == {2: QSeries.monomial(2), 3: QSeries.monomial(3)}

    def test_table_concordance(self):
        tbl = basis_table(GLASGOW, 8, 60)
        for n in range(2, 9):
            for largest in range(1, 61):
                assert glasgow_closed(n, largest) == tbl.entry(n, largest), \
                    (n, largest)


class TestGlasgowRowSums:
    def test_two_part_distribution(self):
        sums = glasgow_row_sums(2)
        assert sums[1] == QSeries.monomial(7)
        assert sums[0] == QSeries.monomial(7)
        assert sums[3] == QSeries.monomial(10)
        assert sums[2] == QSeries.monomial(4)

    def test_match_table_rows(self):
        tbl = basis_table(GLASGOW, 8, 70)
        for n in range(2, 9):
            acc = {0: QSeries.zero(), 1: QSeries.zero(),
                   2: QSeries.zero(), 3: QSeries.zero()}
            for (m, h), s in tbl.entries.items():
                if m == n:
                    acc[h % 4] = acc[h % 4] + s
            for rem, want in glasgow_row_sums(n).items():
                assert want == acc[rem], (n, rem)

    def test_total_factors_into_telescoping_numerator(self):
        for n in range(2, 9):
            sums = glasgow_row_sums(n)
            total = sums[0] + sums[1] + sums[2] + sums[3]
            numer = poch_finite(PochSpec(3, 4, sign=-1), n - 1) \
                * QSeries.monomial(2 * n) * QSeries([1] + [0] * (2 * n - 2) + [1])
            assert total == numer, n


class TestChuVandermonde:
    def test_r_zero(self):
        assert chu_vandermonde_check(0, 1, 0)
        assert chu_vandermonde_check(0, 3, 5)

    def test_exhaustive(self):
        for r in range(7):
            for s in range(1, 7):
                for n in range(7):
                    assert chu_vandermonde_check(r, s, n), (r, s, n)

    def test_series_companion(self):
        for r in range(6):
            for s in range(6):
                assert chu_vandermonde_series_check(r, s, 40), (r, s)

    def test_degenerate_column_rejected(self):
        with pytest.raises(ValueError):
            chu_vandermonde_check(2, 0, 2)
