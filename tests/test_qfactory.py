"""q-object constructors against independent expansions and enumerations."""

import itertools
import math
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from qsip.partitions import counting_series, enumerate_partitions
from qsip.qfactory import (CongruenceProductSpec, DivergentProduct, PochSpec,
                           binomial_row, congruence_product, gaussian_binomial,
                           poch_finite, poch_infinite, poch_product, series_sum)
from qsip.series import QSeries

ONES = PochSpec(1, 1)


def pentagonal_expansion(trunc):
    """Euler's expansion of (q; q): signs at generalized pentagonal numbers."""
    coeffs = [0] * (trunc + 1)
    k = 0
    while k * (3 * k - 1) // 2 <= trunc or k * (3 * k + 1) // 2 <= trunc:
        for exp in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if exp <= trunc:
                coeffs[exp] += (-1) ** k
        k += 1
    # k = 0 contributes twice above; fix the double count
    coeffs[0] -= 1
    return QSeries(coeffs, trunc=trunc)


class TestPochFinite:
    def test_empty_product(self):
        assert poch_finite(ONES, 0) == QSeries.one()

    def test_two_factors(self):
        assert poch_finite(ONES, 2) == QSeries([1, -1, -1, 1])

    def test_plus_signs(self):
        got = poch_finite(PochSpec(1, 2, sign=-1), 2)
        assert got == QSeries([1, 1, 0, 1, 1])

    def test_zero_offset_allowed_finite(self):
        # (1 + 1)(1 + q), the doubling prefactor of overpartition sums
        got = poch_finite(PochSpec(0, 1, sign=-1), 2)
        assert got == QSeries([2, 2])


class TestPochInfinite:
    def test_pentagonal(self):
        assert poch_infinite(ONES, 10) == pentagonal_expansion(10)

    def test_distinct_parts(self):
        got = poch_infinite(PochSpec(1, 1, sign=-1), 5)
        oracle = counting_series(
            enumerate_partitions(5, lambda p: len(set(p)) == len(p)), 5)
        assert got == oracle
        assert got.int_coefficients(5) == [1, 1, 1, 2, 2, 3]

    def test_beyond_truncation_is_one(self):
        assert poch_infinite(PochSpec(100, 1), 10) == QSeries.one(10)

    def test_divergent(self):
        with pytest.raises(DivergentProduct):
            poch_infinite(PochSpec(0, 1), 10)


# -- the grouped marker product against a polynomial reference ---------------
#
# The reference keeps one dense list of polynomial coefficients and multiplies
# it by each factor 1 + c*q^e, or by the inverse sum over m of (-c)^m q^(m e),
# with the polynomial helpers of tests/reference.py only; it shares no code
# with the row kernel.

def reference_product(factors, trunc, markers, count=None):
    """The first ``count`` factors of each spec (all for None) through q^trunc,
    each coefficient a {exponent tuple: int} polynomial."""
    one = {(0,) * len(markers): 1}
    coeffs = [one] + [{}] * trunc
    for spec, power in factors:
        exps = tuple(int(m == spec.marker) for m in markers)
        c = {exps: -spec.sign}
        for e in range(spec.offset, trunc + 1, spec.step)[:count]:
            if power == 1:
                terms = [(0, one), (e, c)]
            else:
                terms, t = [], one
                for m in range(trunc // e + 1):
                    terms.append((m * e, t))
                    t = reference.poly_mul(t, reference.poly_scale(c, -1))
            coeffs = [reference.poly_add(*(reference.poly_mul(coeffs[n - s], t)
                                           for s, t in terms if s <= n))
                      for n in range(trunc + 1)]
    return coeffs


@st.composite
def product_case(draw):
    """Factor lists over the markers u and v, or over u alone, or unmarked."""
    used = draw(st.sampled_from([(), ("u",), ("u", "v")]))
    spec = st.builds(PochSpec, st.one_of(st.integers(1, 5), st.integers(6, 45)),
                     st.integers(1, 4), st.sampled_from([1, -1]),
                     st.sampled_from((None,) + used))
    factors = draw(st.lists(st.tuples(spec, st.sampled_from([1, -1])), max_size=4))
    return factors, draw(st.sampled_from([0, 1, 2, 3, 40]))


U3, V3 = PochSpec(1, 3, sign=-1, marker="u"), PochSpec(2, 3, sign=-1, marker="v")


@given(product_case())
@settings(max_examples=60, deadline=None)
@example(([(U3, 1), (PochSpec(2, 2, marker="u"), -1)], 40))
@example(([(U3, 1), (V3, -1), (ONES, -1), (PochSpec(2, 3, sign=-1), 1)], 40))
@example(([(U3, -1), (PochSpec(1, 1, marker="u"), 1)], 40))
@example(([(U3, 1), (V3, 1)], 3))
@example(([(PochSpec(1, 2, marker="u"), -1), (PochSpec(2, 3, sign=-1, marker="u"), -1)], 40))
# a repeated marker at the cut: each chain of the second u spec stops at its first row
@example(([(U3, 1), (PochSpec(1, 1, marker="u"), -1), (V3, -1)], 0))
def test_grouped_product_matches_reference(case):
    factors, trunc = case
    got = poch_product(factors, trunc)
    registry = tuple(sorted({spec.marker for spec, _ in factors} - {None}))
    assert got.trunc == trunc and got.markers == registry
    expected = reference_product(factors, trunc, registry)
    assert [got.coefficient(n).terms for n in range(trunc + 1)] == expected


@pytest.mark.parametrize("trunc", [None, 0, 3, 12])
def test_marked_finite_product_matches_reference(trunc):
    # offsets 5 and 9 put factor exponents past the cuts 0, 3 and 12
    for n, offset, step, sign, marker in itertools.product(
            range(7), (0, 1, 5, 9), (1, 3), (1, -1), ("u", "v")):
        spec = PochSpec(offset, step, sign, marker)
        got = poch_finite(spec, n, trunc)
        degree = n * offset + step * n * (n - 1) // 2
        cut = degree if trunc is None else trunc
        assert got.trunc == trunc and got.markers == (marker,)
        expected = reference_product([(spec, 1)], cut, (marker,), count=n)
        assert [got.coefficient(k).terms for k in range(cut + 1)] == expected


@given(st.builds(PochSpec, st.integers(0, 9), st.integers(1, 4), st.sampled_from([1, -1]),
                 st.sampled_from(["u", "v"])),
       st.integers(0, 9), st.sampled_from([None, 0, 3, 12, 40]))
@settings(max_examples=60, deadline=None)
# the x^n row, the last one by count, has its least exponent n*o + s*n(n-1)/2
# exactly at the cut: 3 + 9 = 12 and 8 + 6 = 14
@example(U3, 3, 12)
@example(PochSpec(2, 1, marker="v"), 4, 14)
def test_marked_finite_chain_matches_reference(spec, n, trunc):
    got = poch_finite(spec, n, trunc)
    degree = n * spec.offset + spec.step * n * (n - 1) // 2
    cut = degree if trunc is None else trunc
    assert got.trunc == trunc and got.markers == (spec.marker,)
    expected = reference_product([(spec, 1)], cut, (spec.marker,), count=n)
    assert [got.coefficient(k).terms for k in range(cut + 1)] == expected


def distinct_mod3_table(trunc):
    """Partitions into distinct parts not divisible by 3, counted by parts
    = 1 (mod 3), parts = 2 (mod 3) and total through q^trunc: a 0/1 knapsack
    on plain int lists, one per (u-count, v-count), sharing no code with the
    package.  Sources run from the largest key down, so each part is used
    at most once."""
    table = {(0, 0): [1] + [0] * trunc}
    for p in range(1, trunc + 1):
        if p % 3:
            du, dv = (1, 0) if p % 3 == 1 else (0, 1)
            for (a, b), row in sorted(table.items(), reverse=True):
                if any(row[:trunc + 1 - p]):
                    dest = table.setdefault((a + du, b + dv), [0] * (trunc + 1))
                    dest[p:] = map(add, dest[p:], row)
    return {key: row for key, row in table.items() if any(row)}


def test_schur_product_matches_knapsack():
    # (-uq; q^3)(-vq^2; q^3): u marks the parts = 1 and v the parts = 2 (mod 3)
    got = poch_product([(U3, 1), (V3, 1)], 300)
    assert got.markers == ("u", "v")
    assert got.monomial_rows(300) == distinct_mod3_table(300)


def reference_apply(coeffs, spec, count, power):
    """The list times the first ``count`` factors (1 - sign*q^e) of an
    unmarked spec (all of them for None) to the power 1 or -1, cut at the
    list's end: a schoolbook product with the factor, or with its geometric
    series sum over k of (sign*q^e)^k for power -1.  It shares no code with
    the factor kernel."""
    size, out, j = len(coeffs), list(coeffs), 0
    while count is None or j < count:
        e = spec.factor_exponent(j)
        if e >= size:
            break
        if power == 1:
            factor = [(0, 1), (e, -spec.sign)]
        else:
            factor = [(k * e, spec.sign ** k) for k in range((size - 1) // e + 1)]
        new = [0] * size
        for i, x in enumerate(out):
            for d, c in factor:
                if i + d < size:
                    new[i + d] += x * c
        out, j = new, j + 1
    return out


@st.composite
def apply_case(draw):
    """An unmarked spec, a count (None for every factor), a power (division
    only by factors of q-exponent >= 1) and a list of 0..40 coefficients."""
    power = draw(st.sampled_from([1, -1]))
    spec = PochSpec(draw(st.integers(1 if power == -1 else 0, 6)), draw(st.integers(1, 5)),
                    draw(st.sampled_from([1, -1])))
    count = draw(st.one_of(st.none(), st.integers(0, 8)))
    return spec, count, power, draw(st.lists(st.integers(-5, 5), max_size=40))


@given(apply_case())
@settings(max_examples=150, deadline=None)
# eight factors asked for, three below the list's end: q^3, q^7 and q^11
@example((PochSpec(3, 4), 8, 1, [1] + [0] * 12))
@example((PochSpec(3, 4, sign=-1), 8, -1, [1] + [0] * 12))
@example((PochSpec(0, 2, sign=-1), None, 1, [1, 2, 3]))
@example((PochSpec(1, 1), None, -1, []))
def test_apply_matches_plain_polynomial_reference(case):
    spec, count, power, coeffs = case
    out = list(coeffs)
    assert spec.apply(out, count, power) is out
    assert out == reference_apply(coeffs, spec, count, power)


def test_apply_rejects_negative_count():
    for count in (-1, -5):
        with pytest.raises(ValueError, match="non-negative"):
            ONES.apply([1, 0, 0, 0], count)
    # (1 - q)(1 - q^2)(1 - q^3) cut at q^3; no factor lies past them
    assert ONES.apply([1, 0, 0, 0], 10) == ONES.apply([1, 0, 0, 0], None) == [1, -1, -1, 0]


def test_sums_and_plain_lists_reject_markers():
    marked = PochSpec(1, 1, marker="u")
    with pytest.raises(ValueError):
        series_sum((2, 0), [marked], [], 10)
    with pytest.raises(ValueError):
        series_sum((2, 0), [], [ONES, marked], 10)
    with pytest.raises(ValueError):
        marked.apply([1, 0, 0], 2)


def test_product_rejects_bad_factors():
    with pytest.raises(DivergentProduct):
        poch_product([(PochSpec(0, 3, sign=-1, marker="u"), 1)], 10)
    with pytest.raises(ValueError):
        poch_product([(PochSpec(1, 3, marker="u"), 2)], 10)


def pascal_table(a_max, base):
    """[a, b] in base q^base for 0 <= b <= a <= a_max as plain int lists,
    bottom-up by [a, b] = [a-1, b-1] + q^(base*b) [a-1, b]; it shares no
    code with the factor kernels."""
    table = {(0, 0): [1]}
    for a in range(1, a_max + 1):
        for b in range(a + 1):
            upper = [0] * (base * b) + table.get((a - 1, b), [])
            table[a, b] = [x + y for x, y in itertools.zip_longest(
                table.get((a - 1, b - 1), []), upper, fillvalue=0)]
    return table


class TestGaussianBinomial:
    def test_column_zero(self):
        for a in range(6):
            assert gaussian_binomial(a, 0) == QSeries.one()

    def test_small_value(self):
        assert gaussian_binomial(2, 1, base=2) == QSeries([1, 0, 1])

    def test_zero_extension(self):
        assert gaussian_binomial(3, -1, base=3) == QSeries.zero()
        assert gaussian_binomial(3, 4, base=3) == QSeries.zero()

    @pytest.mark.parametrize("base", [1, 2, 3, 4])
    def test_pascal_recurrences(self, base):
        for a in range(1, 11):
            for b in range(0, a + 1):
                gb = gaussian_binomial(a, b, base=base)
                down_b = gaussian_binomial(a - 1, b - 1, base=base)
                keep_b = gaussian_binomial(a - 1, b, base=base)
                assert gb == down_b + QSeries.monomial(base * b) * keep_b
                assert gb == keep_b + QSeries.monomial(base * (a - b)) * down_b

    def test_base_is_keyword_only(self):
        # so each row has one cache key, as for binomial_row
        with pytest.raises(TypeError):
            gaussian_binomial(5, 2, 3)
        gaussian_binomial.cache_clear()
        first = gaussian_binomial(5, 2, base=3)
        assert gaussian_binomial(5, 2, base=3) is first
        info = gaussian_binomial.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_symmetry(self):
        for a in range(11):
            for b in range(a + 1):
                assert gaussian_binomial(a, b) == gaussian_binomial(a, a - b)

    @pytest.mark.parametrize("b", [1, 3, 1099])
    def test_deep_row_at_one(self, b):
        # a row longer than the interpreter's recursion limit; b = 1099 runs
        # as its mirror b = 1
        total = sum(gaussian_binomial(1100, b).int_coefficients(b * (1100 - b)))
        assert total == math.comb(1100, b)

    @pytest.mark.parametrize("b", [1, 2])
    def test_row_far_past_the_recursion_limit(self, b):
        total = sum(gaussian_binomial(70000, b).int_coefficients(b * (70000 - b)))
        assert total == math.comb(70000, b)

    @pytest.mark.parametrize("base", [1, 2, 3, 4])
    def test_matches_pascal_table(self, base):
        table = pascal_table(24, base)
        for a in range(25):
            for b in range(-1, a + 2):
                assert gaussian_binomial(a, b, base=base) == QSeries(table.get((a, b), []))

    def test_counts_at_one(self):
        # evaluating at q = 1 recovers the ordinary binomial coefficient
        for a in range(9):
            for b in range(a + 1):
                total = sum(gaussian_binomial(a, b).int_coefficients(b * (a - b)))
                assert total == math.comb(a, b)


class TestBinomialRow:
    @pytest.mark.parametrize("base", [1, 2, 3, 4])
    def test_matches_pascal_table(self, base):
        table = pascal_table(14, base)
        for a in range(15):
            for b in range(-1, a + 2):
                want = table.get((a, b), [])
                while want and not want[-1]:  # [a, a] carries zeros past degree 0
                    want = want[:-1]
                row = binomial_row(a, b, base=base)
                assert type(row) is tuple and row == tuple(want)
                assert all(type(c) is int for c in row)
                if row:
                    assert len(row) == base * b * (a - b) + 1
                assert binomial_row(a, b, base=base) is row
                assert gaussian_binomial(a, b, base=base) == QSeries(list(row))

    def test_cache_sizes(self):
        assert binomial_row.cache_info().maxsize == 4096

    def test_base_is_keyword_only(self):
        # so the cache cannot hold one row under two keys
        with pytest.raises(TypeError):
            binomial_row(3, 1, 2)
        assert gaussian_binomial.cache_info().maxsize == 4096

    def test_rejects_base_below_one(self):
        with pytest.raises(ValueError):
            binomial_row(3, 1, base=0)
        with pytest.raises(ValueError):
            gaussian_binomial(3, 1, base=0)


class TestCongruenceProduct:
    def test_all_parts(self):
        spec = CongruenceProductSpec(1, frozenset(), "excluded")
        got = congruence_product(spec, 8)
        oracle = counting_series(enumerate_partitions(8), 8)
        assert got == oracle
        assert got.coefficient(5) == 7

    def test_mod8_allowed(self):
        spec = CongruenceProductSpec(8, frozenset({0, 2, 3, 4, 7}), "allowed")
        assert congruence_product(spec, 10).coefficient(10) == 8

    def test_mod16_allowed(self):
        spec = CongruenceProductSpec(16, frozenset({2, 3, 4, 5, 11, 12, 13, 14}),
                                     "allowed")
        assert congruence_product(spec, 10).coefficient(10) == 7

    def test_inverse_of_euler_product(self):
        spec = CongruenceProductSpec(1, frozenset({0}), "allowed")
        prod = poch_infinite(ONES, 50) * congruence_product(spec, 50)
        assert prod == QSeries.one(50)

    def test_residue_validation(self):
        with pytest.raises(ValueError):
            CongruenceProductSpec(8, frozenset({9}), "allowed")


class TestThetaSum:
    def test_triple_product(self):
        t = 40
        prod = (poch_infinite(PochSpec(4, 4), t)
                * poch_infinite(PochSpec(1, 4, sign=-1), t)
                * poch_infinite(PochSpec(3, 4, sign=-1), t))
        assert prod.int_coefficients(t) == reference.theta_sum(2, -1, t)

    def test_triple_product_alternating(self):
        t = 40
        prod = (poch_infinite(PochSpec(4, 4), t)
                * poch_infinite(PochSpec(1, 4), t)
                * poch_infinite(PochSpec(3, 4), t))
        assert prod.int_coefficients(t) == reference.theta_sum(2, -1, t, alternating=True)

    def test_triple_product_wide_step(self):
        t = 40
        prod = (poch_infinite(PochSpec(16, 16), t)
                * poch_infinite(PochSpec(6, 16, sign=-1), t)
                * poch_infinite(PochSpec(10, 16, sign=-1), t))
        assert prod.int_coefficients(t) == reference.theta_sum(8, -2, t)


def test_distinct_nonmultiples_of_three_product():
    # (1 + q^(3n-1))(1 + q^(3n-2)) over n equals 1 / ((q; q^6)(q^5; q^6))
    t = 40
    lhs = poch_infinite(PochSpec(1, 3, sign=-1), t) \
        * poch_infinite(PochSpec(2, 3, sign=-1), t)
    rhs = (poch_infinite(PochSpec(1, 6), t)
           * poch_infinite(PochSpec(5, 6), t)).inverse(t)
    assert lhs == rhs
