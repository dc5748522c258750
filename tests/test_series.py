"""Core series arithmetic: examples, error contracts, ring properties."""

import math
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from qsip import catalog
from qsip.closed_forms import combined_row_formula, schur_closed
from qsip.partitions import counting_series, enumerate_partitions
from qsip.qfactory import gaussian_binomial
from qsip.series import (MarkerPoly, NonUnitConstantTerm, QSeries,
                         TruncationExceeded, _nested_sum, _shifted, _sum_rows,
                         binomial_factor)
from qsip.sip import SCHUR_REFINED, basis_table, count_class

UV = ("u", "v")
ONE, U, V = {(0, 0): 1}, {(1, 0): 1}, {(0, 1): 1}


def marked(coeffs, trunc=None):
    """The (u, v) series whose coefficient of q^n is the polynomial coeffs[n]."""
    return QSeries.from_rows(reference.poly_rows(coeffs), trunc, UV)


def geometric(trunc):
    return QSeries([1] * (trunc + 1), trunc=trunc)


class TestMarkerPoly:
    def test_zero_terms_dropped(self):
        p = MarkerPoly(UV, {(1, 0): 2, (0, 1): 0})
        assert p.terms == {(1, 0): 2}
        # keys that are equal as tuples merge, and cancel when their sum is zero
        assert MarkerPoly(UV, {(1, 0): 2, range(1, -1, -1): 3}).terms == {(1, 0): 5}
        assert MarkerPoly(UV, {(1, 0): 2, range(1, -1, -1): -2}).terms == {}
        assert MarkerPoly(UV).terms == {}

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            MarkerPoly(UV, {(1,): 1})

    def test_specialize(self):
        p = MarkerPoly(UV, {(1, 1): 3, (1, 0): 2, (0, 0): 1})
        assert p.specialize({"u": 2, "v": 5}) == 30 + 4 + 1
        with pytest.raises(ValueError):
            p.specialize({"u": 2})

    def test_str(self):
        assert str(MarkerPoly(UV, {(1, 2): 2, (0, 0): -1})) in ("-1 + 2*u*v^2", "2*u*v^2 - 1")
        assert str(MarkerPoly(UV)) == "0"


class TestAdd:
    def test_additive_identity(self):
        s = QSeries([1, 2, 3], trunc=2)
        assert QSeries.zero() + s == s
        assert s + 0 == s
        assert 5 - s == QSeries([4, -2, -3], trunc=2)

    def test_min_trunc(self):
        a = QSeries([1, 1, 0, 0, 0, 0], trunc=5)
        b = QSeries([0, 1, 1, 0], trunc=3)
        assert a + b == QSeries([1, 2, 1, 0], trunc=3)

    def test_partition_series_head(self):
        # first three summands of the all-partitions series at trunc 2:
        # q^n / (q;q)_n for n = 0, 1, 2; expected counts computed by the
        # enumeration oracle are p(0), p(1), p(2) = 1, 1, 2
        t = 2
        total = QSeries.one(t)
        denom = QSeries([1, -1, 0], trunc=t)  # (1 - q)
        total = total + QSeries.monomial(1, trunc=t) * denom.inverse()
        denom2 = denom * QSeries([1, 0, -1], trunc=t)  # (1 - q)(1 - q^2)
        total = total + QSeries.monomial(2, trunc=t) * denom2.inverse()
        oracle = counting_series(enumerate_partitions(t), t)
        assert total == oracle
        assert total.int_coefficients(2) == [1, 1, 2]


class TestMul:
    def test_multiplicative_identity(self):
        s = QSeries([3, 1, 4, 1], trunc=3)
        assert QSeries.one() * s == s
        assert 1 * s == s

    def test_geometric_inverse_pair(self):
        for t in (1, 5, 13):
            one_minus_q = QSeries([1, -1], trunc=t)
            assert one_minus_q * geometric(t) == QSeries.one(t)

    def test_bivariate_expansion(self):
        a = QSeries.one(markers=UV) + marked([{}, U])
        b = QSeries.one(markers=UV) + marked([{}, {}, V])
        prod = a * b
        assert prod.coefficient(0) == 1
        assert prod.coefficient(1).terms == U
        assert prod.coefficient(2).terms == V
        assert prod.coefficient(3).terms == {(1, 1): 1}

    def test_polynomial_does_not_clip(self):
        poly = QSeries([1, 1])  # exact 1 + q
        s = QSeries([1] * 8, trunc=7)
        assert (poly * s).trunc == 7


class TestInverse:
    def test_inverse_of_one(self):
        assert QSeries.one(6).inverse() == QSeries.one(6)

    def test_geometric(self):
        assert QSeries([1, -1], trunc=9).inverse() == geometric(9)

    def test_bounded_parts_oracle(self):
        # 1 / ((1-q)(1-q^2)(1-q^3)) counts partitions into parts <= 3
        t = 5
        poly = QSeries([1, -1]) * QSeries([1, 0, -1]) * QSeries([1, 0, 0, -1])
        inv = poly.inverse(t)
        oracle = counting_series(
            enumerate_partitions(t, lambda p: all(x <= 3 for x in p)), t)
        assert inv == oracle
        assert inv.int_coefficients(5) == [1, 1, 2, 3, 4, 5]

    def test_round_trip(self):
        s = QSeries([1, 3, -2, 5, 0, 1], trunc=5)
        assert s * s.inverse() == QSeries.one(5)

    def test_non_unit_constant(self):
        with pytest.raises(NonUnitConstantTerm):
            QSeries([2, 1], trunc=4).inverse()

    def test_polynomial_needs_trunc(self):
        with pytest.raises(ValueError):
            QSeries([1, 1]).inverse()

    @pytest.mark.parametrize("trunc", [5, None])
    def test_negative_trunc(self, trunc):
        for t in (-1, -2):
            with pytest.raises(ValueError):
                QSeries([1, 2, 3], trunc=trunc).inverse(t)


class TestCoefficient:
    def test_constant(self):
        assert QSeries.one(4).coefficient(0) == 1

    def test_beyond_trunc_raises(self):
        s = QSeries([1, 2], trunc=1)
        with pytest.raises(TruncationExceeded):
            s.coefficient(2)

    def test_polynomial_beyond_degree_is_zero(self):
        assert QSeries([1, 2]).coefficient(10) == 0

    def test_truncate_cannot_extend(self):
        with pytest.raises(TruncationExceeded):
            QSeries([1], trunc=0).truncate(3)


class TestSpecialize:
    def test_kill_marker(self):
        s = QSeries.one(3, markers=("u",)) + QSeries.from_rows({(1,): [0, 1]}, markers=("u",))
        assert s.specialize({"u": 1}) == QSeries([1, 1, 0, 0], trunc=3)

    def test_partial_kill(self):
        s = marked([{}, U]) + marked([{}, {}, V]) + marked([{}, {}, {}, {(1, 1): 1}])
        assert s.specialize({"u": 1, "v": 0}) == QSeries.monomial(1)

    def test_marker_coefficient(self):
        s = marked([{}, {}, {}, {(1, 1): 2, (0, 1): 1}], 4)
        assert s.marker_coefficient({"u": 1, "v": 1}) == QSeries.monomial(3, 2, trunc=4)

    def test_registry_mismatch_rejected(self):
        a = QSeries.one(3, markers=("u",))
        b = QSeries.one(3, markers=("v",))
        with pytest.raises(ValueError):
            _ = a + b


class TestDisplay:
    def test_truncated(self):
        s = QSeries([1, -1, 0, 2], trunc=3)
        assert str(s) == "1 - q + 2*q^3 + O(q^4)"
        assert repr(s) == "QSeries(1 - q + 2*q^3 + O(q^4))"
        assert str(QSeries.zero(3)) == "0 + O(q^4)"

    def test_marked_coefficients(self):
        s = marked([{}, {(1, 0): -1}, {(1, 0): 2}, {(0, 1): 1, (1, 0): 1}], 4)
        assert str(s) == "-u*q + 2*u*q^2 + (v + u)*q^3 + O(q^5)"


class TestMismatch:
    def test_first_mismatch(self):
        a = QSeries([1, 2, 3, 4], trunc=3)
        b = QSeries([1, 2, 0, 4], trunc=3)
        assert a.first_mismatch(b) == 2
        assert a.first_mismatch(a) is None
        assert a.truncate(1).first_mismatch(b.truncate(1)) is None


# -- property tests -----------------------------------------------------------

coeff_ints = st.integers(-9, 9)


@st.composite
def small_series(draw, trunc=None):
    if trunc is None:
        trunc = draw(st.integers(0, 12))
    coeffs = draw(st.lists(coeff_ints, min_size=trunc + 1, max_size=trunc + 1))
    return QSeries(coeffs, trunc=trunc)


@st.composite
def small_series_triple(draw):
    trunc = draw(st.integers(0, 12))
    return tuple(draw(small_series(trunc=trunc)) for _ in range(3))


@given(small_series_triple())
@settings(max_examples=60)
def test_ring_axioms(triple):
    a, b, c = triple
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(small_series())
@settings(max_examples=60)
def test_identities_and_inverse(s):
    assert QSeries.one() * s == s
    assert QSeries.zero() + s == s
    unit = QSeries([1] + s.int_coefficients(s.trunc)[1:], trunc=s.trunc)
    assert unit * unit.inverse() == QSeries.one(s.trunc)


@given(small_series_triple())
@settings(max_examples=60)
def test_convolution_matches_schoolbook(triple):
    a, b, _ = triple
    prod = a * b
    ca, cb = a.int_coefficients(a.trunc), b.int_coefficients(b.trunc)
    for n in range(prod.trunc + 1):
        direct = sum(ca[i] * cb[n - i] for i in range(n + 1))
        assert prod.coefficient(n) == direct


@given(small_series(), st.integers(0, 12))
@settings(max_examples=60)
def test_truncation_contract(s, t):
    other = QSeries([1] * (t + 1), trunc=t)
    assert (s * other).trunc == min(s.trunc, t)
    assert (s + other).trunc == min(s.trunc, t)


# -- the binomial-factor kernel against the dense reference -------------------

@st.composite
def kernel_case(draw, polynomials=True):
    """(series, c, coefficient list): marker-free with int entries and
    c = 1 or -1; truncated or, if allowed, an exact polynomial."""
    base = draw(small_series())
    trunc = None if polynomials and draw(st.booleans()) else base.trunc
    coeffs = base.int_coefficients(base.trunc)
    return QSeries(coeffs, trunc=trunc), draw(st.sampled_from([1, -1])), coeffs


def two_term(series, c, e):
    """The dense reference factor 1 + c*q^e."""
    return QSeries.one() + QSeries.monomial(e, c)


@given(kernel_case(), st.integers(0, 14))
@settings(max_examples=80)
def test_kernel_multiplies_like_dense(case, e):
    series, c, coeffs = case
    if series.trunc is None:
        coeffs += [0] * e  # room for the new top coefficients
    binomial_factor(coeffs, c, e)
    got = QSeries(coeffs, trunc=series.trunc)
    assert got == series * two_term(series, c, e)


@given(kernel_case(polynomials=False), st.integers(1, 14))
@settings(max_examples=80)
def test_kernel_divides_like_dense_inverse(case, e):
    series, c, coeffs = case
    binomial_factor(coeffs, c, e, -1)
    got = QSeries(coeffs, trunc=series.trunc)
    assert got == series * two_term(series, c, e).inverse(series.trunc)


def test_kernel_rejects_non_unit_division():
    for e, power in ((0, -1), (-1, 1), (2, 2)):
        with pytest.raises(ValueError):
            binomial_factor([1, 0, 0], 1, e, power)


@pytest.mark.parametrize("c", [0, 2, -3, True, 1.0, MarkerPoly(UV, U), MarkerPoly((), {(): 1})])
def test_kernel_takes_only_unit_c(c):
    for power in (1, -1):
        coeffs = [1, 2, 3]
        with pytest.raises(ValueError):
            binomial_factor(coeffs, c, 1, power)
        assert coeffs == [1, 2, 3]


# -- the inside-out sum kernel against a prefix-product reference -------------

def nested_sum_reference(terms, factors, last):
    """Each term times its own prefix product g_0 ... g_(i-1), through q^last,
    with plain loops: a factor is 1 + c*q^e or, divided, the geometric
    series of -c*q^e."""
    total = [0] * (last + 1)
    prefix = [1] + [0] * last
    for i, term in enumerate(terms):
        if term is not None:
            o, row = term
            for j, x in enumerate(row):
                for n, y in enumerate(prefix):
                    if o + j + n <= last:
                        total[o + j + n] += x * y
        for c, e, power in factors[i] if i < len(terms) - 1 else ():
            if power == 1:
                pairs = [(0, 1), (e, c)]
            else:
                pairs = [(e * k, (-c) ** k) for k in range(last // e + 1)]
            prefix = [sum(prefix[n - d] * x for d, x in pairs if d <= n)
                      for n in range(last + 1)]
    return total


_unit = st.sampled_from([1, -1])
_factor = st.one_of(st.tuples(_unit, st.integers(0, 6), st.just(1)),
                    st.tuples(_unit, st.integers(1, 6), st.just(-1)))


@st.composite
def nested_case(draw):
    """(terms, factors, last): None gaps, offsets in any order and past
    last, and 0-2 factors per step of both powers."""
    last = draw(st.integers(0, 12))
    term = st.one_of(st.none(), st.tuples(st.integers(0, last + 3),
                                          st.lists(coeff_ints, max_size=6)))
    terms = draw(st.lists(term, max_size=6))
    factors = [draw(st.lists(_factor, max_size=2)) for _ in terms]
    return terms, factors, last


@given(nested_case())
@settings(max_examples=150)
def test_nested_sum_matches_prefix_products(case):
    terms, factors, last = case
    before = [None if t is None else (t[0], list(t[1])) for t in terms]
    start, row = _nested_sum(terms, factors, last)
    assert terms == before  # the term rows are only read
    offsets = [t[0] for t in terms if t is not None and t[0] <= last]
    assert start == min(offsets, default=last + 1) and len(row) == last + 1 - start
    assert [0] * start + row == nested_sum_reference(terms, factors, last)


class TestSumRows:
    def test_single_row_is_returned_or_cut(self):
        row = [4, 0, -2, 7]
        pair = (3, row)
        assert _sum_rows([pair], 2, 9) is pair
        assert _sum_rows([pair], 2, 7) == (3, [4, 0, -2])
        assert _sum_rows([pair], 1, 3) == (3, [4])
        assert row == [4, 0, -2, 7]

    def test_none_past_last(self):
        assert _sum_rows([(5, [1])], 1, 4) is None
        assert _sum_rows([(8, [2]), (5, [1, 1])], 3, 4) is None
        assert _sum_rows([(0, [1])], 1, -1) is None


@st.composite
def sum_rows_case(draw):
    """(rows, g, last): one to four stride-g rows at starts that agree mod g,
    in any order, some reaching or starting past q^last."""
    g = draw(st.integers(1, 4))
    r = draw(st.integers(0, g - 1))
    row = st.tuples(st.integers(0, 6).map(lambda j: r + g * j),
                    st.lists(coeff_ints, min_size=1, max_size=6))
    return draw(st.lists(row, min_size=1, max_size=4)), g, draw(st.integers(-1, 20))


@given(sum_rows_case())
@settings(max_examples=150)
def test_sum_rows_matches_dense_sum(case):
    rows, g, last = case
    before = [(s, list(row)) for s, row in rows]
    got = _sum_rows(rows, g, last)
    assert rows == before  # no input row is written
    want = [0] * (last + 1)
    for s, row in rows:
        for i, x in enumerate(row):
            if s + g * i <= last:
                want[s + g * i] += x
    start = min(s for s, _ in rows)
    if start > last:
        assert got is None
        return
    assert got[0] == start
    out = got[1]
    assert len(out) <= (last - start) // g + 1
    dense = [0] * (last + 1)
    dense[start:start + g * len(out):g] = out
    assert dense == want
    if len(rows) > 1:
        assert all(out is not row for _, row in rows)


# -- the int-row core against a polynomial schoolbook reference --------------
#
# A drawn operand is (coefficient list, trunc, markers): each coefficient is
# a polynomial keyed by (u, v) exponents, marker-free in the registry (); the
# list may be shorter than trunc + 1 and a polynomial's may end in zeros.
# The reference reads the list directly and computes with the polynomial
# helpers of tests/reference.py only.

MONOMIALS = [ONE, U, V, {(1, 1): 1}, {(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}]


@st.composite
def operand(draw):
    markers = draw(st.sampled_from([(), UV]))
    trunc = draw(st.one_of(st.none(), st.integers(0, 8)))
    size = draw(st.integers(0, 9 if trunc is None else trunc + 1))
    ints = st.one_of(st.just(0), coeff_ints)
    monomials = st.sampled_from(MONOMIALS if markers else [ONE])
    coeffs = [reference.poly_scale(draw(monomials), draw(ints)) for _ in range(size)]
    return coeffs, trunc, markers


@st.composite
def operand_pair(draw):
    """Two operands; half the time the second is the first with one
    coefficient changed, or none, under its own trunc and registry."""
    a = draw(operand())
    if draw(st.booleans()):
        return a, draw(operand())
    coeffs, trunc, markers = a
    coeffs = list(coeffs)
    if coeffs and draw(st.booleans()):
        n = draw(st.integers(0, len(coeffs) - 1))
        coeffs[n] = reference.poly_add(coeffs[n], draw(st.sampled_from([ONE, {(0, 0): -1}, U])))
    markers = UV if any(exps != (0, 0) for c in coeffs for exps in c) else markers
    return a, (coeffs, draw(st.one_of(st.none(), st.just(trunc))), markers)


def build(case):
    coeffs, trunc, markers = case
    polys = [ref_coeff(case, n, markers) for n in range(len(coeffs))]
    return QSeries.from_rows(reference.poly_rows(polys), trunc, markers)


def ref_coeff(case, n, markers):
    """The coefficient of q^n as a polynomial in ``markers``, the registry of
    the operands compared or combined: keyed by () when marker-free."""
    c = case[0][n] if n < len(case[0]) else {}
    return c if markers else {(): x for x in c.values()}


def ref_trunc(*cases):
    truncs = [trunc for _, trunc, _ in cases if trunc is not None]
    return min(truncs) if truncs else None


def assert_matches(got, trunc, markers, expected):
    """got has the given trunc and registry, coefficient(n) has the terms
    expected[n] through its window, and its stored coefficients are in
    canonical form: every stored row, truncated or not, starts and ends in a
    nonzero entry."""
    assert got.trunc == trunc and got.markers == markers
    assert all(row[0] and row[-1] for _, row in got._rows.values())
    for n, c in enumerate(expected):
        assert got.coefficient(n).terms == c, n
    if trunc is None:
        assert all(got.coefficient(n) == 0 for n in range(len(expected), len(expected) + 3))
        assert not got.coeffs or got.coeffs[-1].terms
    else:
        assert len(expected) == len(got.coeffs) == trunc + 1
        with pytest.raises(TruncationExceeded):
            got.coefficient(trunc + 1)


def registry(*cases):
    return UV if any(markers for _, _, markers in cases) else ()


@given(operand_pair())
@settings(max_examples=150)
def test_add_sub_match_reference(pair):
    a, b = pair
    trunc = ref_trunc(a, b)
    top = trunc if trunc is not None else max(len(a[0]), len(b[0])) - 1
    reg = registry(a, b)
    add, scale = reference.poly_add, reference.poly_scale
    assert_matches(build(a) + build(b), trunc, reg,
                   [add(ref_coeff(a, n, reg), ref_coeff(b, n, reg)) for n in range(top + 1)])
    assert_matches(build(a) - build(b), trunc, reg,
                   [add(ref_coeff(a, n, reg), scale(ref_coeff(b, n, reg), -1))
                    for n in range(top + 1)])


@given(operand_pair())
@settings(max_examples=150)
def test_mul_matches_reference(pair):
    a, b = pair
    trunc = ref_trunc(a, b)
    top = trunc if trunc is not None else len(a[0]) + len(b[0]) - 2
    reg = registry(a, b)
    expected = []
    for n in range(top + 1):
        expected.append(reference.poly_add(*(
            reference.poly_mul(ref_coeff(a, i, reg), ref_coeff(b, n - i, reg))
            for i in range(n + 1))))
    assert_matches(build(a) * build(b), trunc, reg, expected)


@given(operand(), st.integers(0, 8))
@settings(max_examples=100)
def test_inverse_matches_reference(case, t):
    coeffs, trunc, markers = case
    case = ([ONE] + coeffs[1:], trunc, markers)
    eff = t if trunc is None else min(trunc, t)
    inv = [ref_coeff(case, 0, markers)]
    for n in range(1, eff + 1):
        acc = reference.poly_add(*(reference.poly_mul(ref_coeff(case, i, markers), inv[n - i])
                                   for i in range(1, n + 1)))
        inv.append(reference.poly_scale(acc, -1))
    assert_matches(build(case).inverse(t), eff, markers, inv)


@given(operand_pair())
@settings(max_examples=150)
def test_comparison_matches_reference(pair):
    a, b = pair
    limit = ref_trunc(a, b)
    if limit is None:
        limit = max(len(a[0]), len(b[0])) - 1
    reg = registry(a, b)
    first = next((n for n in range(limit + 1)
                  if ref_coeff(a, n, reg) != ref_coeff(b, n, reg)), None)
    assert build(a).first_mismatch(build(b)) == first
    top = max(len(a[0]), len(b[0])) if a[1] is None else a[1] + 1
    same = a[1] == b[1] and all(ref_coeff(a, n, reg) == ref_coeff(b, n, reg)
                                for n in range(top))
    assert (build(a) == build(b)) is same


@given(operand())
@settings(max_examples=60)
def test_difference_with_itself_is_zero(case):
    s = build(case)
    assert s - s == QSeries.zero(s.trunc, s.markers)
    assert (s - s).is_zero_through(s.trunc if s.trunc is not None else 5)


def test_cancelled_rows_leave_canonical_form():
    uq = marked([{}, U])
    assert uq - uq == QSeries.zero(markers=UV)
    assert str(uq - uq) == "0" and (uq - uq).coeffs == ()
    poly = marked([ONE, U, {(0, 1): 3}]) - marked([{}, U, {(0, 1): 3}])
    assert poly == QSeries.one(markers=UV) and len(poly.coeffs) == 1
    assert (QSeries([1, 2, 3]) - QSeries([0, 0, 3])).int_coefficients(3) == [1, 2, 0, 0]


def test_exact_zero_is_shared_and_unchanged():
    z = QSeries.zero()
    assert z is QSeries.zero() and z is _shifted(7, ()) and z is _shifted(3, None)
    assert QSeries.zero(markers=UV) is QSeries.zero(markers=UV) is not z
    assert QSeries.zero(3) is not QSeries.zero(3)
    x = marked([ONE, {(1, 0): 2}, {(0, 0): 3}], 6)
    assert z + x == x and z - x == -x and z * x == QSeries.zero(6, UV)
    assert z.coeffs == () and z.truncate(5) == QSeries.zero(5)
    assert str(z) == "0"
    assert z.monomial_rows(4) == {} and z.trunc is None and z.markers == ()
    assert z == QSeries([]) and QSeries.zero() is z


def reference_eq(a, b):
    """QSeries.__eq__ by its general path through public reads: an int (not
    a bool) is a constant series, anything else that is no series, a
    MarkerPoly too, is NotImplemented, two marked registries that differ are
    unequal, and a marker-free side is re-keyed into the other's."""
    if type(b) is int:
        b = QSeries([b])
    if not isinstance(b, QSeries):
        return NotImplemented
    if a.markers and b.markers and a.markers != b.markers:
        return False
    if a.trunc != b.trunc:
        return False
    markers = a.markers or b.markers
    upto = a.trunc if a.trunc is not None else max(len(a.coeffs), len(b.coeffs), 1) - 1

    def rows(s):
        return {key if s.markers else (0,) * len(markers): row
                for key, row in s.monomial_rows(upto).items()}
    return rows(a) == rows(b)


def test_equality_fast_path_matches_general_path():
    plain = QSeries([1, 2, 0, 3])
    uv_plain = QSeries([1, 2, 0, 3], markers=UV)
    pairs = [
        (plain, QSeries([1, 2, 0, 3])), (plain, QSeries([1, 2])),
        (QSeries([1, 2], trunc=4), QSeries([1, 2], trunc=4)),
        (QSeries([1, 2], trunc=4), QSeries([1, 2], trunc=5)),
        (QSeries([1, 2], trunc=4), QSeries([1, 2])),
        (plain, uv_plain), (uv_plain, plain), (marked([ONE, U]), QSeries([1])),
        (QSeries.zero(markers=UV), QSeries.zero()), (QSeries.zero(), QSeries.zero(markers=UV)),
        (marked([U]), QSeries.from_rows({(1,): [1]}, markers=("u",))),
        (QSeries.zero(markers=("u",)), QSeries.zero(markers=("v",))),
        (QSeries([3]), 3), (QSeries([3], markers=UV), 3), (QSeries.zero(), 0), (QSeries([3]), 4),
        (QSeries([1, 2]), 1), (marked([U]), MarkerPoly(UV, U)),
        (QSeries([1], markers=UV), MarkerPoly(UV, ONE)),
        (QSeries([3]), MarkerPoly((), {(): 3})), (QSeries([3], markers=("u",)), MarkerPoly(UV, U)),
        (QSeries([1]), True), (QSeries.zero(), False), (QSeries([1], trunc=0), True),
        (plain, "q"), (plain, [1, 2, 0, 3]), (plain, None),
    ]
    for a, b in pairs:
        want = reference_eq(a, b)
        assert a.__eq__(b) is want, (a, b)
        assert (a == b) is (want is True) and (a != b) is (want is not True), (a, b)
    # a bool is no constant: True and False equal no series
    assert [want for a, b in pairs if isinstance(b, bool)
            for want in (reference_eq(a, b), a == b)] == [NotImplemented, False] * 3


def test_handed_out_lists_are_copies():
    s = QSeries([1, 2, 3], trunc=4)
    got = s.int_coefficients(4)
    got[0] = 99
    binomial_factor(got, 1, 1)
    assert s == QSeries([1, 2, 3], trunc=4)
    g = gaussian_binomial(6, 2)
    before = [str(c) for c in g.coeffs]
    row = g.int_coefficients(12)
    binomial_factor(row, -1, 1, -1)
    row[0] = 7
    assert gaussian_binomial(6, 2) is g
    assert [str(c) for c in g.coeffs] == before
    for trunc in (3, None):
        given_rows = {(1, 0): [0, 2, 0], (0, 0): [1]}
        m = QSeries.from_rows(given_rows, trunc=trunc, markers=UV)
        assert given_rows[(1, 0)] == [0, 2, 0]
        given_rows[(1, 0)][1] = 5
        rows = m.monomial_rows(3)
        assert rows == {(0, 0): [1, 0, 0, 0], (1, 0): [0, 2, 0, 0]}
        rows[(1, 0)][1] = 9
        assert m == marked([ONE, {(1, 0): 2}], trunc)


def test_huge_truncation_costs_only_the_stored_rows():
    # 10**20 fits no index: only a dense read-out may take time in trunc,
    # and it fails at once, before any coefficient is built
    t = 10**20
    one, q7 = QSeries.one(t), QSeries.monomial(7, trunc=t)
    both = one + q7
    assert both.trunc == t and both.monomial_rows(20) == {(): [1] + [0] * 6 + [1] + [0] * 13}
    assert (q7 - one).monomial_rows(8) == {(): [-1] + [0] * 6 + [1, 0]}
    assert (q7 * both).monomial_rows(15) == {(): [0] * 7 + [1] + [0] * 6 + [1, 0]}
    assert (q7 * both).trunc == t
    assert one == QSeries.one(t) and one != q7 and q7 != QSeries.monomial(7, trunc=t - 1)
    assert both.first_mismatch(one) == 7 and both.first_mismatch(both) is None
    assert both.truncate(6).first_mismatch(one.truncate(6)) is None
    assert q7.coefficient(t) == 0 and q7.coefficient(7) == 1
    assert q7.truncate(10) == QSeries.monomial(7, trunc=10)
    assert one.truncate(10) == QSeries.one(10)
    assert str(both) == f"1 + q^7 + O(q^{t + 1})"
    assert q7.monomial_rows(20) == {(): [0] * 7 + [1] + [0] * 13}
    with pytest.raises(OverflowError):
        q7.coeffs
    with pytest.raises(OverflowError):
        one.inverse()


@pytest.fixture
def marker_polys_built(monkeypatch):
    """The argument tuples of every MarkerPoly constructed from here on."""
    created = []
    init = MarkerPoly.__init__

    def counted(self, *args, **kwargs):
        created.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MarkerPoly, "__init__", counted)
    return created


def test_marker_free_arithmetic_builds_no_marker_poly(marker_polys_built):
    assert catalog.verify("rogers-ramanujan", 200).passed
    a = QSeries([1, -1, 2, 0, 5], trunc=30)
    b = QSeries(range(1, 12))
    results = [a * b, a.inverse(), a + b, a - b, 3 * b, b.inverse(20) * b]
    assert results[-1] == QSeries.one(20)
    assert a.first_mismatch(b) == 1 and a != b
    assert marker_polys_built == []


def test_marked_builders_build_no_marker_poly(marker_polys_built):
    assert catalog.verify("schur-refined", 200).passed
    assert catalog.oracle_concordance("schur-refined", 20).passed
    counted = count_class(SCHUR_REFINED, 30)
    table = basis_table(SCHUR_REFINED, 8, 80)
    rows = [schur_closed(n, h, branch) for n in range(1, 9) for h in range(12)
            for branch in (0, 1, 2)]
    rows += [combined_row_formula(n, h) for n in range(1, 9) for h in range(-1, 12)]
    assert marker_polys_built == []
    assert all(row.markers == UV for row in rows)
    assert table.entry(1, 3) == marked([{}, {}, {}, {(1, 1): 1}])
    assert counted.markers == UV and counted.trunc == 30


# -- rows that start at their first nonzero ------------------------------------
#
# A drawn case is (pairs, dense, trunc, markers): each row is a start and a
# list with leading and trailing zeros, ``pairs`` holds it as (start, row) and
# ``dense`` as the list zero-padded from q^0, both cut at q^trunc.  The
# reference reads ``dense`` alone.

@st.composite
def placed_case(draw, markers=None):
    if markers is None:
        markers = draw(st.sampled_from([(), ("u",), UV]))
    trunc = draw(st.one_of(st.none(), st.integers(0, 12)))
    keys = draw(st.lists(st.tuples(*[st.integers(0, 2)] * len(markers)),
                         max_size=3, unique=True))
    pairs, dense = {}, {}
    for key in keys:
        start = draw(st.integers(0, 8))
        row = ([0] * draw(st.integers(0, 3)) + draw(st.lists(coeff_ints, max_size=5))
               + [0] * draw(st.integers(0, 3)))
        if trunc is not None:
            row = row[:max(trunc + 1 - start, 0)]
        pairs[key] = (start, row)
        dense[key] = ([0] * start + row)[:None if trunc is None else trunc + 1]
    return pairs, dense, trunc, markers


def three_ways(case):
    """The case built from its pairs, from its padded lists and by from_rows."""
    pairs, dense, trunc, markers = case
    return [QSeries._make({key: (start, list(row)) for key, (start, row) in pairs.items()},
                          trunc, markers),
            QSeries._make({key: list(row) for key, row in dense.items()}, trunc, markers),
            QSeries.from_rows(dense, trunc, markers)]


def ref_at(dense, n, markers):
    return MarkerPoly(markers, {key: row[n] for key, row in dense.items()
                                if n < len(row) and row[n]})


def ref_top(*denses):
    """One past the last stored exponent of the dense rows."""
    return max((len(row) for dense in denses for row in dense.values()), default=0)


def ref_str(dense, trunc, markers):
    pieces = []
    for n in range(ref_top(dense)):
        c = ref_at(dense, n, markers)
        text = str(c)
        if not c.terms:
            continue
        q = "q" if n == 1 else f"q^{n}"
        if n == 0:
            pieces.append(text)
        elif text in ("1", "-1"):
            pieces.append(q if text == "1" else f"-{q}")
        else:
            pieces.append(f"{text}*{q}" if len(c.terms) == 1 else f"({text})*{q}")
    body = " + ".join(pieces).replace("+ -", "- ") or "0"
    return body if trunc is None else f"{body} + O(q^{trunc + 1})"


def ref_combine(a, b, trunc, op):
    """Dense rows of a op b (+, - or *), cut at q^trunc."""
    out = {}
    if op == "*":
        for ka, ra in a.items():
            for kb, rb in b.items():
                row = out.setdefault(tuple(map(sum, zip(ka, kb))), [])
                for i, x in enumerate(ra):
                    for j, y in enumerate(rb):
                        row.extend([0] * (i + j + 1 - len(row)))
                        row[i + j] += x * y
    else:
        sign = 1 if op == "+" else -1
        for key in a.keys() | b.keys():
            ra, rb = a.get(key, []), b.get(key, [])
            out[key] = [(ra[n] if n < len(ra) else 0) + sign * (rb[n] if n < len(rb) else 0)
                        for n in range(max(len(ra), len(rb)))]
    return {key: row[:None if trunc is None else trunc + 1] for key, row in out.items()}


def assert_dense(got, dense, trunc, markers):
    """got is canonical, has the trunc and registry, and the coefficients of
    dense, with none stored past q^trunc."""
    assert (got.trunc, got.markers) == (trunc, markers)
    assert all(type(start) is int and row[0] and row[-1] for start, row in got._rows.values())
    assert trunc is None or all(start + len(row) <= trunc + 1
                                for start, row in got._rows.values())
    top = trunc if trunc is not None else ref_top(dense) + 2
    assert [got.coefficient(n) for n in range(top + 1)] == \
        [ref_at(dense, n, markers) for n in range(top + 1)]


@given(placed_case(), st.integers(-1, 14))
@settings(max_examples=150)
def test_placed_rows_match_dense_reference(case, upto):
    pairs, dense, trunc, markers = case
    built = three_ways(case)
    assert built[0] == built[1] == built[2]
    if trunc is not None:
        upto = min(upto, trunc)
    size = max(upto + 1, 0)
    rows = {key: (row + [0] * size)[:size] for key, row in dense.items() if any(row[:size])}
    nonzero = [n for n in range(ref_top(dense)) if ref_at(dense, n, markers).terms]
    for s in built:
        assert_dense(s, dense, trunc, markers)
        assert [s.coefficient(n) for n in range(size)] == \
            [ref_at(dense, n, markers) for n in range(size)]
        assert s.monomial_rows(upto) == rows
        zero = (0,) * len(markers)
        with pytest.raises(ValueError) if rows.keys() - {zero} else nullcontext():
            assert s.int_coefficients(upto) == rows.get(zero, [0] * size)
        assert s.is_zero_through(upto) == (not nonzero or nonzero[0] > upto)
        assert str(s) == ref_str(dense, trunc, markers)
        weights = {m: w for m, w in zip(markers, (2, -3))}
        special = {(): [sum(row[n] * math.prod(weights[m] ** e for m, e in zip(markers, key))
                            for key, row in dense.items() if n < len(row))
                        for n in range(ref_top(dense))]}
        assert_dense(s.specialize(weights), special, trunc, ())
        if upto >= 0:
            assert_dense(s.truncate(upto), {key: row[:upto + 1] for key, row in dense.items()},
                         upto, markers)


@st.composite
def placed_pair(draw):
    """Two cases of one registry; half the time the second is the first with
    one coefficient changed at or below some row's start."""
    a = draw(placed_case())
    markers = a[3]
    if draw(st.booleans()):
        return a, draw(placed_case(markers=markers))
    pairs, dense, trunc, _ = a
    dense = {key: list(row) for key, row in dense.items()}
    key = draw(st.tuples(*[st.integers(0, 2)] * len(markers)))
    n = draw(st.integers(0, 8 if trunc is None else trunc))
    row = dense.setdefault(key, [])
    row.extend([0] * (n + 1 - len(row)))
    row[n] += draw(st.sampled_from([1, -1, 5]))
    trunc_b = draw(st.sampled_from([trunc, None, 12]))
    if trunc_b is not None:
        dense = {k: r[:trunc_b + 1] for k, r in dense.items()}
    pairs = {k: (0, list(r)) for k, r in dense.items()}
    return a, (pairs, dense, trunc_b, markers)


@given(placed_pair())
@settings(max_examples=150)
def test_placed_arithmetic_matches_dense_reference(pair):
    (_, da, ta, markers), (_, db, tb, _) = pair
    trunc = ta if tb is None else tb if ta is None else min(ta, tb)
    limit = trunc if trunc is not None else max(ref_top(da, db) - 1, 0)
    first = next((n for n in range(limit + 1)
                  if ref_at(da, n, markers) != ref_at(db, n, markers)), None)
    same = ta == tb and all(ref_at(da, n, markers) == ref_at(db, n, markers)
                            for n in range(ref_top(da, db)))
    for a, b in zip(three_ways(pair[0]), reversed(three_ways(pair[1]))):
        assert a.first_mismatch(b) == first and b.first_mismatch(a) == first
        assert (a == b) is same and (b == a) is same
        for op, got in (("+", a + b), ("-", a - b), ("*", a * b)):
            assert_dense(got, ref_combine(da, db, trunc, op), trunc, markers)


def test_first_mismatch_below_the_other_start():
    late = QSeries._make({(): (5, [1, 2])}, None, ())
    early = QSeries._make({(): [0, 0, 7, 0, 0, 1, 2]}, None, ())
    assert late.first_mismatch(early) == early.first_mismatch(late) == 2
    shifted = QSeries._make({(): (3, [1, 2])}, None, ())
    assert late.first_mismatch(shifted) == 3 and late != shifted
    assert late.truncate(4).first_mismatch(shifted.truncate(2)) is None
    marked = QSeries._make({(1, 0): (6, [1]), (0, 1): (2, [3])}, 6, UV)
    assert marked.first_mismatch(QSeries._make({(1, 0): (6, [1])}, 9, UV)) == 2


def test_stored_rows_start_at_their_first_nonzero():
    built = [schur_closed(8, 11, 1)] + list(basis_table(SCHUR_REFINED, 8, 80).entries.values())
    assert all(row[0] and row[-1] for s in built for _, row in s._rows.values())
    assert all(start > 0 for s in built for start, _ in s._rows.values())
