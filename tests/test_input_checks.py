"""Every input check in the package raises its own exception with its own
message, and the report and comparison branches that only a failure or an
odd operand reaches give what they say."""

import pytest

from qsip import catalog, closed_forms, ncopies, qfactory, sip
from qsip.catalog import ConcordanceResult, TelescopeResult
from qsip.ncopies import CopyPart, OverCopyPartition
from qsip.partitions import SipClassSpec, counting_series, enumerate_partitions
from qsip.qfactory import CongruenceProductSpec, PochSpec
from qsip.series import MarkerPoly, QSeries

U = ("u",)
MARKED = QSeries.from_rows({(1,): [1]}, trunc=2, markers=U)

# (call, exception type, a fragment of its message)
CHECKS = {
    "telescope_check trunc": (lambda: catalog.telescope_check(1, -1), ValueError,
                              "truncation order must be non-negative"),
    "substitute untruncated": (lambda: catalog.substitute_neg_q_squared(QSeries([1])),
                               ValueError, "needs a truncated series"),
    "substitute marked": (lambda: catalog.substitute_neg_q_squared(MARKED), ValueError,
                          "marker-free series"),
    "gollnitz_closed": (lambda: closed_forms.gollnitz_closed(0, 0), ValueError,
                        "requires n >= 1 and h >= 0"),
    "schur_closed n": (lambda: closed_forms.schur_closed(0, 0, 2), ValueError,
                       "requires n >= 1"),
    "schur_closed branch": (lambda: closed_forms.schur_closed(1, 0, 3), ValueError,
                            "branch must be 0, 1 or 2"),
    "combined_row_formula": (lambda: closed_forms.combined_row_formula(1, -2), ValueError,
                             "requires n >= 1 and h >= -1"),
    "glasgow_closed": (lambda: closed_forms.glasgow_closed(1, 5), ValueError,
                       "single-part rows are the seed values"),
    "glasgow_row_sums": (lambda: closed_forms.glasgow_row_sums(1), ValueError,
                         "requires n >= 2"),
    "chu_vandermonde_series_check": (
        lambda: closed_forms.chu_vandermonde_series_check(-1, 0, 5), ValueError,
        "requires r, s >= 0"),
    "check_part": (lambda: ncopies.check_part(CopyPart(2, 3)), ValueError,
                   "subscript must satisfy 1 <= sub <= value"),
    "enumerate_ncopies total": (lambda: next(ncopies.enumerate_ncopies(-1)), ValueError,
                                "total_max must be non-negative"),
    "enumerate_base r": (lambda: next(ncopies.enumerate_base(5, -2)), ValueError,
                         "constant must be at least -1"),
    "base_recompose": (lambda: ncopies.base_recompose((CopyPart(1, 1),), ()), ValueError,
                       "lengths differ"),
    "exact_diff_table r": (lambda: ncopies.exact_diff_table(-2, 1, 1), ValueError,
                           "constant must be at least -1"),
    "exact_diff_table max_n": (lambda: ncopies.exact_diff_table(0, 0, 1), ValueError,
                               "max_n must be at least 1"),
    "exact_diff_closed r": (lambda: ncopies.exact_diff_closed(-2, 1, 1, 1), ValueError,
                            "constant must be at least -1"),
    "base_gf parts": (lambda: ncopies.base_gf(-1, 0, 5), ValueError,
                      "part count must be non-negative"),
    "base_gf r": (lambda: ncopies.base_gf(1, -2, 5), ValueError,
                  "constant must be at least -1"),
    "OverCopyPartition": (lambda: OverCopyPartition((CopyPart(1, 1),), {CopyPart(2, 1)}),
                          ValueError, "overlines must sit on parts that occur"),
    "enumerate_partitions total": (lambda: next(enumerate_partitions(-1)), ValueError,
                                   "total_max must be non-negative"),
    "SipClassSpec k": (lambda: SipClassSpec(0, (), ()), ValueError,
                       "modulus k must be a positive integer"),
    "SipClassSpec c": (lambda: SipClassSpec(1, (0,), (0,)), ValueError,
                       "threshold c_1 = 0 must be positive"),
    "counting_series size": (lambda: counting_series([[1]], 3), TypeError,
                             "cannot infer a size"),
    "PochSpec step": (lambda: PochSpec(1, 0), ValueError, "step must be a positive integer"),
    "PochSpec sign": (lambda: PochSpec(1, 1, sign=2), ValueError, "sign must be +1 or -1"),
    "poch_finite n": (lambda: qfactory.poch_finite(PochSpec(1, 1), -1), ValueError,
                      "factor count must be non-negative"),
    "poch_finite offset": (lambda: qfactory.poch_finite(PochSpec(-1, 1), 1), ValueError,
                           "factor q-exponent -1 < 0"),
    "CongruenceProductSpec modulus": (lambda: CongruenceProductSpec(0, frozenset()),
                                      ValueError, "modulus must be a positive integer"),
    "CongruenceProductSpec mode": (lambda: CongruenceProductSpec(5, {1}, mode="both"),
                                   ValueError, "mode must be 'allowed' or 'excluded'"),
    "series_sum constant": (lambda: qfactory.series_sum((0, 0), (), (), 5), ValueError,
                            "Q(n) must grow"),
    "series_sum integral": (lambda: qfactory.series_sum((1, 0), (), (), 5), ValueError,
                            "must be integral and non-decreasing"),
    "_as_int float": (lambda: QSeries([1.5]), TypeError,
                      "integer coefficient expected, got 1.5"),
    "_as_int bool": (lambda: MarkerPoly(U, {(0,): True}), TypeError,
                     "integer coefficient expected, got True"),
    "MarkerPoly exponent": (lambda: MarkerPoly(U, {(-1,): 1}), ValueError,
                            "negative marker exponent"),
    "MarkerPoly exponent float": (lambda: MarkerPoly(U, {(2.0,): 1}), TypeError,
                                  "integer marker exponents expected in (2.0,)"),
    "MarkerPoly exponent bool": (lambda: MarkerPoly(U, {(True,): 1}), TypeError,
                                 "integer marker exponents expected in (True,)"),
    "MarkerPoly specialize float": (lambda: MarkerPoly(U, {(1,): 1}).specialize({"u": 0.5}),
                                    TypeError, "integer coefficient expected, got 0.5"),
    "MarkerPoly specialize bool": (lambda: MarkerPoly(U, {(1,): 1}).specialize({"u": True}),
                                   TypeError, "integer coefficient expected, got True"),
    "from_rows trunc": (lambda: QSeries.from_rows({(): [1]}, trunc=-1), ValueError,
                        "truncation order must be non-negative"),
    "from_rows length": (lambda: QSeries.from_rows({(): [1, 2, 3]}, trunc=1), ValueError,
                         "3 coefficients exceed truncation order 1"),
    "from_rows key": (lambda: QSeries.from_rows({(1,): [1]}), ValueError,
                      "row key (1,) is no exponent vector"),
    "from_rows key float": (lambda: QSeries.from_rows({(2.0,): [0, 1]}, markers=U), ValueError,
                            "row key (2.0,) is no exponent vector"),
    "from_rows key bool": (lambda: QSeries.from_rows({(True,): [1]}, markers=U), ValueError,
                           "row key (True,) is no exponent vector"),
    "from_rows key str": (lambda: QSeries.from_rows({("a",): [1]}, markers=U), ValueError,
                          "row key ('a',) is no exponent vector"),
    "from_rows ints": (lambda: QSeries.from_rows({(): [1.5]}), TypeError,
                       "integer coefficients expected in row"),
    "QSeries registry": (lambda: QSeries([MarkerPoly(U, {(1,): 1})], markers=U),
                         TypeError, "integer coefficient expected, got MarkerPoly(u)"),
    "QSeries registries": (lambda: MARKED + QSeries([1], markers=("v",)), ValueError,
                           "marker registries differ: ('u',) vs ('v',)"),
    "monomial exponent": (lambda: QSeries.monomial(-1), ValueError,
                          "negative q-exponents are out of scope"),
    "coefficient exponent": (lambda: QSeries([1]).coefficient(-1), ValueError,
                             "q-exponent must be non-negative"),
    "int_coefficients marked": (lambda: MARKED.int_coefficients(2), ValueError,
                                "series has marker terms"),
    "QSeries trunc float": (lambda: QSeries([1, 2], trunc=2.5), TypeError,
                            "integer truncation order expected, got 2.5"),
    "QSeries trunc bool": (lambda: QSeries([1], trunc=True), TypeError,
                           "integer truncation order expected, got True"),
    "from_rows trunc float": (lambda: QSeries.from_rows({(): [1]}, 2.5), TypeError,
                              "integer truncation order expected, got 2.5"),
    "zero trunc float": (lambda: QSeries.zero(2.5), TypeError,
                         "integer truncation order expected, got 2.5"),
    "one trunc float": (lambda: QSeries.one(2.5), TypeError,
                        "integer truncation order expected, got 2.5"),
    "monomial trunc float": (lambda: QSeries.monomial(1, trunc=2.5), TypeError,
                             "integer truncation order expected, got 2.5"),
    "monomial exponent bool": (lambda: QSeries.monomial(True), TypeError,
                               "integer q-exponent expected, got True"),
    "monomial exponent float": (lambda: QSeries.monomial(1.5), TypeError,
                                "integer q-exponent expected, got 1.5"),
    "inverse trunc bool": (lambda: QSeries([1, 1]).inverse(True), TypeError,
                           "integer truncation order expected, got True"),
    "inverse trunc float": (lambda: QSeries([1, 1]).inverse(2.0), TypeError,
                            "integer truncation order expected, got 2.0"),
    "coefficient bool": (lambda: QSeries([1, 1]).coefficient(True), TypeError,
                         "integer q-exponent expected, got True"),
    "coefficient float": (lambda: QSeries([1, 1]).coefficient(1.0), TypeError,
                          "integer q-exponent expected, got 1.0"),
    "monomial_rows bool": (lambda: QSeries([1, 1], trunc=3).monomial_rows(True), TypeError,
                           "integer q-exponent expected, got True"),
    "monomial_rows float": (lambda: QSeries([1, 1]).monomial_rows(1.5), TypeError,
                            "integer q-exponent expected, got 1.5"),
    "int_coefficients bool": (lambda: QSeries([1, 1]).int_coefficients(True), TypeError,
                              "integer q-exponent expected, got True"),
    "int_coefficients float": (lambda: QSeries([1, 1], trunc=3).int_coefficients(2.0),
                               TypeError, "integer q-exponent expected, got 2.0"),
    "QSeries markers str": (lambda: QSeries([1], markers="uv"), TypeError,
                            "marker names expected, got the str 'uv'"),
    "from_rows markers str": (lambda: QSeries.from_rows({(0, 0): [1]}, markers="uv"),
                              TypeError, "marker names expected, got the str 'uv'"),
    "zero markers str": (lambda: QSeries.zero(markers="uv"), TypeError,
                         "marker names expected, got the str 'uv'"),
    "zero trunc markers str": (lambda: QSeries.zero(3, markers="uv"), TypeError,
                               "marker names expected, got the str 'uv'"),
    "one markers str": (lambda: QSeries.one(markers="uv"), TypeError,
                        "marker names expected, got the str 'uv'"),
    "SipClassSpec markers str": (lambda: SipClassSpec(1, (1,), (0,), markers="uv"),
                                 TypeError, "marker names expected, got the str 'uv'"),
    "QSeries markers repeated": (lambda: QSeries([1], markers=("u", "u")), ValueError,
                                 "marker names repeat in ('u', 'u')"),
    "from_rows markers repeated": (
        lambda: QSeries.from_rows({(0, 0): [1]}, markers=("u", "u")), ValueError,
        "marker names repeat in ('u', 'u')"),
    "zero markers repeated": (lambda: QSeries.zero(markers=("u", "u")), ValueError,
                              "marker names repeat in ('u', 'u')"),
    "one markers repeated": (lambda: QSeries.one(3, markers=("u", "u")), ValueError,
                             "marker names repeat in ('u', 'u')"),
    "SipClassSpec markers repeated": (
        lambda: SipClassSpec(1, (1,), (0,), markers=("u", "u")), ValueError,
        "marker names repeat in ('u', 'u')"),
    "QSeries add int": (lambda: QSeries([1]) + 1, TypeError, "unsupported operand"),
    "QSeries mul int": (lambda: 2 * QSeries([1]), TypeError, "unsupported operand"),
    "first_mismatch int": (lambda: QSeries([1]).first_mismatch(1), TypeError,
                           "a QSeries is compared with a QSeries, not 1"),
    "enumerate_basis n_parts": (lambda: sip.enumerate_basis(sip.NATURAL, 0, 5), ValueError,
                                "n_parts must be at least 1"),
    "SipDecomposition": (lambda: sip.SipDecomposition((1,), ()), ValueError,
                         "basis and padding lengths differ"),
}


@pytest.mark.parametrize("name", list(CHECKS))
def test_input_check_raises(name):
    call, error, fragment = CHECKS[name]
    with pytest.raises(error) as caught:
        call()
    assert fragment in str(caught.value)


def test_failure_reports_and_odd_operands():
    assert TelescopeResult(3, 10, True, ()).summary() == (
        "telescoping partial sums pass for N <= 3 (trunc 10)")
    assert TelescopeResult(3, 10, False, ("N=1", "N=2")).summary() == (
        "telescoping FAIL: N=1; N=2")
    assert ConcordanceResult("x", 5, False, 3, None).summary() == (
        "x (totals <= 5): FAIL (vs lhs at 3, vs rhs at None)")
    # a coefficient equals one of its own registry with its terms, or the
    # int that is its constant; no two registries compare equal
    assert MarkerPoly(U, {(0,): 2}) == 2 and MarkerPoly(U) == 0 and MarkerPoly() == 0
    assert MarkerPoly(U, {(0,): 2}) != MarkerPoly((), {(): 2})
    assert MarkerPoly(U) != MarkerPoly()
    assert MarkerPoly(U, {(0,): 2}) != 3
    assert MarkerPoly(U, {(1,): 2}) != 2
    assert MarkerPoly(U, {(0,): 1}) != MarkerPoly(("v",), {(0,): 1})
    assert MarkerPoly((), {(): 1}) != "1"
    assert MarkerPoly((), {(): 1}).__eq__(True) is NotImplemented
