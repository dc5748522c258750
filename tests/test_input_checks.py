"""Every input check in the package raises its own exception with its own
message, and the report and comparison branches that only a failure or an
odd operand reaches give what they say."""

import pytest

from qsip import catalog, closed_forms, ncopies, qfactory, sip
from qsip.catalog import ConcordanceResult, TelescopeResult
from qsip.ncopies import CopyPart, OverCopyPartition
from qsip.partitions import (Overpartition, SipClassSpec, counting_series,
                             enumerate_partitions)
from qsip.qfactory import CongruenceProductSpec, PochSpec
from qsip.series import MarkerPoly, QSeries

U = ("u",)
MARKED = QSeries([MarkerPoly(U, {(1,): 1})], trunc=2, markers=U)

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
    "Overpartition positive": (lambda: Overpartition((0,), ()), ValueError,
                               "parts must be positive"),
    "Overpartition ascending": (lambda: Overpartition((2, 1), ()), ValueError,
                                "parts must be ascending"),
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
    "theta_sum quad": (lambda: qfactory.theta_sum(0, 0, 5), ValueError,
                       "quadratic coefficient must be at least 1"),
    "theta_sum negative": (lambda: qfactory.theta_sum(1, 5, 10), ValueError,
                           "negative exponent -4 at n=-4; not a power series"),
    "_as_int float": (lambda: QSeries([1.5]), TypeError,
                      "integer coefficient expected, got 1.5"),
    "_as_int bool": (lambda: MarkerPoly.const(True), TypeError,
                     "integer coefficient expected, got True"),
    "MarkerPoly exponent": (lambda: MarkerPoly(U, {(-1,): 1}), ValueError,
                            "negative marker exponent"),
    "MarkerPoly registries": (lambda: MarkerPoly(U) + MarkerPoly(("v",)), ValueError,
                              "marker registries differ"),
    "MarkerPoly power": (lambda: MarkerPoly(U) ** -1, ValueError,
                         "negative powers are not defined"),
    "from_rows trunc": (lambda: QSeries.from_rows({(): [1]}, trunc=-1), ValueError,
                        "truncation order must be non-negative"),
    "from_rows length": (lambda: QSeries.from_rows({(): [1, 2, 3]}, trunc=1), ValueError,
                         "3 coefficients exceed truncation order 1"),
    "from_rows key": (lambda: QSeries.from_rows({(1,): [1]}), ValueError,
                      "row key (1,) is no exponent vector"),
    "from_rows ints": (lambda: QSeries.from_rows({(): [1.5]}), TypeError,
                       "integer coefficients expected in row"),
    "QSeries registry": (lambda: QSeries([MarkerPoly(("v",), {(1,): 1})], markers=U),
                         ValueError, "does not match series registry"),
    "QSeries registries": (lambda: MARKED + QSeries([1], markers=("v",)), ValueError,
                           "marker registries differ: ('u',) vs ('v',)"),
    "monomial exponent": (lambda: QSeries.monomial(-1), ValueError,
                          "negative q-exponents are out of scope"),
    "coefficient exponent": (lambda: QSeries([1]).coefficient(-1), ValueError,
                             "q-exponent must be non-negative"),
    "int_coefficients marked": (lambda: MARKED.int_coefficients(2), ValueError,
                                "series has marker terms"),
    "truncate": (lambda: QSeries([1], trunc=3).truncate(-1), ValueError,
                 "truncation order must be non-negative"),
    "specialize": (lambda: MARKED.specialize({}), ValueError,
                   "assignment missing markers ['u']"),
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
    assert not QSeries([0, 1]).is_zero_through(1)
    # constants compare across marker registries; anything else does not
    assert MarkerPoly.const(2, U) == MarkerPoly.const(2)
    assert MarkerPoly(U) == MarkerPoly()
    assert MarkerPoly.const(2, U) != MarkerPoly.const(3)
    assert MarkerPoly(U, {(1,): 2}) != MarkerPoly.const(2)
    assert MarkerPoly.const(1, U) != MarkerPoly.const(1, ("v",))
    assert MarkerPoly.const(1) != "1"
