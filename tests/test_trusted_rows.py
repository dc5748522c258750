"""Builders that hand their own int rows to ``QSeries._make`` unchecked.

Each such series must be exactly what the validating constructor would
make of the same rows: ``QSeries.from_rows`` rebuilt from the series' own
rows gives identical rows (list rows, no trailing zeros on a polynomial,
no all-zero row, tuple keys, a tuple registry), and every coefficient is a
plain int.
"""

import pytest

from qsip import closed_forms as cf
from qsip import ncopies, sip
from qsip.partitions import SipClassSpec
from qsip.qfactory import PochSpec, poch_finite, poch_product
from qsip.series import QSeries, _shifted

PLAIN = [PochSpec(1, 1), PochSpec(1, 2, sign=-1), PochSpec(3, 4)]
MARKED = [PochSpec(1, 3, sign=-1, marker="u"), PochSpec(2, 3, sign=-1, marker="v")]


def assert_canonical(series):
    rebuilt = QSeries.from_rows(series._rows, series.trunc, series.markers)
    assert rebuilt._rows == series._rows
    assert (rebuilt.trunc, rebuilt.markers) == (series.trunc, series.markers)
    assert all(type(row) is list for row in series._rows.values())
    assert all(type(c) is int for row in series._rows.values() for c in row)


def test_gollnitz_and_glasgow_closed():
    for n in range(1, 11):
        for h in range(11):
            assert_canonical(cf.gollnitz_closed(n, h))
    for n in range(2, 11):
        for largest in range(-1, 61):
            assert_canonical(cf.glasgow_closed(n, largest))
        for row_sum in cf.glasgow_row_sums(n).values():
            assert_canonical(row_sum)


def test_schur_closed_and_combined_rows():
    for n in range(1, 7):
        for h in range(6):
            for branch in (0, 1, 2):
                assert_canonical(cf.schur_closed(n, h, branch))
        for h in range(-1, 6):
            assert_canonical(cf.combined_row_formula(n, h))


@pytest.mark.parametrize("r", [-1, 0, 1, 2])
def test_chain_entries(r):
    table = ncopies.exact_diff_table(r, 6, 18)
    for n in range(8):
        assert_canonical(table.level_gf(n))
        for m in range(20):
            for j in range(m + 2):
                assert_canonical(table.entry(n, m, j))
                assert_canonical(ncopies.exact_diff_closed(r, n, m, j))


@pytest.mark.parametrize("name", sorted(sip.SPEC_REGISTRY))
def test_basis_table_and_class_gf(name):
    spec = sip.SPEC_REGISTRY[name]
    for entry in sip.basis_table(spec, 8, 60).entries.values():
        assert_canonical(entry)
    for trunc in range(61):
        assert_canonical(sip.class_gf(spec, trunc))


def test_pochhammer_products():
    # the cancelling pairs leave all-zero rows that must be dropped
    products = [[(PLAIN[0], -1), (PLAIN[1], 1)], [(PLAIN[0], 1), (PLAIN[0], -1)],
                [(spec, 1) for spec in MARKED], [(MARKED[0], -1), (MARKED[1], 1)],
                [(MARKED[0], 1), (MARKED[0], -1), (PLAIN[2], -1)]]
    for trunc in range(31):
        for factors in products:
            assert_canonical(poch_product(factors, trunc))
    for n in range(8):
        for spec in PLAIN + MARKED + [PochSpec(0, 1, sign=-1)]:
            assert_canonical(poch_finite(spec, n))
            assert_canonical(poch_finite(spec, n, trunc=12))


@pytest.mark.parametrize("spec", [sip.SCHUR_REFINED, sip.GLASGOW,
                                  SipClassSpec(1, (1,), (2,), markers=("u",)),
                                  SipClassSpec(2, (1, 2), (2, 3), markers=("u", "v"))],
                         ids=["weighted", "unmarked", "markers-k1", "markers-k2"])
def test_count_class(spec):
    for total in range(21):
        assert_canonical(sip.count_class(spec, total))


@pytest.mark.parametrize("row", [[1, 0, -2, 0], (0, 3, 0), [0, 0], [], None])
def test_shifted(row):
    # the 4-entry row at exp 3 fills trunc 6 exactly (exp + len(row) == trunc + 1);
    # exp > trunc leaves nothing
    dense = list(row or [])
    for exp in range(9):
        poly = _shifted(exp, row)
        assert_canonical(poly)
        assert poly == QSeries([0] * exp + dense)
        for trunc in (0, 2, 3, 5, 6, 7, 12):
            cut = _shifted(exp, row, trunc)
            assert_canonical(cut)
            assert cut == QSeries(([0] * exp + dense)[:trunc + 1], trunc=trunc)
