"""Builders that hand their own int rows to ``QSeries._make`` unchecked.

Each such series must be exactly what the validating constructor would
make of the same rows: ``QSeries.from_rows`` rebuilt from the series' own
rows, zero-padded from q^0, gives identical rows ((start, list) pairs, each
list from its first nonzero to its last, no all-zero row, tuple keys, a
tuple registry), and every coefficient is a plain int.  No builder of the package enters the validating doors
(``QSeries.__init__``, ``QSeries.from_rows``), and ``_make`` rejects a
negative truncation for every builder that ends in it.
"""

import pytest

from qsip import catalog
from qsip import closed_forms as cf
from qsip import ncopies, sip
from qsip.partitions import (SipClassSpec, count_gordon, counting_series,
                             enumerate_partitions)
from qsip.qfactory import (CongruenceProductSpec, PochSpec, andrews_gordon_sum,
                           congruence_product, eta_theta_product, gaussian_binomial,
                           poch_finite, poch_infinite, poch_product, series_sum)
from qsip.series import QSeries, _shifted

PLAIN = [PochSpec(1, 1), PochSpec(1, 2, sign=-1), PochSpec(3, 4)]
MARKED = [PochSpec(1, 3, sign=-1, marker="u"), PochSpec(2, 3, sign=-1, marker="v")]


def assert_canonical(series):
    dense = {key: [0] * start + row for key, (start, row) in series._rows.items()}
    rebuilt = QSeries.from_rows(dense, series.trunc, series.markers)
    assert rebuilt._rows == series._rows
    assert (rebuilt.trunc, rebuilt.markers) == (series.trunc, series.markers)
    assert all(type(pair) is tuple and len(pair) == 2 for pair in series._rows.values())
    assert all(type(start) is int and start >= 0 and type(row) is list
               for start, row in series._rows.values())
    assert all(type(c) is int for _, row in series._rows.values() for c in row)
    assert all(row[0] and row[-1] for _, row in series._rows.values())


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
        for factors in products[:2]:
            assert_canonical(eta_theta_product(factors, trunc))
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
    dense = list(row or [])
    for exp in range(9):
        poly = _shifted(exp, row)
        assert_canonical(poly)
        assert poly == QSeries([0] * exp + dense)


def fresh_builds():
    """One series from each builder that hands a fresh row to ``_make``,
    edge cases included."""
    table = ncopies.exact_diff_table(1, 4, 8)
    out = [series_sum((0, 2), (), [PochSpec(1, 1)], t) for t in (0, 1, 9)]
    out += [andrews_gordon_sum(k, i, t) for k, i in [(2, 1), (3, 2)] for t in (0, 1, 15)]
    out += [gaussian_binomial(a, b, base=base) for a in range(6) for b in range(-1, a + 2)
            for base in (1, 2)]
    out += [ncopies.base_gf(parts, r, t) for parts in range(4) for r in (-1, 0, 2)
            for t in (0, 3, 12)]
    out += [ncopies.count_ncopies_over(t) for t in (0, 1, 10)]
    out += [table.entry(n, m, j) for n in (1, 2, 3) for m in range(1, 7) for j in range(1, m + 1)]
    out += [ncopies.exact_diff_closed(r, 1, m, j) for r in (-1, 0, 1)
            for m in range(1, 5) for j in range(1, 5)]
    out += [count_gordon(3, 2, t) for t in (0, 1, 12)]
    out += [counting_series(enumerate_partitions(t), t, markers=markers)
            for t in (0, 1, 8) for markers in ((), ("u",), ("u", "v"))]
    out += [catalog.substitute_neg_q_squared(catalog.get("euler-any").rhs(t)) for t in (0, 7)]
    out += [catalog.get("schur-refined").rhs(20)]
    return out


def test_fresh_rows_are_canonical():
    built = fresh_builds()
    for series in built:
        assert_canonical(series)
    # the edge cases are exactly zero, or q^m alone
    assert gaussian_binomial(3, -1) == gaussian_binomial(3, 4) == QSeries.zero()
    assert ncopies.base_gf(3, 0, 8) == QSeries.zero(8)
    assert ncopies.exact_diff_closed(0, 1, 4, 4) == QSeries.monomial(4)
    assert ncopies.exact_diff_closed(0, 1, 4, 3) == QSeries.zero()
    rhs = catalog.get("schur-refined").rhs(20)
    assert (9, 9) not in rhs.monomial_rows(20)
    marked = counting_series(enumerate_partitions(5), 5, markers=("u",))
    assert marked.markers == ("u",) and marked.coefficient(5) == 7


@pytest.fixture
def validating_entries(monkeypatch):
    """The name of each entry into ``QSeries.__init__`` or
    ``QSeries.from_rows`` from here on."""
    entered = []
    init, from_rows = QSeries.__init__, QSeries.from_rows.__func__

    def counted_init(self, *args, **kwargs):
        entered.append("__init__")
        init(self, *args, **kwargs)

    def counted_from_rows(cls, *args, **kwargs):
        entered.append("from_rows")
        return from_rows(cls, *args, **kwargs)

    monkeypatch.setattr(QSeries, "__init__", counted_init)
    monkeypatch.setattr(QSeries, "from_rows", classmethod(counted_from_rows))
    return entered


def test_builders_skip_the_validating_doors(validating_entries):
    gaussian_binomial.cache_clear()
    fresh_builds()
    for entry in catalog.REGISTRY.values():
        entry.lhs(30), entry.rhs(30), entry.oracle(12)
    for spec in sip.SPEC_REGISTRY.values():
        sip.class_gf(spec, 30)
        sip.basis_table(spec, 4, 20)
    for n in range(1, 5):
        for h in range(5):
            cf.gollnitz_closed(n, h), cf.combined_row_formula(n, h)
            cf.schur_closed(n, h, h % 3)
            cf.glasgow_closed(n + 1, h)
        cf.glasgow_row_sums(n + 1)
    for r in (-1, 0, 1):
        table = ncopies.exact_diff_table(r, 5, 10)
        table.level_gf(3)
        for m in range(1, 11):
            for j in range(1, m + 1):
                table.entry(3, m, j), ncopies.exact_diff_closed(r, 3, m, j)
    assert validating_entries == []
    # the counter sees both doors
    QSeries([1], trunc=0), QSeries.from_rows({(): [1]})
    assert validating_entries == ["__init__", "from_rows"]


TRUNC_CHECKED = {
    "poch_product": lambda t: poch_product([(PochSpec(1, 1), -1)], t),
    "eta_theta_product": lambda t: eta_theta_product([(PochSpec(1, 1), -1)], t),
    "poch_infinite": lambda t: poch_infinite(PochSpec(1, 2, sign=-1), t),
    "congruence_product": lambda t: congruence_product(
        CongruenceProductSpec(5, frozenset({1, 4})), t),
    "poch_finite": lambda t: poch_finite(PochSpec(1, 1), 3, trunc=t),
    "schur-refined product": lambda t: catalog.get("schur-refined").rhs(t),
    "series_sum": lambda t: series_sum((0, 2), (), [PochSpec(1, 1)], t),
    "andrews_gordon_sum": lambda t: andrews_gordon_sum(3, 3, t),
    "base_gf": lambda t: ncopies.base_gf(2, 0, t),
    "class_gf": lambda t: sip.class_gf(sip.NATURAL, t),
    "_make": lambda t: QSeries._make({(): [1]}, t, ()),
}


@pytest.mark.parametrize("build", TRUNC_CHECKED.values(), ids=TRUNC_CHECKED)
def test_negative_truncation_rejected(build):
    with pytest.raises(ValueError, match="^truncation order must be non-negative$"):
        build(-1)
    assert build(0).trunc == 0
