"""No builder of the package multiplies or inverts a series.

Every product, marked or not, is applied factor by factor to int lists,
so the dense ``QSeries.__mul__`` and ``QSeries.inverse`` stay public API,
read only by the tests' references and the benchmark's span counters.
With both refused, every registry side and oracle, every SIP table and
generating function, the closed forms, the lemma checks, the chain tables,
``verify_sip`` and each CLI subcommand must still run.
"""

import pytest

from qsip import catalog, cli, ncopies, sip
from qsip import closed_forms as cf
from qsip.qfactory import (CongruenceProductSpec, PochSpec, andrews_gordon_sum,
                           congruence_product, gaussian_binomial, poch_finite,
                           poch_infinite, poch_product, series_sum)
from qsip.series import QSeries

U3 = PochSpec(1, 3, sign=-1, marker="u")
V3 = PochSpec(2, 3, sign=-1, marker="v")


@pytest.fixture
def refuse_series_products(monkeypatch):
    def refuse(name):
        def refused(self, *args, **kwargs):
            raise AssertionError(f"QSeries.{name} called by a builder")
        return refused

    for name in ("__mul__", "__rmul__", "inverse"):
        monkeypatch.setattr(QSeries, name, refuse(name))
    gaussian_binomial.cache_clear()   # so no cached series hides a build


def test_refusal_is_in_force(refuse_series_products):
    one = QSeries.one(5)
    for use in (lambda: one * one, lambda: 2 * one, lambda: one.inverse()):
        with pytest.raises(AssertionError, match="called by a builder"):
            use()


def test_products_and_sums(refuse_series_products):
    assert poch_product([(U3, 1), (V3, 1), (PochSpec(1, 1, marker="u"), -1)], 30).trunc == 30
    assert poch_finite(U3, 5, None).trunc is None
    for sign in (1, -1):
        for offset in range(3):
            spec = PochSpec(offset, 2, sign=sign)
            poch_finite(spec, 6), poch_finite(spec, 6, trunc=20)
    poch_infinite(PochSpec(1, 2, sign=-1), 30)
    congruence_product(CongruenceProductSpec(5, frozenset({1, 4})), 30)
    series_sum((2, 0), [PochSpec(1, 2, sign=-1)], [PochSpec(2, 2)], 30)
    andrews_gordon_sum(3, 2, 30)
    for a in range(8):
        for b in range(a + 1):
            gaussian_binomial(a, b, base=2)


def test_registry_and_catalog_checks(refuse_series_products):
    for entry in catalog.REGISTRY.values():
        entry.lhs(30), entry.rhs(30), entry.oracle(12)
    assert all(result.passed for result in catalog.verify_all(30))
    assert catalog.oracle_concordance("glasgow-mod8", 12).passed
    assert catalog.telescope_check(6, 30).passed
    pivot = catalog.gollnitz_intermediate(30)
    assert pivot == catalog.get("gollnitz-gordon-1").lhs(30)
    catalog.substitute_neg_q_squared(pivot)


@pytest.mark.parametrize("name", sorted(sip.SPEC_REGISTRY))
def test_sip_tables(refuse_series_products, name):
    spec = sip.SPEC_REGISTRY[name]
    sip.class_gf(spec, 30)
    depth = 1
    while sip.min_basis_total(spec, depth + 1) <= 20:
        depth += 1
    table = sip.basis_table(spec, depth, 20)
    sip.assemble_gf(spec, table, 20)
    table.row_gf(2)
    assert sip.verify_sip(spec, 14).ok


def test_closed_forms_and_lemmas(refuse_series_products):
    for n in range(1, 5):
        for h in range(5):
            cf.gollnitz_closed(n, h), cf.combined_row_formula(n, h)
            cf.schur_closed(n, h, h % 3)
            cf.glasgow_closed(n + 1, h)
        cf.glasgow_row_sums(n + 1)
    assert all(cf.chu_vandermonde_check(r, s, n)
               for r in range(4) for s in range(1, 4) for n in range(4))
    assert all(cf.chu_vandermonde_series_check(r, s, 20) for r in range(4) for s in range(4))


def test_chain_tables(refuse_series_products):
    for r in (-1, 0, 1, 2):
        table = ncopies.exact_diff_table(r, 4, 10)
        table.level_gf(3)
        for m in range(1, 11):
            for j in range(1, m + 1):
                table.entry(3, m, j), ncopies.exact_diff_closed(r, 3, m, j)
        ncopies.base_gf(3, r, 30), ncopies.ncopies_gf(r, 30)


@pytest.mark.parametrize("argv", [
    ["verify", "--identity", "schur-refined", "--trunc", "20"],
    ["verify-all", "--trunc", "20", "--output", "json"],
    ["oracle", "--identity", "slater-6-corrected", "--total-max", "10"],
    ["basis", "--spec", "gollnitz", "--n", "3", "--h-max", "12"],
    ["decompose", "--spec", "glasgow", "--partition", "2,7,11"],
    ["table", "--spec", "schur-refined", "--n", "3", "--h-max", "12"],
])
def test_cli_subcommands(refuse_series_products, capsys, argv):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out
