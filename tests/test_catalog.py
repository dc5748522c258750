"""Identity registry: verification, oracles, telescoping, proof pivots."""

import inspect
import sys
from collections import Counter
from functools import partial
from operator import add

import pytest

import reference
from qsip import catalog, partitions, qfactory
from qsip import series as series_module
from qsip import ncopies as nc
from qsip.catalog import (TelescopeResult, UnknownIdentity, gollnitz_intermediate,
                          oracle_concordance, substitute_neg_q_squared,
                          telescope_check, verify, verify_all)
from qsip.closed_forms import chu_vandermonde_series_check, glasgow_row_sums
from qsip.partitions import count_gordon, counting_series, enumerate_partitions
from qsip.qfactory import (CongruenceProductSpec, PochSpec, andrews_gordon_sum,
                           congruence_product, gaussian_binomial, poch_finite,
                           poch_infinite, series_sum)
from qsip.series import QSeries
from qsip.sip import (DISTINCT, GLASGOW, GOLLNITZ_GORDON, NATURAL, ROGERS_RAMANUJAN,
                      SCHUR_REFINED, class_gf, enumerate_class)

ALL_IDS = [
    "euler-any", "euler-distinct", "rogers-ramanujan", "gollnitz-gordon-1",
    "schur-refined", "glasgow-mod8", "slater-46", "slater-61", "slater-81",
    "slater-6-corrected", "slater-86", "mod7-sum",
]


class TestVerify:
    def test_registry_complete(self):
        assert sorted(catalog.identity_ids()) == sorted(ALL_IDS)

    @pytest.mark.parametrize("identity", ALL_IDS)
    def test_each_identity(self, identity):
        res = verify(identity, 40)
        assert res.passed, res.summary()
        assert res.first_mismatch is None

    def test_rogers_ramanujan_deep(self):
        assert verify("rogers-ramanujan", 50).passed

    def test_bivariate_cap(self):
        # the bivariate entry is checked at the requested truncation, uncapped
        res = verify("schur-refined", 40)
        assert res.trunc == 40 and res.passed

    def test_verify_all_deep(self):
        results = verify_all(120)
        assert all(r.passed and r.trunc == 120 for r in results), \
            [r.summary() for r in results if not r.passed]

    def test_verify_all_covers_registry(self):
        results = verify_all(30)
        assert sorted(r.identity for r in results) == sorted(ALL_IDS)
        assert all(r.passed for r in results)

    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentity):
            verify("not-a-thing", 10)

    def test_glasgow_count(self):
        entry = catalog.get("glasgow-mod8")
        assert entry.rhs(12).coefficient(10) == 8
        assert entry.lhs(12).coefficient(10) == 8


class TestSchurRefined:
    def test_specializes_to_distinct_nonmultiples(self):
        t = 25
        ones = {"u": 1, "v": 1}
        rhs = [c.specialize(ones) for c in catalog.get("schur-refined").rhs(t).coeffs]
        plain = poch_infinite(PochSpec(1, 3, sign=-1), t) \
            * poch_infinite(PochSpec(2, 3, sign=-1), t)
        assert rhs == plain.int_coefficients(t)
        sixes = (poch_infinite(PochSpec(1, 6), t)
                 * poch_infinite(PochSpec(5, 6), t)).inverse(t)
        assert rhs == sixes.int_coefficients(t)

    def test_marker_refinement_head(self):
        lhs = catalog.get("schur-refined").lhs(6)
        u = lhs.coefficient(1)
        v = lhs.coefficient(2)
        assert u.terms == {(1, 0): 1}
        assert v.terms == {(0, 1): 1}


class TestOracles:
    @pytest.mark.parametrize("identity", ALL_IDS)
    def test_three_way_agreement(self, identity):
        res = oracle_concordance(identity, 16)
        assert res.passed, res.summary()

    def test_an_entry_needs_an_oracle(self):
        with pytest.raises(TypeError, match="oracle"):
            catalog.IdentityEntry("bare", "no oracle",
                                  lhs=lambda t: QSeries.one(t), rhs=lambda t: QSeries.one(t))

    def test_mod8_listed_partitions(self):
        allowed = CongruenceProductSpec(8, frozenset({0, 2, 3, 4, 7}), "allowed")
        hits = {p for p in enumerate_partitions(10)
                if sum(p) == 10 and all(allowed.admits(x) for x in p)}
        assert hits == {
            (10,), (2, 8), (3, 7), (3, 3, 4), (2, 4, 4), (2, 2, 2, 4),
            (2, 2, 3, 3), (2, 2, 2, 2, 2),
        }


def table_member(k, table):
    """Membership by a table {p % k: (least part, least gap below it)},
    the gap checked from the second part on."""
    def admits(parts):
        prev = None
        for p in parts:
            least, gap = table[p % k]
            if p < least or prev is not None and p - prev < gap:
                return False
            prev = p
        return True
    return admits


def gordon_rule(k, i):
    """Gordon's frequency condition, read off each partition's part counts:
    f_1 <= i - 1 and f_j + f_(j+1) <= k - 1 for every j."""
    def admits(parts):
        f = Counter(parts)
        return f[1] <= i - 1 and all(f[j] + f[j + 1] <= k - 1 for j in f)
    return admits


# identity -> (test-local membership rule, (u, v) exponents by p % 3 or None)
CLASS_ORACLES = {
    "euler-any": (lambda parts: True, None),
    "euler-distinct": (lambda parts: len(set(parts)) == len(parts), None),
    "rogers-ramanujan": (lambda parts: all(b - a >= 2 for a, b in zip(parts, parts[1:])),
                         None),
    "gollnitz-gordon-1": (table_member(2, {1: (1, 2), 0: (2, 3)}), None),
    "glasgow-mod8": (table_member(2, {1: (3, 3), 0: (2, 0)}), None),
    "schur-refined": (table_member(3, {1: (1, 3), 2: (2, 3), 0: (3, 4)}),
                      {1: (1, 0), 2: (0, 1), 0: (1, 1)}),
}


def reference_class_counts(identity, total):
    """Coefficients of q^0..q^total, one row per marker monomial, by
    filtering every partition and counting in a local loop: no code shared
    with the class walk."""
    admits, weights = CLASS_ORACLES[identity]
    counts = {}
    for parts in enumerate_partitions(total):
        if admits(parts):
            key = ()
            if weights is not None:
                key = tuple(sum(weights[p % 3][i] for p in parts) for i in range(2))
            counts.setdefault(key, [0] * (total + 1))[sum(parts)] += 1
    return counts


class TestClassOracles:
    @pytest.mark.parametrize("identity", list(CLASS_ORACLES))
    def test_matches_filtered_partitions(self, identity):
        oracle = catalog.get(identity).oracle
        expected = reference_class_counts(identity, 18)
        for total in range(19):
            got = oracle(total)
            assert got.markers == (("u", "v") if identity == "schur-refined" else ())
            want = {key: row[:total + 1] for key, row in expected.items() if any(row[:total + 1])}
            assert got.monomial_rows(total) == want, total

    def test_no_partition_walk(self, monkeypatch):
        def unused(*args, **kwargs):
            raise AssertionError("a class oracle walked every partition")

        monkeypatch.setattr(partitions, "enumerate_partitions", unused)
        monkeypatch.setattr(catalog, "enumerate_partitions", unused, raising=False)
        for identity in CLASS_ORACLES:
            assert oracle_concordance(identity, 12).passed, identity


def marker_product(spec):
    """Weight of a member: the product of its parts' marker monomials, as its
    exponent vector."""
    def weight(parts):
        w = (0,) * len(spec.markers)
        for p in parts:
            w = tuple(map(add, w, spec.weight(p)))
        return w
    return weight


def _class_reference(spec):
    weight = marker_product(spec) if spec.weights else None
    return lambda t: counting_series(enumerate_class(spec, t), t, size=sum,
                                     weight=weight, markers=spec.markers)


def _ncopies_reference(r):
    return lambda t: counting_series(nc.enumerate_ncopies(t, min_diff=r), t,
                                     size=nc.copy_total)


# identity -> its counting oracle recomputed by counting_series over the
# public tuple (or object) enumerator of the same class
REFERENCE_ENUMERATIONS = {
    "euler-any": _class_reference(NATURAL),
    "euler-distinct": _class_reference(DISTINCT),
    "rogers-ramanujan": _class_reference(ROGERS_RAMANUJAN),
    "gollnitz-gordon-1": _class_reference(GOLLNITZ_GORDON),
    "schur-refined": _class_reference(SCHUR_REFINED),
    "glasgow-mod8": _class_reference(GLASGOW),
    "slater-46": _ncopies_reference(1),
    "slater-61": _ncopies_reference(0),
    "slater-81": _ncopies_reference(-1),
    # every overlined object built, not the 2^s weight of the counting walk
    "slater-6-corrected": lambda t: counting_series(nc.enumerate_ncopies_over(t), t),
    "slater-86": lambda t: counting_series(nc.enumerate_even_subscript(t), t,
                                           size=nc.copy_total),
    # Gordon's frequency condition for k = i = 3, filtered from every partition
    "mod7-sum": lambda t: counting_series(enumerate_partitions(t, gordon_rule(3, 3)), t),
}


class TestCountingWalks:
    def test_every_oracle_has_a_reference(self):
        assert sorted(REFERENCE_ENUMERATIONS) == sorted(ALL_IDS)

    @pytest.mark.parametrize("identity", ALL_IDS)
    def test_matches_reference_enumerator(self, identity):
        oracle = catalog.get(identity).oracle
        reference = REFERENCE_ENUMERATIONS[identity]
        for total in range(21):
            got, want = oracle(total), reference(total)
            assert got.markers == want.markers and got.trunc == want.trunc == total
            assert got.monomial_rows(total) == want.monomial_rows(total), total

    @pytest.mark.parametrize("identity", ALL_IDS)
    def test_concordance_at_benchmark_size(self, identity):
        # the largest total the oracle-enum benchmark runs
        res = oracle_concordance(identity, 30)
        assert res.passed, res.summary()


def mod7_double_sum(t):
    """The mod-7 double sum by the route of its old registry hook, on dense
    series arithmetic: the sum over n of q^(n^2) / (q)_n times the inner sum
    over m of q^(m^2) [n, m], with 1/(q)_n a product of geometric series."""
    total, reciprocal, n = QSeries.zero(t), QSeries.one(t), 0
    while n * n <= t:
        if n:
            reciprocal = reciprocal * QSeries([int(e % n == 0) for e in range(t + 1)], trunc=t)
        inner = sum((QSeries.monomial(m * m) * gaussian_binomial(n, m) for m in range(n + 1)),
                    QSeries.zero())
        total = total + QSeries.monomial(n * n, trunc=t) * inner * reciprocal
        n += 1
    return total


def gordon_product(k, i, t):
    """The product over n not congruent to 0 or +-i (mod 2k + 1) of 1/(1 - q^n)."""
    m = 2 * k + 1
    return congruence_product(CongruenceProductSpec(m, frozenset({0, i, m - i}), "excluded"), t)


GORDON_PAIRS = [(k, i) for k in (2, 3, 4) for i in range(1, k + 1)]


class TestAndrewsGordon:
    def test_mod7_side_matches_binomial_double_sum(self):
        reference = mod7_double_sum(150)
        lhs = catalog.get("mod7-sum").lhs
        for t in range(151):
            got = lhs(t)
            assert got.trunc == t and got.first_mismatch(reference) is None, t

    @pytest.mark.parametrize("k, i", GORDON_PAIRS)
    def test_sum_matches_product(self, k, i):
        assert andrews_gordon_sum(k, i, 200) == gordon_product(k, i, 200)

    @pytest.mark.parametrize("k, i", GORDON_PAIRS)
    def test_walk_matches_filtered_partitions(self, k, i):
        expected = counting_series(enumerate_partitions(20, gordon_rule(k, i)), 20)
        for total in range(21):
            got = count_gordon(k, i, total)
            assert got.trunc == total and got.first_mismatch(expected) is None, total

    @pytest.mark.parametrize("k, i", GORDON_PAIRS)
    def test_walk_matches_product(self, k, i):
        assert count_gordon(k, i, 30) == gordon_product(k, i, 30)

    @pytest.mark.parametrize("k, i", [(1, 1), (3, 0), (3, 4)])
    def test_rejects_bad_parameters(self, k, i):
        with pytest.raises(ValueError):
            andrews_gordon_sum(k, i, 10)
        with pytest.raises(ValueError):
            count_gordon(k, i, 10)

    def test_rejects_negative_sizes(self):
        with pytest.raises(ValueError, match="truncation order must be non-negative"):
            andrews_gordon_sum(3, 3, -1)
        with pytest.raises(ValueError, match="total_max must be non-negative"):
            count_gordon(3, 3, -1)


class TestSlater81Correction:
    def test_two_color_structure(self):
        # the stored product: all residues mod 14 except 0 and +-6, with a
        # second color on +-3
        t = 60
        base = congruence_product(
            CongruenceProductSpec(14, frozenset({0, 6, 8}), "excluded"), t)
        colors = (poch_infinite(PochSpec(3, 14), t)
                  * poch_infinite(PochSpec(11, 14), t)).inverse(t)
        assert catalog.get("slater-81").rhs(t) == base * colors

    def test_narrow_residue_product_is_rejected(self):
        # dropping the +-1 and +-5 classes (keeping only +-2, +-3, +-4 and
        # unrepeated multiples of 7) already disagrees at q^1
        t = 30
        narrow = congruence_product(
            CongruenceProductSpec(14, frozenset({2, 3, 4, 10, 11, 12}),
                                  "allowed"), t)
        narrow = narrow * (poch_infinite(PochSpec(3, 14), t)
                           * poch_infinite(PochSpec(11, 14), t)).inverse(t)
        narrow = narrow * poch_infinite(PochSpec(7, 7, sign=-1), t)
        assert catalog.get("slater-81").lhs(t).first_mismatch(narrow) == 1


class TestOverpartitionConventions:
    def test_doubling_starts_at_one_part(self):
        lhs = catalog.get("slater-6-corrected").lhs(10)
        assert lhs.coefficient(0) == 1
        assert lhs.coefficient(1) == 2

    def test_product_head(self):
        rhs = catalog.get("slater-6-corrected").rhs(10)
        assert rhs.int_coefficients(4) == [1, 2, 4, 6, 10]


class TestTelescoping:
    def test_first_partial_sum(self):
        t = 20
        lhs = QSeries.one(t) + (QSeries.monomial(2, trunc=t)
                                + QSeries.monomial(3, trunc=t)) \
            * poch_finite(PochSpec(2, 2), 1, trunc=t).inverse(t)
        rhs = (QSeries.one(t) + QSeries.monomial(3, trunc=t)) \
            * poch_finite(PochSpec(2, 2), 1, trunc=t).inverse(t)
        assert lhs == rhs

    def test_depth_eight(self):
        res = telescope_check(8, 30)
        assert isinstance(res, TelescopeResult)
        assert res.passed, res.failures

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            telescope_check(0, 10)

    def test_fails_when_the_numerator_does_not_lag(self, monkeypatch):
        # a numerator that does not lag, g_i = (1 + q^(4i+3))/(1 - q^(2i+2))
        # for every i >= 0: summand N carries (-q^3; q^4)_N, not _(N-1)
        summands = catalog._mod8_summands

        def no_lag(trunc):
            terms, factors = summands(trunc)
            return terms, [[(1, 4 * i + 3, 1), (-1, 2 * i + 2, -1)]
                           for i in range(len(factors))]

        monkeypatch.setattr(catalog, "_mod8_summands", no_lag)
        res = telescope_check(8, 30)
        assert not res.passed
        assert any(f.startswith("partial sum") for f in res.failures)
        assert any(f.startswith("closed-form difference") for f in res.failures)
        # the series side reads the same list, so the registry sees it too
        assert verify("glasgow-mod8", 30).first_mismatch == 5
        concord = oracle_concordance("glasgow-mod8", 20)
        assert not concord.passed and concord.oracle_vs_lhs == 5

    def test_summands_past_the_cut_cost_no_sum(self, monkeypatch):
        # a summand starting past q^trunc (2N > trunc) is zero: no call for it
        calls = []
        nested_sum = catalog._nested_sum

        def counted(*args):
            calls.append(args)
            return nested_sum(*args)

        monkeypatch.setattr(catalog, "_nested_sum", counted)
        assert telescope_check(200, 10).passed
        assert len(calls) <= 6   # N = 0..5

    def test_each_side_moves_one_factor_per_term(self, monkeypatch):
        # O(n_max * trunc): rebuilding both sides for each N took ~7,000 kernel calls here
        calls = []
        for module in (series_module, qfactory):
            kernel = module.binomial_factor

            def counted(*args, kernel=kernel, **kwargs):
                calls.append(args)
                return kernel(*args, **kwargs)

            monkeypatch.setattr(module, "binomial_factor", counted)
        assert telescope_check(60, 120).passed
        assert 0 < len(calls) <= 600


class TestMod8Sum:
    """The mod-8 series side against a sum that shares no code with
    ``_nested_sum``: each summand built from its formula by test-side
    ``QSeries`` arithmetic."""

    @staticmethod
    def numerator_and_denominator(n):
        # summand n of the list, split into its numerator q^o R_n times the
        # power-1 factors of g_0 .. g_(n-1) and the product of its power -1 ones
        terms, factors = catalog._mod8_summands(4 * n + 2)
        offset, row = terms[n]
        num, den = QSeries.monomial(offset) * QSeries(row), QSeries.one()
        for g in factors[:n]:
            for c, e, power in g:
                factor = QSeries([1] + [0] * (e - 1) + [c])
                if power == 1:
                    num = num * factor
                else:
                    den = den * factor
        return num, den

    @staticmethod
    def reference(trunc):
        total = QSeries.one(trunc)
        for n in range(1, trunc // 2 + 1):
            piece = QSeries.monomial(2 * n, trunc=trunc) + QSeries.monomial(4 * n - 1, trunc=trunc)
            total = total + piece * poch_finite(PochSpec(3, 4, sign=-1), n - 1, trunc=trunc) \
                * poch_finite(PochSpec(2, 2), n, trunc=trunc).inverse(trunc)
        return total

    @pytest.mark.parametrize("trunc", [0, 1, 2, 3, 7, 20, 41, 60])
    def test_matches_summands_built_from_the_formula(self, trunc):
        assert catalog.mod8_sum(trunc) == self.reference(trunc)

    def test_numerators_are_the_basis_row_sums(self):
        num, den = self.numerator_and_denominator(1)
        assert num == QSeries.monomial(2) + QSeries.monomial(3)
        assert den == poch_finite(PochSpec(2, 2), 1)
        for n in range(2, 11):
            num, den = self.numerator_and_denominator(n)
            assert num == sum(glasgow_row_sums(n).values(), QSeries.zero()), n
            assert den == poch_finite(PochSpec(2, 2), n), n

    def test_series_equals_class_equals_product(self):
        series = catalog.mod8_sum(200)
        assert class_gf(GLASGOW, 200) == series
        assert catalog.get("glasgow-mod8").rhs(200) == series


def test_registry_holds_only_data():
    # every side and oracle is a library function, or a partial of one
    # whose bound data holds no callable: no registry row carries code
    def library_function(f):
        return (inspect.isfunction(f) and f.__module__.startswith("qsip.")
                and getattr(sys.modules[f.__module__], f.__name__, None) is f)

    def holds_callable(value):
        if callable(value):
            return True
        if isinstance(value, (list, tuple)):
            return any(holds_callable(v) for v in value)
        return False

    for entry in catalog.REGISTRY.values():
        for build in (entry.lhs, entry.rhs, entry.oracle):
            if build is None:
                continue
            if isinstance(build, partial):
                assert library_function(build.func), (entry.id, build)
                assert not holds_callable(list(build.args) + list(build.keywords.values())), \
                    (entry.id, build)
            else:
                assert library_function(build), (entry.id, build)
    assert "extra" not in inspect.signature(series_sum).parameters


@pytest.mark.parametrize("build", [
    pytest.param(partial(telescope_check, 3, 10**20), id="telescope_check"),
    pytest.param(partial(chu_vandermonde_series_check, 2, 2, 10**20), id="chu_series"),
    pytest.param(partial(andrews_gordon_sum, 4, 2, 10**20), id="andrews_gordon_sum"),
    pytest.param(partial(class_gf, GLASGOW, 10**20), id="class_gf"),
    pytest.param(partial(class_gf, SCHUR_REFINED, 10**20), id="class_gf_marked"),
    pytest.param(partial(series_sum, (0, 2), (), [PochSpec(1, 1)], 10**20), id="series_sum"),
    pytest.param(partial(catalog.mod8_sum, 10**20), id="mod8_sum"),
])
def test_huge_sums_fail_before_any_term(build):
    # each allocates its trunc + 1 output first; a term list would run toward 10**20
    with pytest.raises(OverflowError):
        build()


class TestGollnitzPivot:
    def test_intermediate_form_matches_both_sides(self):
        t = 40
        entry = catalog.get("gollnitz-gordon-1")
        pivot = gollnitz_intermediate(t)
        assert pivot == entry.lhs(t)
        assert pivot == entry.rhs(t)

    def test_negative_square_substitution(self):
        # the classical pivot: the class series at -q^2 equals
        # (q^2; q^4) / (q^4; q^4) times the two-sided sum of q^(8n^2 - 2n)
        t = 30
        series = catalog.get("gollnitz-gordon-1").lhs(t)
        sub = substitute_neg_q_squared(series)
        big = sub.trunc
        rhs = poch_infinite(PochSpec(2, 4), big) \
            * poch_infinite(PochSpec(4, 4), big).inverse(big) \
            * QSeries(reference.theta_sum(8, -2, big), trunc=big)
        assert sub == rhs

    def test_substitution_contract(self):
        s = QSeries([1, 1, 1], trunc=2)
        assert substitute_neg_q_squared(s) == QSeries([1, 0, -1, 0, 1, 0],
                                                      trunc=5)


class TestReportShapes:
    def test_verify_summary_text(self):
        res = verify("euler-any", 12)
        assert "euler-any" in res.summary() and "pass" in res.summary()

    def test_concordance_summary_text(self):
        res = oracle_concordance("euler-any", 8)
        assert "oracle = lhs = rhs" in res.summary()
