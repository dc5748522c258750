"""Subscripted partitions: weighted differences, chains, overlined variants."""

from collections import Counter, defaultdict
from functools import partial

import pytest

import reference
from qsip import catalog, ncopies, partitions
from qsip.ncopies import (ConstraintViolation, CopyPart, base_decompose,
                          base_gf, base_recompose, copy_total, count_ncopies,
                          count_even_subscript, count_ncopies_over, enumerate_base,
                          enumerate_even_subscript, enumerate_ncopies,
                          enumerate_ncopies_over, exact_diff_closed,
                          exact_diff_table, is_diagonal, ncopies_gf,
                          weighted_difference)
from qsip.partitions import counting_series
from qsip.qfactory import PochSpec, poch_finite, poch_product
from qsip.series import QSeries


def P(value, sub):
    return CopyPart(value, sub)


def unpruned_ncopies(total_max, admits):
    """Reference enumerator: every (value, sub) candidate in ascending lex
    order, kept when ``admits(candidate, last)`` holds (last is None for
    the first part).  Recursive on purpose; it shares no rule with the
    pruned successor ranges of the package."""
    def gen(prefix, remaining):
        yield prefix
        last = prefix[-1] if prefix else None
        for value in range(1, remaining + 1):
            for sub in range(1, value + 1):
                cand = CopyPart(value, sub)
                if admits(cand, last):
                    yield from gen(prefix + (cand,), remaining - value)
    return list(gen((), total_max))


def admits_min_diff(r):
    if r is None:
        return lambda cand, last: last is None or cand >= last
    return lambda cand, last: (last is None
                               or weighted_difference(cand, last) >= r)


def admits_even_subscript(cand, last):
    if cand.sub % 2:
        return False
    if last is None:
        return True
    wd = weighted_difference(cand, last)
    return wd > 0 or wd == 0 and not (cand.value % 2 and last.value % 2)


def admits_base(r):
    return lambda cand, last: (is_diagonal(cand) if last is None
                               else weighted_difference(cand, last) == r)


class TestWeightedDifference:
    def test_examples(self):
        assert weighted_difference(P(7, 2), P(3, 2)) == 0
        assert weighted_difference(P(2, 2), P(1, 1)) == -2
        assert weighted_difference(P(8, 6), P(1, 1)) == 0

    def test_successive_bound_implies_pairwise(self):
        # once successive weighted differences are >= r >= -1, every pair of
        # parts is too (the middle subscripts only help)
        for r in (-1, 0, 1):
            for parts in enumerate_ncopies(12, min_diff=r):
                for i in range(len(parts)):
                    for j in range(i + 1, len(parts)):
                        assert weighted_difference(parts[j], parts[i]) >= r


class TestEnumerate:
    def test_six_partitions_of_three(self):
        hits = {p for p in enumerate_ncopies(3) if copy_total(p) == 3}
        assert hits == {
            (P(3, 1),), (P(3, 2),), (P(3, 3),),
            (P(1, 1), P(2, 1)), (P(1, 1), P(2, 2)),
            (P(1, 1), P(1, 1), P(1, 1)),
        }

    def test_total_zero(self):
        assert list(enumerate_ncopies(0)) == [()]

    @pytest.mark.parametrize("r", [None, -1, 0, 1, 2])
    def test_pruned_matches_unpruned_filter_in_order(self, r):
        assert list(enumerate_ncopies(14, min_diff=r)) == \
            unpruned_ncopies(14, admits_min_diff(r))

    @pytest.mark.parametrize("r", [-2, -3])
    def test_difference_below_minus_one_rejected(self, r):
        # below -1 a part may fall back in value, so neither the lex order
        # of the enumerator nor the strictly rising walk of the count holds
        with pytest.raises(ValueError, match="at least -1"):
            enumerate_ncopies(4, min_diff=r)
        with pytest.raises(ValueError, match="at least -1"):
            count_ncopies(6, r)

    def test_positive_difference_of_nine(self):
        # with strictly positive weighted differences and a diagonal bottom
        # forced out, partitions of 9 are counted by the min_diff=1 class
        hits = [p for p in enumerate_ncopies(9, min_diff=1) if copy_total(p) == 9]
        series = ncopies_gf(1, 9)
        assert len(hits) == series.int_coefficients(9)[9]


class TestBaseChains:
    @pytest.mark.parametrize("r", [-1, 0, 1, 2])
    def test_pruned_matches_unpruned_filter_in_order(self, r):
        assert list(enumerate_base(14, r)) == unpruned_ncopies(14, admits_base(r))

    def test_exact_difference_and_diagonal_start(self):
        for r in (-1, 0, 1):
            for chain in enumerate_base(14, r):
                if chain:
                    assert is_diagonal(chain[0])
                    for lo, hi in zip(chain, chain[1:]):
                        assert weighted_difference(hi, lo) == r

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError, match="total_max must be non-negative"):
            enumerate_base(-1, 0)

    def test_m2_of_nine(self):
        hits = [c for c in enumerate_base(9, 0) if copy_total(c) == 9]
        assert {tuple(map(tuple, c)) for c in hits} == {
            ((9, 9),), ((1, 1), (8, 6)), ((2, 2), (7, 3)),
            ((1, 1), (3, 1), (5, 1)),
        }

    def test_decompose_round_trip(self):
        for r in (-1, 0, 1):
            for parts in enumerate_ncopies(14, min_diff=r):
                if not parts:
                    continue
                base, attached = base_decompose(parts, r)
                assert base_recompose(base, attached) == parts
                assert list(attached) == sorted(attached)
                assert all(a >= 0 for a in attached)
                assert [p.sub for p in parts] == [b.sub for b in base]
                assert is_diagonal(base[0])

    def test_bijection_counts(self):
        # attaching ordinary partitions to chains reproduces the class counts
        t = 18
        for r in (-1, 0, 1):
            stream = enumerate_ncopies(t, min_diff=r)
            assert counting_series(stream, t, size=copy_total) == ncopies_gf(r, t)

    def test_constraint_violation(self):
        with pytest.raises(ConstraintViolation):
            base_decompose((P(1, 1), P(2, 2)), 0)

    def test_attached_all_zero_is_identity(self):
        for chain in enumerate_base(12, 1):
            if chain:
                base, attached = base_decompose(chain, 1)
                assert base == chain
                assert set(attached) <= {0}


def reference_exact_diff_table(r, max_n, max_m):
    """The chain table by its (n, m, j, i) recurrence on QSeries:
    g(n, m, j) = q^m * sum over i of g(n-1, m - j - i - r, i)."""
    entries = {}
    for m in range(1, max_m + 1):
        entries[(1, m, m)] = QSeries.monomial(m)
    for n in range(2, max_n + 1):
        for m in range(1, max_m + 1):
            for j in range(1, m + 1):
                acc = QSeries.zero()
                hit = False
                for i in range(1, m + 1):
                    prev = entries.get((n - 1, m - j - i - r, i))
                    if prev is not None:
                        acc = acc + prev
                        hit = True
                if hit:
                    entries[(n, m, j)] = QSeries.monomial(m) * acc
    return entries


class TestExactDiffTable:
    def test_matches_reference_recurrence(self):
        # every index in and around the table, so zero entries, j = 0,
        # j > m and n, m past the bounds are checked too
        for r in (-1, 0, 1, 2):
            tbl = exact_diff_table(r, 6, 18)
            want = reference_exact_diff_table(r, 6, 18)
            for n in range(8):
                for m in range(20):
                    for j in range(m + 2):
                        assert tbl.entry(n, m, j) == \
                            want.get((n, m, j), QSeries.zero()), (r, n, m, j)

    def test_rejects_non_positive_max_m(self):
        for max_m in (0, -5):
            with pytest.raises(ValueError, match="max_m"):
                exact_diff_table(0, 3, max_m)

    def test_seed_line(self):
        tbl = exact_diff_table(0, 3, 10)
        for m in range(1, 11):
            assert tbl.entry(1, m, m) == QSeries.monomial(m)
            for j in range(1, m):
                assert tbl.entry(1, m, j) == QSeries.zero()

    def test_matches_enumeration(self):
        for r in (-1, 0, 1, 2):
            tbl = exact_diff_table(r, 6, 18)
            counted = defaultdict(Counter)
            for chain in enumerate_base(18, r):
                if chain:
                    top = chain[-1]
                    counted[(len(chain), top.value, top.sub)][copy_total(chain)] += 1
            for (n, m, j), totals in counted.items():
                if n <= 6 and m <= 18:
                    got = tbl.entry(n, m, j)
                    for e in range(19):
                        assert got.coefficient(e) == totals.get(e, 0), \
                            (r, n, m, j, e)

    def test_level_sums_match_closed_gf(self):
        t = 40
        for r in (-1, 0, 1):
            tbl = exact_diff_table(r, 6, t)
            for n in range(1, 7):
                level = tbl.level_gf(n)
                want = base_gf(n, r, t)
                assert level.first_mismatch(want) is None, (r, n)

    def test_level_sums_match_entry_sums(self):
        for r in (-1, 0, 1, 2):
            tbl = exact_diff_table(r, 6, 18)
            for n in range(8):
                want = QSeries.zero()
                for m in range(1, 19):
                    for j in range(1, m + 1):
                        want = want + tbl.entry(n, m, j)
                assert tbl.level_gf(n) == want, (r, n)


class TestExactDiffClosed:
    def test_two_part_anchor(self):
        # two parts, even value over odd subscript: q^(3M - J - R + 1) where
        # the top part is (2M) with subscript (2J - 1) and r = 2R - 1
        for R in (0, 1, 2):
            r = 2 * R - 1
            for M in range(1, 7):
                for J in range(1, M + 1):
                    got = exact_diff_closed(r, 2, 2 * M, 2 * J - 1)
                    i = M - J - R + 1  # forced bottom subscript
                    if 1 <= i:
                        assert got == QSeries.monomial(3 * M - J - R + 1)
                    else:
                        assert got == QSeries.zero()

    def test_table_concordance(self):
        for r in (-1, 0, 1, 2):
            tbl = exact_diff_table(r, 8, 16)
            for n in range(1, 9):
                for m in range(1, 17):
                    for j in range(1, m + 1):
                        assert exact_diff_closed(r, n, m, j) == tbl.entry(n, m, j), \
                            (r, n, m, j)

    def test_table_concordance_larger_differences(self):
        for r in (3, 4, 5, 6):
            tbl = exact_diff_table(r, 8, 30)
            for n in range(1, 9):
                for m in range(1, 31):
                    for j in range(1, m + 1):
                        assert exact_diff_closed(r, n, m, j) == tbl.entry(n, m, j), \
                            (r, n, m, j)

    def test_deep_table_concordance(self):
        for r in (-1, 0, 1, 2):
            tbl = exact_diff_table(r, 8, 60)
            for n in range(1, 9):
                for m in range(1, 61):
                    for j in range(1, m + 1):
                        assert exact_diff_closed(r, n, m, j) == tbl.entry(n, m, j), \
                            (r, n, m, j)

    def test_off_pattern_zero(self):
        # odd difference, even part count: diagonal-parity tops are impossible
        assert exact_diff_closed(1, 2, 4, 2) == QSeries.zero()
        assert exact_diff_closed(1, 2, 5, 1) == QSeries.zero()
        # even difference: mixed-parity tops are impossible
        assert exact_diff_closed(0, 2, 4, 1) == QSeries.zero()
        assert exact_diff_closed(0, 3, 5, 2) == QSeries.zero()


class TestChainGf:
    def test_empty_chain(self):
        assert base_gf(0, 0, 10) == QSeries.one(10)

    def test_exact_zero_difference_form(self):
        t = 40
        for m in range(7):
            want = QSeries.monomial(m * m, trunc=t) \
                * poch_finite(PochSpec(1, 2), m, trunc=t).inverse(t)
            assert base_gf(m, 0, t) == want

    def test_negative_one_matches_gapless_odd_mock_series(self):
        t = 40
        total = QSeries.zero(t)
        n = 0
        while n * (n + 1) // 2 <= t:
            total = total + QSeries.monomial(n * (n + 1) // 2, trunc=t) \
                * poch_finite(PochSpec(1, 2), n, trunc=t).inverse(t)
            n += 1
        summed = QSeries.zero(t)
        m = 0
        while m * (m + 1) // 2 <= t:
            summed = summed + base_gf(m, -1, t)
            m += 1
        assert summed == total

    def test_diagonal_square_series(self):
        # the exact-zero class with diagonal bottoms is counted by
        # sum q^(m^2) / (q; q^2)_m; sanity-check a few coefficients
        t = 25
        total = QSeries.zero(t)
        m = 0
        while m * m <= t:
            total = total + base_gf(m, 0, t)
            m += 1
        counted = counting_series(
            (c for c in enumerate_base(t, 0)), t, size=copy_total)
        assert counted == total
        assert total.coefficient(9) == 4  # the four chains of total 9


class TestOverlined:
    def test_l_of_four(self):
        hits = sorted(str(o) for o in enumerate_ncopies_over(4) if o.total == 4)
        assert len(hits) == 10
        assert hits == sorted([
            "4:1", "4:1~", "4:2", "4:2~", "4:3", "4:3~", "4:4", "4:4~",
            "1:1+3:1", "1:1~+3:1",
        ])

    def test_overline_only_on_chain_minimum(self):
        for o in enumerate_ncopies_over(10):
            for idx, part in enumerate(o.parts):
                if part in o.overlined and idx > 0:
                    assert weighted_difference(part, o.parts[idx - 1]) > 0

    def test_series_matches_doubled_diagonal_sum(self):
        t = 22
        counted = counting_series(enumerate_ncopies_over(t), t)
        total = QSeries.zero(t)
        n = 0
        while n * n <= t:
            doubler = poch_finite(PochSpec(0, 1, sign=-1), n, trunc=t)
            denom = poch_finite(PochSpec(1, 1), n, trunc=t) \
                * poch_finite(PochSpec(1, 2), n, trunc=t)
            total = total + doubler * QSeries.monomial(n * n, trunc=t) \
                * denom.inverse(t)
            n += 1
        assert counted == total

    def test_split_by_diagonal_smallest(self):
        # the two-branch dissection: chains whose smallest part stays
        # diagonal come from the exactly-one-zero attachment, all others
        # from the all-positive attachment
        t = 16
        ones = PochSpec(1, 1)
        odds = PochSpec(1, 2)
        plus = PochSpec(1, 1, sign=-1)
        diagonal = QSeries.one(t)
        shifted = QSeries.zero(t)
        for m in range(1, t + 1):
            if m * m > t:
                break
            core = QSeries.monomial(m * m, trunc=t) \
                * poch_finite(odds, m, trunc=t).inverse(t)
            shifted = shifted + poch_finite(plus, m - 1, trunc=t) \
                * QSeries.monomial(m, 2, trunc=t) \
                * poch_finite(ones, m, trunc=t).inverse(t) * core
            diagonal = diagonal + poch_finite(PochSpec(0, 1, sign=-1), m, trunc=t) \
                * poch_finite(ones, m - 1, trunc=t).inverse(t) * core
        got_diag = counting_series(
            (o for o in enumerate_ncopies_over(t)
             if not o.parts or is_diagonal(o.parts[0])), t)
        got_rest = counting_series(
            (o for o in enumerate_ncopies_over(t)
             if o.parts and not is_diagonal(o.parts[0])), t)
        assert got_diag == diagonal
        assert got_rest == shifted

    def test_weighted_oracle_counts_filtered_overpartitions(self):
        # the chain-minimum rule read straight off its statement, applied to
        # every unrestricted overlined n-copies partition
        def admitted(parts, overlined):
            diffs = [hv - lv - hs - ls for (lv, ls), (hv, hs) in zip(parts, parts[1:])]
            if any(diff < 0 for diff in diffs):
                return False
            return all(idx == 0 or diffs[idx - 1] != 0
                       for idx, part in enumerate(parts) if part in overlined)

        t_max = 12
        counts = [0] * (t_max + 1)
        for parts, overlined in reference.copy_overpartitions(t_max):
            if admitted(parts, overlined):
                counts[sum(value for value, _ in parts)] += 1
        oracle = catalog.get("slater-6-corrected").oracle
        for t in range(t_max + 1):
            assert oracle(t).int_coefficients(t) == counts[:t + 1], t
            assert counting_series(enumerate_ncopies_over(t), t).int_coefficients(t) \
                == counts[:t + 1], t

    def test_unrestricted_product_sequence(self):
        # n species of each n, each (1 + q^n)/(1 - q^n): (-q^j; q) / (q^j; q) over j >= 1
        prod = poch_product([(spec, power) for j in range(1, 7)
                             for spec, power in ((PochSpec(j, 1, sign=-1), 1),
                                                 (PochSpec(j, 1), -1))], 6)
        assert prod.int_coefficients(4) == [1, 2, 6, 16, 38]
        counted = counting_series(reference.copy_overpartitions(6), 6,
                                  size=lambda over: sum(value for value, _ in over[0]))
        assert counted == prod


class TestEvenSubscript:
    def test_pruned_matches_unpruned_filter_in_order(self):
        assert list(enumerate_even_subscript(14)) == \
            unpruned_ncopies(14, admits_even_subscript)

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError, match="total_max must be non-negative"):
            enumerate_even_subscript(-1)

    def test_h_of_ten(self):
        hits = {p for p in enumerate_even_subscript(10) if copy_total(p) == 10}
        assert hits == {
            (P(10, 10),), (P(10, 8),), (P(10, 6),), (P(10, 4),), (P(10, 2),),
            (P(2, 2), P(8, 2)), (P(2, 2), P(8, 4)),
        }
        assert (P(3, 2), P(7, 2)) not in hits

    def test_series_matches_even_square_sum(self):
        t = 25
        counted = counting_series(enumerate_even_subscript(t), t,
                                  size=copy_total)
        total = QSeries.zero(t)
        n = 0
        while 2 * n * n <= t:
            total = total + QSeries.monomial(2 * n * n, trunc=t) \
                * poch_finite(PochSpec(1, 1), 2 * n, trunc=t).inverse(t)
            n += 1
        assert counted == total

    def test_counts_match_mod16_partitions(self):
        from qsip.qfactory import CongruenceProductSpec, congruence_product
        t = 25
        counted = counting_series(enumerate_even_subscript(t), t,
                                  size=copy_total)
        product = congruence_product(CongruenceProductSpec(
            16, frozenset({2, 3, 4, 5, 11, 12, 13, 14}), "allowed"), t)
        assert counted == product


class TestMockThetaInterpretations:
    def test_largest_unique_rest_doubled(self):
        # conjugates of gapless odd-part partitions: largest part unique and
        # every other part size occurring exactly twice; equals the count of
        # exact-zero chains with diagonal bottom
        from qsip.partitions import enumerate_partitions

        def pred(parts):
            if not parts:
                return True
            counts = Counter(parts)
            if counts[parts[-1]] != 1:
                return False
            return all(c == 2 for p, c in counts.items() if p != parts[-1])

        t = 25
        m1 = counting_series(enumerate_partitions(t, pred), t)
        m2 = counting_series((c for c in enumerate_base(t, 0)), t,
                             size=copy_total)
        assert m1 == m2
        assert m1.coefficient(9) == 4


# The counting walks with one rule for every next state, leaf or not, run
# by an explicit stack: the package's walks skip the rule on childless
# states, and these references share no code with them.
def one_rule_states(root, successors):
    stack = [root]
    while stack:
        state = stack.pop()
        yield state
        stack.extend(successors(state))


def ncopies_rule(min_diff):
    def successors(state):
        top, remaining = state
        reach = top + min_diff
        return [(top, remaining - v) for v in range(max(1, reach + 1), remaining + 1)
                for top in range(v + 1, 2 * v - max(reach, 0) + 1)]
    return successors


def over_rule(state):
    reach, remaining, weight = state
    # s = v - reach sits at difference zero, every smaller s doubles the weight
    return [(top, remaining - v, weight if top == 2 * v - reach else 2 * weight)
            for v in range(max(1, reach + 1), remaining + 1)
            for top in range(v + 1, 2 * v - max(reach, 0) + 1)]


def even_rule(state):
    reach, remaining = state
    return [(top, remaining - v) for v in range(reach + 2, remaining + 1)
            for top in range(v + 2, 2 * v - reach - (v & 1) + 1, 2)]


# name -> (the package's walk, its root at a total, its one-rule reference)
ONE_RULE_WALKS = {
    **{f"diff{r}": (partial(count_ncopies, min_diff=r), lambda t, r=r: (-1 - r, t),
                    ncopies_rule(r)) for r in (-1, 0, 1, 2)},
    "overlined": (count_ncopies_over, lambda t: (-1, t, 1), over_rule),
    "even-subscript": (count_even_subscript, lambda t: (0, t), even_rule),
}


def one_rule_row(name, t):
    _, root, rule = ONE_RULE_WALKS[name]
    row = [0] * (t + 1)
    for state in one_rule_states(root(t), rule):
        row[t - state[1]] += state[2] if len(state) == 3 else 1
    return row


class TestCountingWalks:
    @pytest.mark.parametrize("name", ONE_RULE_WALKS)
    def test_matches_one_rule_walk(self, name):
        # the count at q^n does not depend on the total the walk starts from
        walk, want = ONE_RULE_WALKS[name][0], one_rule_row(name, 40)
        for t in range(41):
            assert walk(t).int_coefficients(t) == want[:t + 1], t

    @pytest.mark.parametrize("name", ONE_RULE_WALKS)
    def test_rule_runs_on_few_states(self, name, monkeypatch):
        # at total 30 at most one state in 20 has a next part
        walk, root, rule = ONE_RULE_WALKS[name]
        calls = []

        def counting_kernel(start, rule):
            def counted(state):
                calls.append(state)
                return rule(state)
            return partitions.grow_leaves(start, counted)

        monkeypatch.setattr(ncopies, "grow_leaves", counting_kernel)
        walk(30)
        states = sum(1 for _ in one_rule_states(root(30), rule))
        assert 0 < len(calls) <= states / 20, (len(calls), states)
