"""Enumeration oracles: uniqueness, class predicates, overpartitions."""

import ast
import sys
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

import reference
from qsip.partitions import (SipClassSpec, counting_series, enumerate_partitions,
                             grow, grow_leaves, in_sip_class)
from qsip.qfactory import PochSpec, poch_infinite
from qsip.sip import GLASGOW, GOLLNITZ_GORDON, SCHUR

UV = ("u", "v")


class TestEnumerate:
    def test_total_zero(self):
        assert list(enumerate_partitions(0)) == [()]

    def test_ascending_and_in_range(self):
        for p in enumerate_partitions(9):
            assert list(p) == sorted(p)
            assert sum(p) <= 9

    def test_duplicate_free_against_recursive_counter(self):
        counts = Counter(sum(p) for p in enumerate_partitions(15))
        seen = set(enumerate_partitions(15))
        assert len(seen) == sum(counts.values())
        for total in range(16):
            assert counts[total] == reference.partition_count(total)

    def test_part_count_beyond_recursion_limit(self):
        assert next(islice(enumerate_partitions(3000), 3000, None)) == (1,) * 3000

    def test_gap_two_count(self):
        hits = [p for p in enumerate_partitions(9)
                if sum(p) == 9 and all(b - a >= 2 for a, b in zip(p, p[1:]))]
        assert len(hits) == 5

    def test_glasgow_condition_at_ten(self):
        hits = {p for p in enumerate_partitions(10)
                if sum(p) == 10 and in_sip_class(p, GLASGOW)}
        assert hits == {
            (10,), (2, 8), (3, 7), (4, 6), (2, 2, 6), (2, 4, 4),
            (2, 2, 2, 4), (2, 2, 2, 2, 2),
        }


def gaps_at_least_two(leaf):
    """Successor rule for ascending parts with gaps >= 2, over states
    (parts, remaining); where no step fits it returns ``leaf``, or an empty
    generator when ``leaf`` is None."""
    def successors(state):
        parts, remaining = state
        low = parts[-1] + 2 if parts else 1
        if leaf is not None and low > remaining:
            return leaf
        return ((parts + (p,), remaining - p) for p in range(low, remaining + 1))
    return successors


class TestGrow:
    @pytest.mark.parametrize("leaf", [(), []], ids=["tuple", "list"])
    def test_empty_leaf_matches_generator_leaf(self, leaf):
        for total in range(16):
            walked = list(grow(((), total), gaps_at_least_two(leaf)))
            assert walked == list(grow(((), total), gaps_at_least_two(None)))
        parts = [parts for parts, _ in walked]
        assert len(parts) == len(set(parts)) == 1 + sum(
            1 for p in enumerate_partitions(15)
            if p and all(b - a >= 2 for a, b in zip(p, p[1:])))

    def test_empty_root(self):
        assert list(grow(((), 0), gaps_at_least_two(()))) == [((), 0)]


def gaps_leaf_runs(form):
    """gaps_at_least_two(None) as a grow_leaves rule: the next states with a
    next state of their own, (parts + (p,), remaining - p) for
    2p + 2 <= remaining, and the others as leaf runs in the given form, an
    empty run among them."""
    def rule(state):
        parts, remaining = state
        low = parts[-1] + 2 if parts else 1
        cut = max(low, remaining // 2)   # the first p whose state has no next state
        steps = [(parts + (p,), remaining - p) for p in range(low, cut)]
        leaves = range(cut, remaining + 1)
        if form == "zip":
            return steps, [zip(range(0)), zip(map(parts.__add__, zip(leaves)),
                                              map(remaining.__sub__, leaves))]
        runs = [[(parts + (p,), remaining - p)] for p in leaves] + [[]]
        return steps, (tuple(map(tuple, runs)) if form == "tuple" else runs)
    return rule


class TestGrowLeaves:
    @pytest.mark.parametrize("form", ["tuple", "list", "zip"])
    def test_same_states_as_grow(self, form):
        for total in range(16):
            root = ((), total)
            assert (Counter(grow_leaves(root, gaps_leaf_runs(form)))
                    == Counter(grow(root, gaps_at_least_two(None)))), total

    @pytest.mark.parametrize("form", ["tuple", "list", "zip"])
    def test_rule_runs_on_root_and_states_with_a_next_state(self, form):
        one_rule = gaps_at_least_two(())
        for total in range(16):
            root, calls = ((), total), []

            def counted(state, rule=gaps_leaf_runs(form)):
                calls.append(state)
                return rule(state)

            states = list(grow_leaves(root, counted))
            assert len(states) == len(set(states))
            assert sorted(calls) == sorted({root} | {s for s in states if one_rule(s)}), total

    def test_root_with_no_steps(self):
        assert list(grow_leaves(((), 0), gaps_leaf_runs("list"))) == [((), 0)]
        assert list(grow_leaves("root", lambda state: ((), ()))) == ["root"]
        assert list(grow_leaves(0, lambda n: ((), [(1, 2), (), [3]]))) == [0, 1, 2, 3]


class TestPartitionCount:
    def test_matches_pentagonal_recurrence_through_2000(self):
        # Euler: p(n) = sum over k >= 1 of (-1)^(k+1) (p(n - k(3k-1)/2)
        # + p(n - k(3k+1)/2)), terms with a negative argument dropped
        top = 2000
        p = [1] + [0] * top
        for n in range(1, top + 1):
            k, sign = 1, 1
            while k * (3 * k - 1) // 2 <= n:
                p[n] += sign * p[n - k * (3 * k - 1) // 2]
                if k * (3 * k + 1) // 2 <= n:
                    p[n] += sign * p[n - k * (3 * k + 1) // 2]
                k, sign = k + 1, -sign
        for n in [*range(60), 500, 1000, 1999, 2000]:
            assert reference.partition_count(n) == p[n]

    def test_largest_part_bound(self):
        for total in range(13):
            for max_part in range(total + 2):
                expected = sum(1 for parts in enumerate_partitions(total)
                               if sum(parts) == total
                               and all(x <= max_part for x in parts))
                assert reference.partition_count(total, max_part) == expected
        assert reference.partition_count(-1) == 0


class TestSipPredicate:
    def test_empty_is_member(self):
        for spec in (GOLLNITZ_GORDON, SCHUR, GLASGOW):
            assert in_sip_class((), spec)

    def test_gap_conditions(self):
        assert in_sip_class((2, 5), GOLLNITZ_GORDON)
        assert in_sip_class((2, 6), GOLLNITZ_GORDON)
        assert not in_sip_class((2, 4), GOLLNITZ_GORDON)
        assert in_sip_class((3, 7), SCHUR)
        assert not in_sip_class((3, 6), SCHUR)

    def test_gap_two_and_four_between_evens_prose(self):
        # residue-window conditions match the classical phrasing: all gaps
        # at least 2, gaps between even parts at least 4
        def prose(p):
            if any(b - a < 2 for a, b in zip(p, p[1:])):
                return False
            evens = [x for x in p if x % 2 == 0]
            return all(b - a >= 4 for a, b in zip(evens, evens[1:]))

        for p in enumerate_partitions(20):
            assert in_sip_class(p, GOLLNITZ_GORDON) == prose(p)

    def test_schur_prose(self):
        # gaps at least 3, and at least 4 when either part is divisible by 3
        def prose(p):
            for a, b in zip(p, p[1:]):
                need = 4 if (a % 3 == 0 or b % 3 == 0) else 3
                if b - a < need:
                    return False
            return True

        for p in enumerate_partitions(20):
            assert in_sip_class(p, SCHUR) == prose(p)

    def test_glasgow_prose(self):
        # every part at least 2; each odd part exceeds any part at most it
        # (other than itself) by at least 3
        def prose(p):
            if any(x < 2 for x in p):
                return False
            for i, x in enumerate(p):
                if x % 2 and i > 0 and x - p[i - 1] < 3:
                    return False
            return True

        for p in enumerate_partitions(20):
            assert in_sip_class(p, GLASGOW) == prose(p)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SipClassSpec(2, (2, 2), (0, 0))  # c_1 not congruent to 1 mod 2
        with pytest.raises(ValueError):
            SipClassSpec(2, (1,), (0, 0))
        with pytest.raises(ValueError):
            SipClassSpec(2, (1, 2), (-1, 0))

    @pytest.mark.parametrize("weights", [
        ((1, 0),),                      # one weight for two residues
        ((1, 0), (0, 1), (1, 1)),       # three weights for two residues
        ((1,), (0, 1)),                 # an exponent vector of the wrong arity
        ((1, 0), (0, 1, 0)),
        ((1, -1), (0, 1)),              # a negative exponent
        ({(1, 0): 1}, (0, 1)),          # a polynomial, not its exponents
        ((True, 0), (0, 1)),            # a bool is no exponent
        ((1.0, 0), (0, 1)),             # nor is a float
        ([1, 0], (0, 1)),               # a vector is a tuple
    ])
    def test_weight_validation(self, weights):
        with pytest.raises(ValueError):
            SipClassSpec(2, (1, 2), (2, 3), markers=UV, weights=weights)

    def test_weight_is_exponent_vector(self):
        spec = SipClassSpec(2, (1, 2), (2, 3), markers=UV, weights=((1, 0), (0, 2)))
        assert [spec.weight(p) for p in (1, 2, 3, 4)] == [(1, 0), (0, 2), (1, 0), (0, 2)]
        assert SipClassSpec(2, (1, 2), (2, 3), markers=UV).weight(5) == (0, 0)
        assert GOLLNITZ_GORDON.weight(5) == ()


class TestOverpartitions:
    def test_eight_of_three(self):
        got = {(parts, over) for parts, over in reference.overpartitions(3) if sum(parts) == 3}
        assert got == {((3,), ()), ((3,), (3,)), ((1, 2), ()), ((1, 2), (2,)),
                       ((1, 2), (1,)), ((1, 2), (1, 2)), ((1, 1, 1), ()),
                       ((1, 1, 1), (1,))}

    def test_empty(self):
        assert list(reference.overpartitions(0)) == [((), ())]

    def test_no_multiples_of_three_at_four(self):
        hits = [parts for parts, _ in reference.overpartitions(4)
                if sum(parts) == 4 and all(x % 3 for x in parts)]
        assert len(hits) == 10


class TestCountingSeries:
    def test_all_partitions(self):
        got = counting_series(enumerate_partitions(5), 5)
        assert got.int_coefficients(5) == [1, 1, 2, 3, 5, 7]

    def test_distinct_matches_product(self):
        got = counting_series(
            enumerate_partitions(12, lambda p: len(set(p)) == len(p)), 12)
        assert got == poch_infinite(PochSpec(1, 1, sign=-1), 12)

    def test_glasgow_count_at_ten(self):
        got = counting_series(
            enumerate_partitions(10, lambda p: in_sip_class(p, GLASGOW)), 10)
        assert got.coefficient(10) == 8

    def test_overpartition_product(self):
        got = counting_series(reference.overpartitions(8), 8, size=lambda pair: sum(pair[0]))
        t = 8
        prod = poch_infinite(PochSpec(1, 1, sign=-1), t) \
            * poch_infinite(PochSpec(1, 1), t).inverse(t)
        assert got == prod


def test_reference_imports_only_the_standard_library():
    # tests/reference.py checks the package only while it shares no code with it
    tree = ast.parse(Path(reference.__file__).read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    names |= {"." * node.level + (node.module or "") for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)}
    assert names and all(name.split(".")[0] in sys.stdlib_module_names for name in names), names
