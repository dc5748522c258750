"""Basis enumeration, decomposition uniqueness and assembly contracts."""

import ast
import sys
import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement, count, islice, product
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsip import catalog, partitions, sip
from qsip.partitions import (SipClassSpec, counting_series, enumerate_partitions, grow,
                             grow_leaves, in_sip_class)
from qsip.qfactory import (CongruenceProductSpec, PochSpec, congruence_product, poch_finite,
                           poch_infinite)
from qsip.series import QSeries
from qsip.sip import (GLASGOW, GOLLNITZ_GORDON, DISTINCT, NATURAL,
                      ROGERS_RAMANUJAN, SCHUR, SCHUR_REFINED, SPEC_REGISTRY,
                      InsufficientTableDepth, NotInClass, SipDecomposition,
                      assemble_gf, basis_table, class_gf, count_class, decompose,
                      enumerate_basis, enumerate_class, is_basis_element,
                      min_basis_total, recompose, verify_sip)

ALL_SPECS = (NATURAL, DISTINCT, ROGERS_RAMANUJAN, GOLLNITZ_GORDON, SCHUR,
             GLASGOW)
# Schur's gaps with weights that no lambda maps to their residues (see
# sip._stride): uv, v and a square u^2, so its rows have stride 1.
MIXED_WEIGHTS = SipClassSpec(3, (1, 2, 3), (3, 3, 4), markers=("u", "v"),
                             weights=((1, 1), (0, 1), (2, 0)))
# Monomial weights on two gap patterns: Göllnitz–Gordon weighted (u, v) has
# basis rows of stride k = 2; Schur weighted (u, u, u) puts members of one
# weight in every residue class, so its rows have stride 1.
GOLLNITZ_UV = SipClassSpec(2, (1, 2), (2, 3), markers=("u", "v"), weights=((1, 0), (0, 1)))
SCHUR_UUU = SipClassSpec(3, (1, 2, 3), (3, 3, 4), markers=("u",), weights=((1,), (1,), (1,)))
# Every part weighs u^3, so a member's u-exponent is three times its part
# count and can exceed its total, the base the part counts are packed in.
NATURAL_U3 = SipClassSpec(1, (1,), (0,), markers=("u",), weights=((3,),))
SPEC_NAMES = {id(spec): name for name, spec in SPEC_REGISTRY.items()}
# The unweighted specs at trunc 30 take the k/c ids the other tests here use.
MEMBER_COUNT_CASES = (
    [pytest.param(spec, 30, id=f"k{spec.k}c{spec.c}") for spec in ALL_SPECS]
    + [pytest.param(spec, t, id=f"{SPEC_NAMES[id(spec)]}-t{t}")
       for spec in ALL_SPECS + (SCHUR_REFINED,) for t in (0, 1, 2, 3)]
    + [pytest.param(SCHUR_REFINED, 30, id="schur-refined-t30")]
    + [pytest.param(MIXED_WEIGHTS, t, id=f"mixed-weights-t{t}") for t in (0, 1, 2, 3, 30)]
    + [pytest.param(GOLLNITZ_UV, t, id=f"gollnitz-uv-t{t}") for t in (0, 1, 2, 3, 30)]
    + [pytest.param(SCHUR_UUU, t, id=f"schur-uuu-t{t}") for t in (0, 1, 2, 3, 30)]
    + [pytest.param(NATURAL_U3, t, id=f"natural-u3-t{t}") for t in (0, 1, 2, 3, 30)])


# The top-level functions and classes of sip.py and partitions.py, by name.
SIP_DEFS = {node.name: node for module in (sip, partitions)
            for node in ast.parse(Path(module.__file__).read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def reached(root):
    """``root`` and every definition of SIP_DEFS that it reaches through
    the names its code reads."""
    seen, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name in SIP_DEFS and name not in seen:
            seen.add(name)
            todo += [node.id for node in ast.walk(SIP_DEFS[name]) if isinstance(node, ast.Name)]
    return seen


def weight_of(spec, parts):
    """The product of the parts' weights, as its exponent vector."""
    w = (0,) * len(spec.markers)
    for p in parts:
        w = tuple(map(add, w, spec.weight(p)))
    return w


@st.composite
def small_specs(draw):
    """A class with k <= 3, c_r in {r, r + k} and d_r in 0..2k, over zero,
    one or two markers, weighted or not."""
    k = draw(st.integers(1, 3))
    c = tuple(r + draw(st.sampled_from((0, k))) for r in range(1, k + 1))
    d = tuple(draw(st.integers(0, 2 * k)) for _ in range(k))
    markers = draw(st.sampled_from(((), ("u",), ("u", "v"))))
    weights = None
    if draw(st.booleans()):
        weights = tuple(tuple(draw(st.integers(0, 2)) for _ in markers) for _ in range(k))
    return SipClassSpec(k, c, d, markers=markers, weights=weights)


def rule_walk(rule, total_max):
    """Every state of a rule of verify_sip within total_max, the root first,
    in pre-order, as (parts, basis, remaining): ``grow`` over its pairs."""
    return grow(((), (), total_max), lambda state: [
        (state[0] + (v,), state[1] + (b,), state[2] - v) for v, b in rule(*state)[0]])


def recompositions(spec, total_max, collisions):
    """Every basis element plus padding of total <= total_max, the empty one
    first, in pre-order."""
    return rule_walk(sip._recomposition_rule(spec, collisions), total_max)


# (ok, class_count, recomposed_count) of verify_sip by spec and total, pinned
# as literals so that no change to how the basis is walked can move them.
PINNED_SIP = {
    "natural": {0: (True, 1, 0), 1: (True, 2, 1), 7: (True, 45, 44),
                22: (True, 4508, 4507)},
    "distinct": {0: (True, 1, 0), 1: (True, 2, 1), 7: (True, 19, 18),
                 22: (True, 536, 535)},
    "rogers-ramanujan": {0: (True, 1, 0), 1: (True, 2, 1), 7: (True, 14, 13),
                         22: (True, 273, 272)},
    "gollnitz": {0: (True, 1, 0), 1: (True, 2, 1), 7: (True, 13, 12),
                 22: (True, 234, 233)},
    "schur": {0: (True, 1, 0), 1: (True, 2, 1), 7: (True, 12, 11),
              22: (True, 170, 169)},
    "schur-refined": {0: (True, 1, 0), 1: (True, 2, 1), 7: (True, 12, 11),
                      22: (True, 170, 169)},
    "glasgow": {0: (True, 1, 0), 1: (True, 1, 0), 7: (True, 12, 11),
                22: (True, 418, 417)},
}


class TestBasisEnumeration:
    def test_one_part_rows(self):
        assert set(enumerate_basis(GOLLNITZ_GORDON, 1, 30)) == {(1,), (2,)}
        assert set(enumerate_basis(SCHUR, 1, 30)) == {(1,), (2,), (3,)}

    def test_glasgow_two_part(self):
        assert set(enumerate_basis(GLASGOW, 2, 30)) == {
            (2, 2), (2, 5), (3, 4), (3, 7)}

    def test_single_chain_classes(self):
        assert list(enumerate_basis(NATURAL, 4, 30)) == [(1, 1, 1, 1)]
        assert list(enumerate_basis(DISTINCT, 4, 30)) == [(1, 2, 3, 4)]
        assert list(enumerate_basis(ROGERS_RAMANUJAN, 4, 30)) == [(1, 3, 5, 7)]

    def test_part_count_beyond_recursion_limit(self):
        assert list(enumerate_basis(NATURAL, 1200, 1)) == [(1,) * 1200]

    def test_part_count_past_index_size(self):
        # raised at the call, before the walk builds any tuple
        with pytest.raises(OverflowError, match="part tuple does not fit"):
            enumerate_basis(NATURAL, sys.maxsize + 1, 1)
        enumerate_basis(NATURAL, sys.maxsize, 1)  # the largest accepted; not walked

    def test_members_are_basis_elements(self):
        for spec in ALL_SPECS:
            assert is_basis_element((), spec)
            for n in range(1, 5):
                for parts in enumerate_basis(spec, n, 25):
                    assert is_basis_element(parts, spec)
                    assert in_sip_class(parts, spec)

    @pytest.mark.parametrize("parts", [(2, 4), (1, 5)])
    def test_members_outside_the_basis(self, parts):
        # (2, 4) starts above the least part, (1, 5) has a gap beyond d + k - 1
        assert in_sip_class(parts, ROGERS_RAMANUJAN)
        assert not is_basis_element(parts, ROGERS_RAMANUJAN)


class TestPrunedEnumeration:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"k{s.k}c{s.c}")
    def test_negative_total_rejected(self, spec):
        with pytest.raises(ValueError, match="total_max must be non-negative"):
            enumerate_class(spec, -1)

    def test_matches_unpruned_filter(self):
        # classes are closed under taking prefixes, so the pruned walk and
        # the filtered walk meet the members in the same order; the extra
        # specs put the k = 1 threshold above 1 and give k > 1 a zero gap
        extra = (SipClassSpec(1, (3,), (2,)), SipClassSpec(1, (2,), (0,)),
                 SipClassSpec(4, (5, 2, 7, 4), (0, 1, 3, 2)))
        for spec in ALL_SPECS + extra:
            pruned = list(enumerate_class(spec, 15))
            plain = [p for p in enumerate_partitions(15)
                     if in_sip_class(p, spec)]
            assert pruned == plain


class TestDecompose:
    def test_one_part_minimal(self):
        d = decompose((1,), GOLLNITZ_GORDON)
        assert d.basis == (1,) and d.padding == (0,)

    def test_natural_class_shift(self):
        for parts in enumerate_partitions(12):
            if not parts:
                continue
            d = decompose(parts, NATURAL)
            assert d.basis == (1,) * len(parts)
            assert d.padding == tuple(p - 1 for p in parts)

    def test_matches_lattice_search(self):
        # the constructive split agrees with brute force over basis x padding
        spec = GOLLNITZ_GORDON
        for parts in enumerate_class(spec, 18):
            if not parts:
                continue
            d = decompose(parts, spec)
            hits = []
            for basis in enumerate_basis(spec, len(parts), 18):
                pad = tuple(p - b for p, b in zip(parts, basis))
                if all(x >= 0 and x % spec.k == 0 for x in pad) \
                        and list(pad) == sorted(pad):
                    hits.append(SipDecomposition(basis, pad))
            assert hits == [d]

    def test_not_in_class(self):
        with pytest.raises(NotInClass):
            decompose((1, 2), ROGERS_RAMANUJAN)

    def test_recompose(self):
        assert recompose(SipDecomposition((1, 3), (0, 2))) == (1, 5)
        assert in_sip_class((1, 5), ROGERS_RAMANUJAN)
        d = SipDecomposition((2, 5), (0, 0))
        assert recompose(d) == (2, 5)

    def test_round_trips(self):
        for spec in ALL_SPECS:
            for parts in enumerate_class(spec, 18):
                if parts:
                    assert recompose(decompose(parts, spec)) == parts


class TestVerifySip:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"k{s.k}c{s.c}")
    def test_exhaustive(self, spec):
        report = verify_sip(spec, 20)
        assert report.ok, report.summary()
        assert report.collisions == [] and report.omissions == []

    def test_summary(self):
        assert verify_sip(ROGERS_RAMANUJAN, 8).summary() == (
            "verify_sip k=1 c=(1,) d=(2,) total<=8: pass "
            "(18 members, 17 recompositions, 0 collisions, 0 omissions)")

    @pytest.mark.parametrize("name, total", [(name, t) for name in PINNED_SIP
                                             for t in (0, 1, 7, 22)])
    def test_pinned_reports(self, name, total):
        report = verify_sip(SPEC_REGISTRY[name], total)
        assert (report.ok, report.class_count, report.recomposed_count) == \
            PINNED_SIP[name][total]

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"k{s.k}c{s.c}")
    def test_exhaustive_at_benchmark_size(self, spec):
        # the largest total the oracle-enum benchmark runs; the member count
        # is read off the basis-row generating function, which shares no
        # code with the member walk
        report = verify_sip(spec, 30)
        assert report.ok, report.summary()
        members = sum(class_gf(spec, 30).int_coefficients(30))
        assert (report.class_count, report.recomposed_count) == (members, members - 1)

    @pytest.mark.parametrize("spec", SPEC_REGISTRY.values(), ids=list(SPEC_REGISTRY))
    def test_member_walk_carries_constructive_basis(self, spec):
        walked = list(sip._member_walk(spec, 18))
        assert [parts for parts, _, _ in walked] == list(enumerate_class(spec, 18))
        for parts, basis, remaining in walked:
            assert basis == (decompose(parts, spec).basis if parts else ())
            assert remaining == 18 - sum(parts)

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError, match="total_max must be non-negative"):
            verify_sip(NATURAL, -1)

    def test_total_past_index_size(self):
        # raised at the call, before the walk builds a pair list toward it
        with pytest.raises(OverflowError, match="does not fit an index-sized integer"):
            verify_sip(NATURAL, 10**20)

    @pytest.mark.parametrize("spec", SPEC_REGISTRY.values(), ids=list(SPEC_REGISTRY))
    def test_recomposition_walk_is_basis_times_padding(self, spec):
        # a padding of n slots with sum <= budget is n - m zeros and then m
        # positive multiples of k, each at most budget - (m - 1)k; every part
        # is at least min(c), so no element of total <= 24 has more than
        # 24 // min(c) parts
        top, k = 24, spec.k
        built = []
        for n in range(1, top // min(spec.c) + 1):
            for basis in enumerate_basis(spec, n, top):
                budget = top - sum(basis)
                for m in range(min(n, budget // k) + 1):
                    for tail in combinations_with_replacement(
                            range(k, budget - (m - 1) * k + 1, k), m):
                        if sum(tail) <= budget:
                            pad = (0,) * (n - m) + tail
                            built.append((tuple(b + p for b, p in zip(basis, pad)), basis))
        for t in range(top + 1):
            collisions = []
            walked = list(recompositions(spec, t, collisions))
            assert walked[0] == ((), (), t) and collisions == []
            # each pair once, parts strictly ascending: the order verify_sip merges in
            assert [(parts, basis) for parts, basis, _ in walked[1:]] == sorted(
                pair for pair in built if sum(pair[0]) <= t)
            assert all(a[0] < b[0] for a, b in zip(walked, walked[1:]))
            assert all(remaining == t - sum(parts) for parts, _, remaining in walked)

    @pytest.mark.parametrize("spec", SPEC_REGISTRY.values(), ids=list(SPEC_REGISTRY))
    def test_walks_extend_the_last_state_one_part_shorter(self, spec):
        # verify_sip walks both sets as trees that share their nodes, so the
        # last earlier state with one part fewer must be parts[:-1]
        for t in range(25):
            for states in (recompositions(spec, t, []), sip._member_walk(spec, t)):
                last = {}
                for parts, _, _ in states:
                    if parts:
                        assert last[len(parts) - 1] == parts[:-1], parts
                    last[len(parts)] = parts

    @pytest.mark.parametrize("spec", SPEC_REGISTRY.values(), ids=list(SPEC_REGISTRY))
    def test_class_test_scans_no_member(self, spec, monkeypatch):
        def scan(parts, spec):
            raise AssertionError("verify_sip scanned a whole member")

        monkeypatch.setattr(sip, "in_sip_class", scan)
        report = verify_sip(spec, 20)
        assert report.ok, report.summary()

    def test_memory_does_not_grow_with_member_count(self):
        # 28,629 members; the two walks hold only their current paths
        tracemalloc.start()
        try:
            assert verify_sip(NATURAL, 30).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_rejects_bad_spec_before_verification(self):
        with pytest.raises(ValueError):
            SipClassSpec(3, (1, 2, 4), (1, 1, 1))


class TestVerifySipFaults:
    """Each fault injected through a seam of verify_sip must surface in its
    own report list, and in no other."""

    SPEC, TOTAL = GOLLNITZ_GORDON, 14
    LISTS = ("not_in_class", "collisions", "omissions", "constructive_mismatches")

    def assert_caught_only_by(self, name):
        report = verify_sip(self.SPEC, self.TOTAL)
        assert report.ok is False
        for other in self.LISTS:
            assert bool(getattr(report, other)) == (other == name), other

    @staticmethod
    def edited(factory, edit):
        """A rule factory like ``factory`` whose rules pass both of their
        lists, the pairs and the branching pairs, through edit(parts, pairs)."""
        def make(*args):
            rule = factory(*args)
            return lambda parts, basis, remaining: tuple(
                edit(parts, pairs) for pairs in rule(parts, basis, remaining))
        return make

    def test_member_missing_from_class_stream(self, monkeypatch):
        dropped = next(p for p, _, _ in sip._member_walk(self.SPEC, self.TOTAL) if len(p) == 2)
        monkeypatch.setattr(sip, "_member_rule", self.edited(sip._member_rule, lambda parts, pairs: [
            pair for pair in pairs if parts + pair[:1] != dropped]))
        self.assert_caught_only_by("not_in_class")

    def test_basis_successor_listed_twice(self, monkeypatch):
        real = sip.basis_successors
        monkeypatch.setattr(sip, "basis_successors", lambda spec, value: (
            real(spec, value) + real(spec, value)[:1]))
        self.assert_caught_only_by("collisions")

    def test_basis_element_dropped(self, monkeypatch):
        # a successor left out drops every basis element that goes through it
        real = sip.basis_successors
        monkeypatch.setattr(sip, "basis_successors", lambda spec, value: real(spec, value)[1:])
        self.assert_caught_only_by("omissions")

    def test_last_member_never_recomposed(self, monkeypatch):
        # a member stream that outlasts the recompositions: its tail is omitted
        last = list(recompositions(self.SPEC, self.TOTAL, []))[-1][0]
        monkeypatch.setattr(sip, "_recomposition_rule", self.edited(
            sip._recomposition_rule, lambda parts, pairs: [
                pair for pair in pairs if parts + pair[:1] != last]))
        self.assert_caught_only_by("omissions")
        report = verify_sip(self.SPEC, self.TOTAL)
        assert (report.omissions, report.class_count) == ([last], 60)

    def test_constructive_basis_corrupted(self, monkeypatch):
        # the basis steps to every 2-part member move up by k
        k = self.SPEC.k
        monkeypatch.setattr(sip, "_member_rule", self.edited(sip._member_rule, lambda parts, pairs: [
            (v, b + k) if len(parts) == 1 else (v, b) for v, b in pairs]))
        self.assert_caught_only_by("constructive_mismatches")

    def walk_looser_class(self, monkeypatch, loose, spec):
        """Run both rules on ``loose`` whatever class verify_sip checks, so
        they agree with each other and only the class test sees the members
        they add; return the not_in_class list expected for ``spec``."""
        expected = [(SipDecomposition(basis, tuple(p - b for p, b in zip(parts, basis))), parts)
                    for parts, basis, _ in sip._member_walk(loose, self.TOTAL)
                    if not in_sip_class(parts, spec)]
        member, recomposition = sip._member_rule, sip._recomposition_rule
        monkeypatch.setattr(sip, "_member_rule", lambda spec: member(loose))
        monkeypatch.setattr(sip, "_recomposition_rule", lambda spec, collisions: (
            recomposition(loose, collisions)))
        return expected

    def test_member_rejected_by_class_test(self, monkeypatch):
        # the walks allow even gaps of 2, not 3
        expected = self.walk_looser_class(monkeypatch, SipClassSpec(2, (1, 2), (2, 2)), self.SPEC)
        self.assert_caught_only_by("not_in_class")
        report = verify_sip(self.SPEC, self.TOTAL)
        assert report.not_in_class == expected
        assert len(expected) == 7
        assert {(2, 4), (2, 4, 6), (2, 4, 7), (2, 4, 8)} <= {parts for _, parts in expected}
        assert report.summary() == (
            "verify_sip k=2 c=(1, 2) d=(2, 3) total<=14: FAIL "
            "(67 members, 66 recompositions, 0 collisions, 0 omissions, "
            "7 not in class, 0 constructive mismatches)")

    def test_later_part_below_its_threshold(self, monkeypatch):
        # odd parts from 1 in the walks, from 5 in the checked class; with no
        # gaps, (2, 3) meets its gap and fails only its threshold
        spec = SipClassSpec(2, (5, 2), (0, 0))
        expected = self.walk_looser_class(monkeypatch, SipClassSpec(2, (1, 2), (0, 0)), spec)
        report = verify_sip(spec, self.TOTAL)
        assert not (report.collisions or report.omissions or report.constructive_mismatches)
        assert report.not_in_class == expected
        assert (SipDecomposition((2, 3), (0, 0)), (2, 3)) in expected


def reference_basis_table(spec, max_n, max_h):
    """{(n, h): b(n, h)} by the dense window recurrence: each entry is
    {marker monomial: int list by q-exponent, cut at q^(max_n * max_h)}, and
    b(n, h) adds every row of its window at offset h, then shifts every
    monomial by the weight of h.  It shares no code with sip."""
    trunc, k = max_n * max_h, spec.k
    zero = (0,) * len(spec.markers)

    def weigh(entry, h):
        shift = spec.weight(h)
        return {tuple(a + b for a, b in zip(key, shift)): row for key, row in entry.items()}

    table = {}
    row = {cr: weigh({zero: [0] * cr + [1]}, cr) for cr in set(spec.c) if cr <= max_h}
    for n in range(1, max_n + 1):
        table.update({(n, h): QSeries.from_rows(entry, markers=spec.markers)
                      for h, entry in row.items()})
        nxt = {}
        for h in range(1, max_h + 1):
            top = h - spec.d[(h - 1) % k]
            acc = {}
            for below in range(top - k + 1, top + 1):
                for key, r in row.get(below, {}).items():
                    out = acc.setdefault(key, [0] * (trunc + 1))
                    for i, x in enumerate(r[:trunc + 1 - h]):
                        out[h + i] += x
            if any(map(any, acc.values())):
                nxt[h] = weigh(acc, h)
        row = nxt
    return table


class TestBasisTable:
    @pytest.mark.parametrize("spec", list(SPEC_REGISTRY.values()) + [MIXED_WEIGHTS],
                             ids=list(SPEC_REGISTRY) + ["mixed-weights"])
    @pytest.mark.parametrize("max_n, max_h", [(8, 60), (6, 80)])
    def test_matches_dense_reference(self, spec, max_n, max_h):
        assert basis_table(spec, max_n, max_h).entries == \
            reference_basis_table(spec, max_n, max_h)

    def test_stride_from_weights(self):
        # k when some lambda maps each weight's exponents to its residue mod k
        # (lambda = (1, 2) for weighted Schur, (1, 0) for Göllnitz–Gordon
        # weighted (u, v)), else 1
        strides = {name: sip._stride(spec) for name, spec in SPEC_REGISTRY.items()}
        assert strides == {name: 3 if name == "schur-refined" else 1 for name in SPEC_REGISTRY}
        assert (sip._stride(GOLLNITZ_UV), sip._stride(SCHUR_UUU),
                sip._stride(MIXED_WEIGHTS)) == (2, 1, 1)

    def test_seed_rows(self):
        tbl = basis_table(GOLLNITZ_GORDON, 3, 20)
        assert tbl.entry(1, 1) == QSeries.monomial(1)
        assert tbl.entry(1, 2) == QSeries.monomial(2)
        schur = basis_table(SCHUR_REFINED, 2, 20)
        assert schur.entry(1, 3) == QSeries.from_rows({(1, 1): [0, 0, 0, 1]}, markers=("u", "v"))

    def test_glasgow_two_part_row(self):
        tbl = basis_table(GLASGOW, 2, 20)
        assert {h: str(s) for h, s in tbl.row(2).items()} == {
            2: "q^4", 4: "q^7", 5: "q^7", 7: "q^10"}

    def test_doubling_relation(self):
        tbl = basis_table(GOLLNITZ_GORDON, 6, 40)
        for n in range(1, 7):
            for m in range(1, 21):
                assert tbl.entry(n, 2 * m) == QSeries.monomial(1) * tbl.entry(n, 2 * m - 1)

    @pytest.mark.parametrize("spec", ALL_SPECS + (SCHUR_REFINED,)
                             + (pytest.param(MIXED_WEIGHTS, id="mixed-weights"),),
                             ids=lambda s: f"k{s.k}c{s.c}w{bool(s.weights)}")
    def test_matches_enumeration(self, spec):
        h_max = 30
        tbl = basis_table(spec, 8, h_max)
        for n in range(1, 9):
            grouped: dict[int, QSeries] = {}
            for parts in enumerate_basis(spec, n, h_max):
                mono = QSeries.from_rows({weight_of(spec, parts): [0] * sum(parts) + [1]},
                                         markers=spec.markers)
                h = parts[-1]
                grouped[h] = grouped.get(h, QSeries.zero(markers=spec.markers)) + mono
            for h in range(1, h_max + 1):
                want = grouped.get(h, QSeries.zero(markers=spec.markers))
                assert tbl.entry(n, h) == want, (spec.c, n, h)

    def test_cut_past_index_size(self):
        # the rows run to q^(max_n * max_h): a cut no list can index fails
        # before the walk; the largest accepted cut is walked (one row)
        with pytest.raises(OverflowError, match=f"q\\^{sys.maxsize} does not fit"):
            basis_table(NATURAL, 1, sys.maxsize)
        with pytest.raises(OverflowError):
            basis_table(DISTINCT, 10**20, 20)
        assert basis_table(NATURAL, 1, sys.maxsize - 1).entries == {
            (1, 1): QSeries.monomial(1)}

    def test_row_gf_sums_rows(self):
        tbl = basis_table(GLASGOW, 4, 30)
        total = QSeries.zero()
        for h in range(1, 31):
            total = total + tbl.entry(4, h)
        assert tbl.row_gf(4) == total


class TestMinBasisTotal:
    def test_known_growth(self):
        for n in range(9):
            assert min_basis_total(NATURAL, n) == n
            assert min_basis_total(DISTINCT, n) == n * (n + 1) // 2
            assert min_basis_total(ROGERS_RAMANUJAN, n) == n * n
            assert min_basis_total(GLASGOW, n) == 2 * n

    def test_matches_enumeration(self):
        for spec in ALL_SPECS:
            for n in range(1, 6):
                best = min(sum(b) for b in enumerate_basis(spec, n, 60))
                assert min_basis_total(spec, n) == best
        # every small class, separable or not, against all k^n residue
        # sequences, each stepped from c_(r_1) by lo + (r - lo) mod k, lo = last + d_r
        for spec in small_box():
            k, c, d = spec.k, spec.c, spec.d
            elements = [(cr, cr) for cr in c]   # (last part, total)
            for n in range(1, 6):
                if n > 1:
                    elements = [(step, total + step) for last, total in elements
                                for r in range(1, k + 1) for lo in [last + d[r - 1]]
                                for step in [lo + (r - lo) % k]]
                assert min_basis_total(spec, n) == min(t for _, t in elements), (spec, n)


class TestBasisGapTable:
    """sip._basis_gaps is the one basis step: every basis reader reads it,
    and the member rule's class steps do not."""

    READERS = ("basis_successors", "_basis_step", "is_basis_element", "_require_separable",
               "_basis_rows", "_class_levels", "min_basis_total")

    def test_basis_readers_reach_the_table_and_not_d(self):
        def names_d(name):
            return any(isinstance(node, ast.Attribute) and node.attr == "d"
                       for node in ast.walk(SIP_DEFS[name]))

        assert names_d("_basis_gaps")
        for name in self.READERS + ("_member_rule",):
            assert "_basis_gaps" in reached(name), name
        for name in self.READERS:
            assert not names_d(name), name
        # the class rule stays on c and d, so a wrong table shows in verify_sip
        for name in ("_Steps", "count_class", "in_sip_class"):
            assert "_basis_gaps" not in reached(name), name


class TestAssembleGf:
    def test_natural_recovers_euler_product(self):
        t = 30
        assert class_gf(NATURAL, t) == poch_infinite(PochSpec(1, 1), t).inverse(t)

    def test_rogers_ramanujan_sum(self):
        t = 30
        direct = QSeries.zero(t)
        n = 0
        while n * n <= t:
            direct = direct + QSeries.monomial(n * n, trunc=t) \
                * poch_finite(PochSpec(1, 1), n, trunc=t).inverse(t)
            n += 1
        assert class_gf(ROGERS_RAMANUJAN, t) == direct

    def test_gollnitz_product(self):
        t = 30
        rhs = (poch_infinite(PochSpec(1, 8), t) * poch_infinite(PochSpec(4, 8), t)
               * poch_infinite(PochSpec(7, 8), t)).inverse(t)
        assert class_gf(GOLLNITZ_GORDON, t) == rhs

    @pytest.mark.parametrize("spec, t", MEMBER_COUNT_CASES)
    def test_matches_member_counts(self, spec, t):
        """class_gf and the counting walk count_class against enumerated
        members, weighted by the product of part weights.

        Truncations 0..3 end the basis rows early: below the smallest
        threshold c_r there is no row at all, and above it every entry of
        the second or third row is already cut away.  NATURAL_U3 guards the
        walk's packed part counts: its marker exponents exceed the total.
        """
        oracle = counting_series(enumerate_class(spec, t), t,
                                 weight=(lambda parts: weight_of(spec, parts))
                                 if spec.weights else None,
                                 markers=spec.markers)
        assert class_gf(spec, t) == oracle
        assert count_class(spec, t) == oracle

    @given(small_specs(), st.integers(0, 14))
    @settings(max_examples=80, deadline=None)
    def test_count_class_matches_members_on_small_classes(self, spec, t):
        # both walks of count_class, the range walk and the monomial walk
        oracle = counting_series(enumerate_class(spec, t), t,
                                 weight=(lambda parts: weight_of(spec, parts))
                                 if spec.weights else None,
                                 markers=spec.markers)
        counted = count_class(spec, t)
        assert counted == oracle
        # class_gf counts basis elements plus paddings, the class only where
        # each member splits so: k = 3, c = (1, 2, 6), d = (0, 0, 0) is no
        # such class, since its basis holds (1, 3), which is no member.  It
        # refuses such a spec at every total, and verify_sip fails it at 14.
        try:
            assembled = class_gf(spec, t)
        except ValueError as exc:
            assert "not separable" in str(exc)
            assert not verify_sip(spec, 14).ok
        else:
            assert counted == assembled

    @pytest.mark.parametrize("spec", [SipClassSpec(1, (1,), (2,), markers=("u",)),
                                      SipClassSpec(2, (1, 2), (2, 3), markers=("u", "v"))],
                             ids=["k1", "k2"])
    def test_unweighted_count_keeps_markers(self, spec):
        counted, assembled = count_class(spec, 5), class_gf(spec, 5)
        assert counted.markers == assembled.markers == spec.markers
        assert counted.monomial_rows(5) == assembled.monomial_rows(5)

    @pytest.mark.parametrize("spec", list(SPEC_REGISTRY.values())
                             + [MIXED_WEIGHTS, GOLLNITZ_UV, SCHUR_UUU],
                             ids=list(SPEC_REGISTRY) + ["mixed-weights", "gollnitz-uv",
                                                        "schur-uuu"])
    def test_transfer_matches_largest_part_rows(self, spec):
        # class_gf sums basis elements by residue sequence, assemble_gf the
        # table's b(n, h) rows by largest part, through the same Horner pass
        for t in [*range(61), 120]:
            max_n = next(n for n in count(1) if min_basis_total(spec, n + 1) > t)
            table = basis_table(spec, max_n, max(t, 1))
            assert assemble_gf(spec, table, t) == class_gf(spec, t), t

    @pytest.mark.parametrize("name", list(SPEC_REGISTRY))
    def test_deep_matches_product(self, name):
        # Schur's theorem: parts congruent to +-1 mod 6; the others have an
        # identity whose product side is the class generating function
        t = 1000
        identities = {"natural": "euler-any", "distinct": "euler-distinct",
                      "rogers-ramanujan": "rogers-ramanujan",
                      "gollnitz": "gollnitz-gordon-1", "schur-refined": "schur-refined",
                      "glasgow": "glasgow-mod8"}
        got = class_gf(SPEC_REGISTRY[name], t)
        if name == "schur":
            want = congruence_product(CongruenceProductSpec(6, frozenset({1, 5})), t)
        else:
            want = catalog.get(identities[name]).rhs(t)
        assert got.trunc == t
        assert got.first_mismatch(want) is None

    def test_class_gf_reads_no_largest_part_rows(self):
        # the b(n, h) rows serve basis_table alone, so assemble_gf checks class_gf
        assert "_basis_rows" in reached("basis_table")
        assert "_basis_rows" not in reached("class_gf")
        assert "_class_levels" in reached("class_gf")

    @pytest.mark.parametrize("spec", [NATURAL, SCHUR_REFINED], ids=["natural", "schur-refined"])
    def test_negative_truncation_rejected(self, spec):
        with pytest.raises(ValueError, match="truncation order must be non-negative"):
            class_gf(spec, -1)

    @pytest.mark.parametrize("name", list(SPEC_REGISTRY))
    def test_assembled_from_shallowest_table(self, name):
        spec, t = SPEC_REGISTRY[name], 30
        max_n = next(n for n in count(1) if min_basis_total(spec, n + 1) > t)
        assert assemble_gf(spec, basis_table(spec, max_n, t), t) == class_gf(spec, t)

    def test_shallow_table_rejected(self):
        tbl = basis_table(ROGERS_RAMANUJAN, 2, 30)
        with pytest.raises(InsufficientTableDepth):
            assemble_gf(ROGERS_RAMANUJAN, tbl, 30)  # 3-part elements reach 9
        tbl2 = basis_table(ROGERS_RAMANUJAN, 6, 20)
        with pytest.raises(InsufficientTableDepth):
            assemble_gf(ROGERS_RAMANUJAN, tbl2, 30)  # largest-part bound short


# k = 3, c = (1, 2, 6), d = (0, 0, 0): the basis step to residue 0 above the
# part 1 is 3, below c_3 = 6, so the basis element (1, 3) is no member.
NOT_SEPARABLE = SipClassSpec(3, (1, 2, 6), (0, 0, 0))


def small_box():
    """Every unmarked class with k <= 3, c_r in {r, r + k} and d_r in 0..2k."""
    for k in (1, 2, 3):
        for c in product(*[(r, r + k) for r in range(1, k + 1)]):
            for d in product(range(2 * k + 1), repeat=k):
                yield SipClassSpec(k, c, d)


class TestNotSeparable:
    """The basis machinery refuses a class whose basis steps fall below a
    threshold; the member walks and verify_sip take any class."""

    def test_refused_exactly_where_verify_sip_fails(self):
        refused = 0
        for spec in small_box():
            ok = verify_sip(spec, 14).ok
            try:
                assembled = class_gf(spec, 14)
            except ValueError:
                assert not ok, spec
                refused += 1
            else:
                assert ok, spec
                assert assembled == count_class(spec, 14), spec
        assert refused == 556

    def test_basis_entry_points_raise(self):
        with pytest.raises(ValueError, match="not separable"):
            class_gf(NOT_SEPARABLE, 4)
        with pytest.raises(ValueError, match="not separable"):
            basis_table(NOT_SEPARABLE, 2, 4)
        with pytest.raises(ValueError, match="not separable"):
            enumerate_basis(NOT_SEPARABLE, 2, 4)
        with pytest.raises(ValueError, match="not separable"):
            decompose((1, 3), NOT_SEPARABLE)

    def test_class_walks_still_run(self):
        # 4, 2+2, 1+1+2 and 1+1+1+1 of total 4; 1+3 is a basis element, no member
        assert count_class(NOT_SEPARABLE, 4).int_coefficients(4) == [1, 1, 2, 2, 4]
        assert not in_sip_class((1, 3), NOT_SEPARABLE)
        report = verify_sip(NOT_SEPARABLE, 14)
        assert not report.ok and report.not_in_class


def scan_next_parts(spec, last, remaining):
    """The parts that may follow ``last`` (None before the first part) within
    ``remaining``, ascending: a filter over every candidate part against its
    residue's threshold and gap."""
    k, c, d = spec.k, spec.c, spec.d
    return [p for p in range(1 if last is None else last, remaining + 1)
            if p >= c[(p - 1) % k] and (last is None or p - last >= d[(p - 1) % k])]


class TestStepsTable:
    """sip._Steps, the class rule both member walks read, against the scan."""

    SPECS = list(SPEC_REGISTRY.values()) + list(small_box())
    LASTS = [None, *range(1, 13)]

    def test_starts_are_the_least_parts(self):
        for spec in self.SPECS:
            table = sip._Steps(spec)
            for last in self.LASTS:
                scanned = scan_next_parts(spec, last, 40)
                starts, least = table[last]
                assert starts == [min(p for p in scanned if (p - 1) % spec.k == r)
                                  for r in range(spec.k)], (spec, last)
                assert least == min(starts) == scanned[0]

    def test_member_rule_parts_are_the_scan(self):
        for spec in self.SPECS:
            rule = sip._member_rule(spec)
            # the empty member and each one-part member, with its basis
            for last in self.LASTS:
                parts = () if last is None else (last,)
                basis = tuple(sip._basis_step(spec, None, p) for p in parts)
                if not in_sip_class(parts, spec):
                    continue
                for remaining in (0, 7, 23, 40):
                    pairs, _ = rule(parts, basis, remaining)
                    assert [v for v, _ in pairs] == scan_next_parts(spec, last, remaining), (
                        spec, last, remaining)


def reference_verify_sip(spec, total_max):
    """verify_sip as a lockstep merge of two ordered walks, each a recursive
    generator of its own: every member with its constructive basis, and
    every basis element plus padding (basis successors from
    ``sip.basis_successors``, so that its seams reach both sides).  A member
    below the recomposition head is omitted, a recomposition that is not the
    member head escaped the class, and a matched one must fit and carry the
    member's basis.  It shares no walk and no rule with sip."""
    k, c, d = spec.k, spec.c, spec.d

    def members(parts, basis, remaining):
        yield parts, basis
        last = parts[-1] if parts else None
        for p in range(1, remaining + 1):
            r = (p - 1) % k
            if p >= c[r] and (last is None or p - last >= d[r]):
                if basis:
                    lo = basis[-1] + d[r]
                    step = lo + (p - lo) % k
                else:
                    step = c[r]
                yield from members(parts + (p,), basis + (step,), remaining - p)

    def recompositions(parts, basis, remaining, collisions):
        yield parts, basis
        if basis:
            nexts, pad = sip.basis_successors(spec, basis[-1]), parts[-1] - basis[-1]
        else:
            nexts, pad = sorted(set(c)), 0
        kids = []
        for v, b in sorted((v, b) for b in nexts for v in range(b + pad, remaining + 1, k)):
            if kids and kids[-1][0] == v:
                collisions.append((basis + (kids[-1][1],), basis + (b,), parts + (v,)))
            else:
                kids.append((v, b))
        for v, b in kids:
            yield from recompositions(parts + (v,), basis + (b,), remaining - v, collisions)

    def split(basis, parts):
        return SipDecomposition(basis, tuple(p - b for p, b in zip(parts, basis)))

    report = sip.SipVerifyReport(spec=spec, total_max=total_max)
    walk = members((), (), total_max)
    next(walk)
    collisions, fits = [], [True]
    matched = recomposed = 0
    head = next(walk, None)
    for parts, basis in islice(recompositions((), (), total_max, collisions), 1, None):
        recomposed += 1
        n, p = len(parts), parts[-1]
        r = (p - 1) % k
        fit = fits[n - 1] and p >= c[r] and (n == 1 or p - parts[-2] >= d[r])
        fits[n:] = [fit]
        while head is not None and head[0] < parts:
            report.omissions.append(head[0])
            head = next(walk, None)
        if head is None or head[0] != parts:
            report.not_in_class.append((split(basis, parts), parts))
            continue
        matched += 1
        if not fit:
            report.not_in_class.append((split(basis, parts), parts))
        elif head[1] != basis:
            report.constructive_mismatches.append((parts, split(head[1], parts)))
        head = next(walk, None)
    if head is not None:
        report.omissions += [head[0]] + [parts for parts, _ in walk]
    report.collisions = [(split(first, parts), split(basis, parts), parts)
                         for first, basis, parts in collisions]
    report.class_count = 1 + matched + len(report.omissions)
    report.recomposed_count = recomposed + len(collisions)
    return report


class TestVerifySipReference:
    """verify_sip gives the reference merge's report, entry for entry and in
    order, FAIL reports included."""

    def assert_same(self, spec, total):
        got, want = verify_sip(spec, total), reference_verify_sip(spec, total)
        assert got == want, spec
        assert got.summary() == want.summary()
        return got

    @pytest.mark.parametrize("name", list(SPEC_REGISTRY))
    def test_registry(self, name):
        for t in range(25):
            assert self.assert_same(SPEC_REGISTRY[name], t).ok

    def test_small_box(self):
        failed = sum(not self.assert_same(spec, 14).ok for spec in small_box())
        assert failed == 556

    @pytest.mark.parametrize("spec", [GOLLNITZ_GORDON, SCHUR, GLASGOW],
                             ids=["gollnitz", "schur", "glasgow"])
    @pytest.mark.parametrize("seam", ["twice", "dropped"])
    def test_basis_successor_seams(self, spec, seam, monkeypatch):
        real = sip.basis_successors
        edit = {"twice": lambda got: got + got[:1], "dropped": lambda got: got[1:]}[seam]
        monkeypatch.setattr(sip, "basis_successors", lambda spec, value: edit(real(spec, value)))
        report = self.assert_same(spec, 14)
        assert report.collisions if seam == "twice" else report.omissions

    @pytest.mark.parametrize("spec", [GOLLNITZ_GORDON, SCHUR, GLASGOW],
                             ids=["gollnitz", "schur", "glasgow"])
    def test_basis_gap_fault(self, spec, monkeypatch):
        # any one step of the table raised by k: the member walk, on c and d,
        # meets members that no basis element plus padding gives
        real = sip._basis_gaps
        for s, r in product(range(spec.k), repeat=2):
            table = [list(row) for row in real(spec)]
            table[s][r] += spec.k
            monkeypatch.setattr(sip, "_basis_gaps", lambda spec, table=table: table)
            report = verify_sip(spec, 14)
            assert not report.ok and report.omissions, (s, r)


class TestRuleCalls:
    """verify_sip runs its rules only on the nodes with a next part."""

    def test_rules_skip_childless_members(self, monkeypatch):
        calls = Counter()

        def counted(name):
            factory = getattr(sip, name)

            def make(*args):
                rule = factory(*args)

                def call(*state):
                    calls[name] += 1
                    return rule(*state)
                return call
            return make

        members = list(enumerate_class(NATURAL, 30))
        parents = {parts[:-1] for parts in members if parts}
        for name in ("_member_rule", "_recomposition_rule"):
            monkeypatch.setattr(sip, name, counted(name))
        assert verify_sip(NATURAL, 30).ok
        # the root and each member with a next part: 5,604 of the 28,629
        assert (len(members), len(parents)) == (28629, 5604)
        assert calls == {"_member_rule": 5604, "_recomposition_rule": 5604}
        assert 5 * len(parents) <= len(members)

    @pytest.mark.parametrize("name", list(SPEC_REGISTRY))
    def test_branching_pairs_are_the_parents(self, name):
        # a rule that called a state with a next part a leaf would drop members
        spec = SPEC_REGISTRY[name]
        for t in range(25):
            for rule in (sip._member_rule(spec), sip._recomposition_rule(spec, [])):
                for parts, basis, remaining in rule_walk(rule, t):
                    pairs, branching = rule(parts, basis, remaining)
                    assert branching == [(v, b) for v, b in pairs
                                         if rule(parts + (v,), basis + (b,), remaining - v)[0]]


def reference_count_class(spec, total_max):
    """count_class by one rule on every member: an explicit-stack walk over
    (last part, remaining, monomial) that tries every part from the last
    one up to the remaining total against the class thresholds and gaps."""
    k, c, d = spec.k, spec.c, spec.d
    zero = (0,) * len(spec.markers)
    tally = Counter()
    stack = [(None, total_max, zero)]
    while stack:
        last, remaining, monomial = stack.pop()
        tally[remaining, monomial] += 1
        for p in range(1 if last is None else last, remaining + 1):
            r = (p - 1) % k
            if p >= c[r] and (last is None or p - last >= d[r]):
                stack.append((p, remaining - p, tuple(map(add, monomial, spec.weight(p)))))
    rows = {}
    for (remaining, monomial), n in tally.items():
        rows.setdefault(monomial, [0] * (total_max + 1))[total_max - remaining] += n
    return QSeries.from_rows(rows, total_max, spec.markers)


class TestCountClassWalk:
    """count_class's monomial walk runs its rule only on the members with a
    next part (:func:`~qsip.partitions.grow_leaves`)."""

    @pytest.mark.parametrize("name", ["gollnitz", "schur-refined", "glasgow"])
    def test_matches_one_rule_walk(self, name):
        spec = SPEC_REGISTRY[name]
        for t in range(31):
            assert count_class(spec, t) == reference_count_class(spec, t), t

    @pytest.mark.parametrize("name, parents, members", [
        ("gollnitz", 92, 737), ("schur-refined", 60, 500), ("glasgow", 310, 1745)])
    def test_rule_skips_childless_members(self, name, parents, members, monkeypatch):
        spec, calls = SPEC_REGISTRY[name], Counter()

        def counting_kernel(root, rule):
            def counted(state):
                calls["rule"] += 1
                return rule(state)
            return grow_leaves(root, counted)

        found = list(enumerate_class(spec, 30))
        assert (len({parts[:-1] for parts in found if parts}), len(found)) == (parents, members)
        monkeypatch.setattr(sip, "grow_leaves", counting_kernel)
        counted = count_class(spec, 30)
        ones = dict.fromkeys(spec.markers, 1)
        assert sum(c.specialize(ones) for c in counted.coeffs) == members
        # the root and each member with a next part
        assert calls["rule"] == parents
        assert 4 * calls["rule"] <= members
