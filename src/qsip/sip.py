"""Separable-partition machinery: basis, decomposition, tables, assembly.

A SIP class of modulus k (see :class:`~qsip.partitions.SipClassSpec`) has a
basis of minimal members: the first part sits exactly at its residue
threshold and every later gap lies in the half-open window [d_r, d_r + k)
keyed by the residue of the upper part.  That window holds one basis step
from residue s to residue r, gap(s, r) = d_r + ((r - s - d_r) mod k), the
entry [s][r] of the one table every basis reader reads, :func:`_basis_gaps`.
Every class member with n parts splits uniquely as a basis element plus a
non-decreasing padding of n non-negative multiples of k, added partwise.
The split is constructed left to right: each basis part is the basis step
above its predecessor to the member part's residue.  That basis element is
a member only when no lift(s, r) = c_s + gap(s, r) - c_r, the rise of each
part of an element at c_r when c_s is put before it, is negative; the basis
rows, :func:`class_gf`, :func:`basis_table`, :func:`enumerate_basis` and
:func:`decompose` refuse any other spec with ValueError
(:func:`_require_separable`), while the member walks, :func:`count_class`
and :func:`verify_sip` take every spec.

The generating function of the whole class is then

    sum over n of  b(n) / ((q^k; q^k) sub n)

where b(n) sums the n-part basis elements.  :func:`class_gf` sums them by
residue sequence: the element with residues r_1..r_n has total n c_(r_1)
plus the sum over j >= 2 of (n - j + 1) gap(r_(j-1), r_j), and b(n) is a
k-state transfer: with F_n(s) the n-part elements whose first part is c_s,

    F_1(s) = w_s q^c_s,
    F_(n+1)(s) = w_s  sum over r of  q^(c_s + n lift(s, r)) F_n(r),
    b(n) = sum over s of F_n(s)

(equivalently, G_n(s) = q^(-n c_s) F_n(s) has G_(n+1)(s) = w_s times the
sum over r of q^(n gap(s, r)) G_n(r)).  The levels are cut at q^trunc and
stop at the first empty one, since basis elements are closed under taking
prefixes (:func:`_class_levels`); :func:`min_basis_total` is the min-plus
form of the same transfer.  The rows by largest part h,
b(1, c_r) = weight(c_r) q^c_r and b(n, h) = weight(h) q^h times the sum
over the residues s of b(n-1, h - gap(s, r)), r the residue of h
(:func:`_basis_rows`), serve :func:`basis_table` only, which keeps them
exact; :func:`assemble_gf` sums a table's rows over h, so it checks
class_gf through the largest-part recurrence.

Each state and level of the transfer, and each b(n, h), is held as
{marker monomial: (start, row)},
the single monomial () for an unmarked class, so marked and unmarked
classes run one path.  ``row[i]`` is the coefficient of q^(start + g*i)
and the row is cut at q^trunc; ``row[0]`` is nonzero, since every row
starts at the least start of the rows it sums and adds only positive
counts, so no row is ever scanned for its first nonzero; rows add at
offsets aligned by their starts (:func:`~qsip.series._sum_rows`).  The
stride g (:func:`_stride`) is k when the weights put every monomial's row
in one residue class mod k, and 1 otherwise.  A row reaches a series at
its start, as the series stores it, expanded from stride g to one entry per
q-exponent (:func:`_unstrided`), and :func:`assemble_gf` reads the table's
rows back at their starts, so no row is padded from q^0.  A weight is a monomial, its
exponent vector over the spec's markers, so it multiplies an entry as a
key shift: every monomial moves by that vector, and the rows and their
starts stay.

Both member walks, enumerate_class (with verify_sip) and count_class, read
the class rule from one table on c and d, :class:`_Steps`: after each last
part, the least next part of every residue.  The next parts are then k
progressions in steps of k, and those with a next part of their own are a
prefix of each.

verify_sip checks the split exhaustively without holding the members.  Two
rules give a node's next parts as (part, basis part) pairs: the member rule
builds each member's basis by the constructive split, and the
recomposition rule adds a basis part and a padding.  One walk steps through
both trees at once, into the next parts that have a next part of their
own, and compares each node's two pair lists, so each member must meet
exactly one recomposition, with the same basis, and no rule runs on a
childless member.  Its class test reads each new part once along the
recomposition path: a recomposition is in the class when its parent is and
its last part meets its residue threshold and gap.
"""

from __future__ import annotations

import sys
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product, repeat
from operator import add, itemgetter, mul, sub
from typing import Iterable, Iterator

from .partitions import (Partition, SipClassSpec, grow, grow_leaves, in_sip_class,
                         walk_series)
from .series import QSeries, _nested_sum, _rows_through, _sum_rows


class NotInClass(Exception):
    """Decomposition was asked for a partition outside the class."""


class InsufficientTableDepth(Exception):
    """A basis table is too shallow for the requested truncation."""


# The concrete classes studied here, by their usual names.  Weighted Schur
# marks parts congruent to 0 or 1 (mod 3) with u and 0 or 2 (mod 3) with v:
# its weights are u, v and uv, as exponent vectors over (u, v).
NATURAL = SipClassSpec(1, (1,), (0,))
DISTINCT = SipClassSpec(1, (1,), (1,))
ROGERS_RAMANUJAN = SipClassSpec(1, (1,), (2,))
GOLLNITZ_GORDON = SipClassSpec(2, (1, 2), (2, 3))
SCHUR = SipClassSpec(3, (1, 2, 3), (3, 3, 4))
GLASGOW = SipClassSpec(2, (3, 2), (3, 0))

SCHUR_REFINED = SipClassSpec(3, (1, 2, 3), (3, 3, 4),
                             markers=("u", "v"), weights=((1, 0), (0, 1), (1, 1)))

SPEC_REGISTRY: dict[str, SipClassSpec] = {
    "natural": NATURAL,
    "distinct": DISTINCT,
    "rogers-ramanujan": ROGERS_RAMANUJAN,
    "gollnitz": GOLLNITZ_GORDON,
    "schur": SCHUR,
    "schur-refined": SCHUR_REFINED,
    "glasgow": GLASGOW,
}


@lru_cache(maxsize=1024)
def _basis_gaps(spec: SipClassSpec) -> tuple[tuple[int, ...], ...]:
    """The basis step table: entry [s - 1][r - 1] is gap(s, r), the step
    from a basis part of residue s to the next one, of residue r: the one
    value in the window [d_r, d_r + k) congruent to r - s mod k.  The only
    basis code that reads ``spec.d``."""
    k, d = spec.k, spec.d
    return tuple(tuple(dr + (r - s - dr) % k for r, dr in enumerate(d)) for s in range(k))


def basis_successors(spec: SipClassSpec, value: int) -> list[int]:
    """The k possible next basis parts above ``value``, one per residue."""
    return sorted(value + gap for gap in _basis_gaps(spec)[(value - 1) % spec.k])


def _require_separable(spec: SipClassSpec) -> None:
    """Raise ValueError unless every lift(s, r) = c_s + gap(s, r) - c_r is
    at least 0, so that each basis element is a class member.

    A basis part b of residue s is at least c_s, and the step above it to
    residue r is b + gap(s, r), so every such step lands on c_r or above it
    exactly when no lift is negative.  A spec that fails is still a class
    (:func:`verify_sip` reports it as FAIL), but its basis elements plus
    paddings are not its members.
    """
    k, c, gaps = spec.k, spec.c, _basis_gaps(spec)
    for (s, cs), (r, cr) in product(enumerate(c, 1), repeat=2):
        if (step := cs + gaps[s - 1][r - 1]) < cr:
            raise ValueError(f"class k={k} c={c} is not separable: the basis step {step} "
                             f"above c_{s} = {cs} lies below c_{r} = {cr}")


def is_basis_element(parts: Partition, spec: SipClassSpec) -> bool:
    """True iff the partition is a basis member of the class."""
    if not parts:
        return True
    k, c, gaps = spec.k, spec.c, _basis_gaps(spec)
    if parts[0] != c[(parts[0] - 1) % k]:
        return False
    for prev, cur in zip(parts, parts[1:]):
        if cur - prev != gaps[(prev - 1) % k][(cur - 1) % k]:
            return False
    return True


def enumerate_basis(spec: SipClassSpec, n_parts: int, h_max: int
                    ) -> Iterator[Partition]:
    """All basis elements with exactly n_parts parts and largest part <= h_max.
    An n_parts that no tuple can hold raises OverflowError at once, and a
    spec that is not separable raises ValueError
    (:func:`_require_separable`)."""
    _require_separable(spec)
    if n_parts < 1:
        raise ValueError("n_parts must be at least 1")
    if h_max < 1:
        raise ValueError(f"h_max must be at least 1, got {h_max}")
    if n_parts > sys.maxsize:  # fail before the walk grows its tuples toward it
        raise OverflowError(f"a {n_parts}-part tuple does not fit an index-sized integer")

    def successors(parts):
        if len(parts) == n_parts:
            return ()
        nexts = sorted(spec.c) if not parts else basis_successors(spec, parts[-1])
        return (parts + (p,) for p in nexts if p <= h_max)

    return (parts for parts in grow((), successors) if len(parts) == n_parts)


def _basis_step(spec: SipClassSpec, b: int | None, p: int) -> int:
    """The basis part that the constructive split pairs with a member part
    ``p`` over the basis part ``b`` (None for the first part): the
    threshold of p's residue first, then b + gap(s, r) (:func:`_basis_gaps`)
    for the residues s of b and r of p.  It reads p only modulo k."""
    k = spec.k
    if b is None:
        return spec.c[(p - 1) % k]
    return b + _basis_gaps(spec)[(b - 1) % k][(p - 1) % k]


class _Steps(dict):
    """The class rule after a last part, by that part (None before the
    first part), filled on first read: (starts, least), where starts[r - 1]
    is the least part congruent to r mod k that is at least c_r and at least
    last + d_r, and least is min(starts).  The parts that may follow are the
    k progressions range(start, remaining + 1, k).  A part p has a next part
    of its own within a remaining total exactly when p + least after p is at
    most that total; p + least grows strictly with p, so along each
    progression those parts are a prefix."""

    def __init__(self, spec: SipClassSpec):
        super().__init__()
        self.spec = spec

    def __missing__(self, last: int | None) -> tuple[list[int], int]:
        k, c, d = self.spec.k, self.spec.c, self.spec.d
        lows = c if last is None else map(max, c, map(last.__add__, d))
        starts = [lo + (r - lo) % k for r, lo in enumerate(lows, 1)]
        got = self[last] = (starts, min(starts))
        return got


def _member_rule(spec: SipClassSpec):
    """The class rule with the constructive split, as
    ``rule(parts, basis, remaining)`` for a member and its basis: the next
    parts that fit in ``remaining``, ascending, each paired with its basis
    step (:func:`_basis_step`, the rule :func:`decompose` applies), and the
    pairs whose part has a next part of its own.

    The next parts are the k progressions of :class:`_Steps`, one per
    residue, each paired with that residue's basis step and cut where its
    parts stop having a next part; the pairs of all k are then sorted.  The
    steps, :func:`_basis_step`'s, are read from :func:`_basis_gaps` once per
    rule.  A class with k = 1 has one threshold and one gap, so its pairs
    are a C-level range and its prefix ends at (remaining - gap) // 2.
    """
    k, c, gaps = spec.k, spec.c, _basis_gaps(spec)
    if k == 1:
        first, gap, step = c[0], spec.d[0], gaps[0][0]

        def rule(parts, basis, remaining):
            low = parts[-1] + gap if parts else first
            if low > remaining:
                return [], []
            b = basis[-1] + step if basis else first
            pairs = list(zip(range(low, remaining + 1), repeat(b)))
            return pairs, pairs[:max(0, (remaining - gap) // 2 - low + 1)]

        return rule

    table = _Steps(spec)

    def rule(parts, basis, remaining):
        last = parts[-1] if parts else None
        starts, least = table[last]
        if least > remaining:
            return [], []
        steps = c if not basis else [basis[-1] + gap for gap in gaps[(basis[-1] - 1) % k]]
        pairs, branching = [], []
        for p, step in zip(starts, steps):
            pairs += zip(range(p, remaining + 1, k), repeat(step))
            while p + table[p][1] <= remaining:
                branching.append((p, step))
                p += k
        pairs.sort()
        branching.sort()
        return pairs, branching

    return rule


def _member_walk(spec: SipClassSpec, total_max: int) -> Iterator[tuple]:
    """Every class member of total <= total_max, in ascending pre-order, as
    the walk state (parts, constructive basis, remaining total): ``grow``
    over the pairs of :func:`_member_rule`."""
    if total_max < 0:
        raise ValueError("total_max must be non-negative")
    rule = _member_rule(spec)

    def successors(state):
        parts, basis, remaining = state
        return [(parts + (v,), basis + (b,), remaining - v)
                for v, b in rule(parts, basis, remaining)[0]]

    return grow(((), (), total_max), successors)


def enumerate_class(spec: SipClassSpec, total_max: int) -> Iterator[Partition]:
    """Class members of total <= total_max, generated with residue pruning.

    The pruned generation (next part at least prev + its residue gap, and at
    least its residue threshold) is cross-checked against the unpruned
    filter of enumerate_partitions in the test suite.  These are the parts
    of the member walk, stepped by the member rule that :func:`verify_sip`
    reads.
    """
    return map(itemgetter(0), _member_walk(spec, total_max))


def count_class(spec: SipClassSpec, total_max: int) -> QSeries:
    """The class generating function to q^total_max, counted by a walk with
    one state (last part, remaining total) per member.  A marker-free class
    with k = 1 steps it by two ranges on :func:`~qsip.partitions.grow`,
    tallied by :func:`~qsip.partitions.walk_series`.  Every other class adds
    its monomial, the exponent vector sum of its parts' weights (zero when
    unweighted), to the state and walks on :func:`~qsip.partitions.grow_leaves`:
    the next parts are the k progressions of :class:`_Steps`, the rule that
    :func:`_member_rule` reads, and the parts past each one's cut are one
    leaf run.  Members are tallied into one row per monomial.
    """
    if total_max < 0:
        raise ValueError("total_max must be non-negative")
    k = spec.k
    if k == 1 and not spec.markers:
        # Kept for speed (natural at total 30, 2-CPU host): 8.3-8.6 ms here, 24 ms on
        # the monomial walk, 11-25 ms on a grow_leaves rule that walks only the
        # members with a next part (62 against 77-90 ms at total 40).
        gap = spec.d[0]

        def successors(state):
            last, remaining = state
            low = last + gap
            if low > remaining:
                return ()
            return zip(range(low, remaining + 1), range(remaining - low, -1, -1))

        # the root's last part sits one gap below c_1, where the first part starts
        return walk_series(grow((spec.c[0] - gap, total_max), successors), total_max)

    table = _Steps(spec)
    shifts: dict[tuple, list[tuple]] = {}   # a monomial's successor by residue

    def rule(state):
        last, remaining, monomial = state
        nxt = shifts.get(monomial)
        if nxt is None:
            nxt = shifts[monomial] = [tuple(map(add, monomial, spec.weight(r)))
                                      for r in range(1, k + 1)]
        steps, runs = [], []
        for p, mono in zip(table[last][0], nxt):
            while p + table[p][1] <= remaining:   # so p < remaining
                steps.append((p, remaining - p, mono))
                p += k
            if p <= remaining:
                runs.append(zip(range(p, remaining + 1, k), range(remaining - p, -1, -k),
                                repeat(mono)))
        return steps, runs

    zero = (0,) * len(spec.markers)
    # the empty member's row comes first, so a total too large to hold fails before the walk
    rows: dict[tuple, list[int]] = {zero: [0] * (total_max + 1)}
    members = grow_leaves((None, total_max, zero), rule)
    for (_, remaining, monomial), count in Counter(members).items():
        rows.setdefault(monomial, [0] * (total_max + 1))[total_max - remaining] += count
    return QSeries._make(rows, total_max, spec.markers)


@dataclass(frozen=True)
class SipDecomposition:
    """A basis element plus a padding of non-negative multiples of k."""

    basis: Partition
    padding: tuple[int, ...]

    def __post_init__(self):
        if len(self.basis) != len(self.padding):
            raise ValueError("basis and padding lengths differ")


def decompose(parts: Partition, spec: SipClassSpec) -> SipDecomposition:
    """Split a class member into its unique basis element and padding.

    Built left to right by :func:`_basis_step`: the first basis part is the
    threshold of the first part's residue; each later basis part is the
    unique value congruent to the member part in the window
    [prev + d_r, prev + d_r + k).  A spec that is not separable raises
    ValueError (:func:`_require_separable`), a non-member NotInClass.
    """
    _require_separable(spec)
    if not in_sip_class(parts, spec):
        raise NotInClass(f"{parts} is not in the class {spec.c}/{spec.d} mod {spec.k}")
    basis = []
    b = None
    for p in parts:
        b = _basis_step(spec, b, p)
        basis.append(b)
    return SipDecomposition(tuple(basis), tuple(map(sub, parts, basis)))


def recompose(decomp: SipDecomposition) -> Partition:
    """Add padding to basis partwise; always lands back in the class."""
    return tuple(b + p for b, p in zip(decomp.basis, decomp.padding))


def _recomposition_rule(spec: SipClassSpec, collisions: list):
    """The basis-plus-padding rule, as ``rule(parts, basis, remaining)`` for
    a basis element plus padding: its next parts that fit in ``remaining``,
    ascending, each paired with its basis part, and the pairs whose part has
    a next part of its own.

    A next part is a basis part b that may follow the last one
    (:func:`basis_successors`, ascending, looked up once per basis value)
    plus a padding at least the last one, in steps of k, so the parts over
    b form the progression range(b + pad, remaining + 1, k).  Sorted by
    part value, they come in strictly ascending lexicographic order.  A
    part value that an earlier pair already took is appended to
    ``collisions`` as (the earlier basis, its basis, parts) and left out,
    since its subtree would repeat the earlier one's.  Two nodes with equal
    parts branch at such a pair of next parts, so this covers every
    collision.  The part v over b has a next part of its own exactly when
    the least basis successor of b plus its padding v - b is at most
    remaining - v: one cut per progression.
    """
    k = spec.k
    follow: dict[int, list[tuple[int, int]]] = {}

    def successors_of(b):
        # each successor s of b with its lead, its least successor minus s:
        # the part v over s has a next part iff v + lead <= remaining - v
        got = follow.get(b)
        if got is None:
            got = follow[b] = [(s, basis_successors(spec, s)[0] - s)
                               for s in basis_successors(spec, b)]
        return got

    firsts = [(b, basis_successors(spec, b)[0] - b) for b in sorted(spec.c)]

    def rule(parts, basis, remaining):
        if basis:
            b = basis[-1]
            nexts, pad = successors_of(b), parts[-1] - b
        else:
            nexts, pad = firsts, 0
        low = nexts[0][0] + pad
        if low > remaining:
            return [], []
        if len(nexts) == 1:  # one progression is already in order
            b, lead = nexts[0]
            pairs = list(zip(range(low, remaining + 1, k), repeat(b)))
            return pairs, pairs[:max(0, ((remaining - lead) // 2 - low) // k + 1)]
        pairs, branching = [], []
        for v, b, lead in sorted((v, b, lead) for b, lead in nexts
                                 for v in range(b + pad, remaining + 1, k)):
            if pairs and pairs[-1][0] == v:
                collisions.append((basis + (pairs[-1][1],), basis + (b,), parts + (v,)))
                continue
            pairs.append((v, b))
            if 2 * v + lead <= remaining:
                branching.append((v, b))
        return pairs, branching

    return rule


@dataclass
class SipVerifyReport:
    """Outcome of the exhaustive existence-and-uniqueness check."""

    spec: SipClassSpec
    total_max: int
    class_count: int = 0
    recomposed_count: int = 0
    collisions: list = field(default_factory=list)
    omissions: list = field(default_factory=list)
    not_in_class: list = field(default_factory=list)
    constructive_mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.collisions or self.omissions or self.not_in_class
                    or self.constructive_mismatches)

    def summary(self) -> str:
        counts = (f"{self.class_count} members, {self.recomposed_count} recompositions, "
                  f"{len(self.collisions)} collisions, {len(self.omissions)} omissions")
        if not self.ok:  # name every reason a check can fail
            counts += (f", {len(self.not_in_class)} not in class, "
                       f"{len(self.constructive_mismatches)} constructive mismatches")
        return (f"verify_sip k={self.spec.k} c={self.spec.c} d={self.spec.d} "
                f"total<={self.total_max}: {'pass' if self.ok else 'FAIL'} ({counts})")


def verify_sip(spec: SipClassSpec, total_max: int) -> SipVerifyReport:
    """Exhaustively confirm unique decomposition for all members <= total_max.

    One walk runs over the union of two trees, both in ascending
    lexicographic order of parts: the class members, each with the basis the
    constructive split gives it (:func:`_member_rule`), and every basis
    element plus padding (:func:`_recomposition_rule`).  A node is one
    partition with its member basis, its recomposition basis (None for a
    side it is not on), its remaining total and its fit, the verdict of the
    class test.  At each node both rules give their next parts as lists of
    (part, basis part) pairs.  A member part with no recomposition was never
    produced (an omission); a recomposition with no member escaped the
    class; a matched part must pass the class test and carry the
    recomposition's basis; and a collision (two decompositions of one
    partition) is flagged by the recomposition rule.  Every member is its
    own pair and is compared once, and only the parts with a next part of
    their own are walked, so no rule runs on a childless member.

    When the node fits, both bases are equal and both rules give equal
    lists, one ``==`` settles them: every pair is matched once the class
    test passes on every part.  The class test reads only ``spec.c`` and
    ``spec.d``, none of the member rule: a part fits when its parent
    recomposition does and it meets its residue threshold and its gap over
    the part before.  Every part at or above the largest of the k bounds
    meets its own, so only the parts below it are checked, each against its
    residue's bound.  Any other node compares its two lists part by part.
    The lists are sorted by parts at the end, and collisions come in walk
    order, by parent and then by part.

    Only the walk's path is held, so memory grows with the depth, not the
    member count.  Paddings and SipDecomposition objects are rebuilt for
    report entries only.  A negative total raises ValueError, and one past
    the index size (whose pair lists no list could hold) OverflowError,
    both before the walk.
    """
    if total_max < 0:
        raise ValueError("total_max must be non-negative")
    if total_max > sys.maxsize:
        raise OverflowError(f"total {total_max} does not fit an index-sized integer")

    def split(basis, parts):
        return SipDecomposition(basis, tuple(map(sub, parts, basis)))

    report = SipVerifyReport(spec=spec, total_max=total_max)
    k, c, d = spec.k, spec.c, spec.d
    collisions: list[tuple] = []
    member, recomposition = _member_rule(spec), _recomposition_rule(spec, collisions)
    none = ([], [])
    matched = recomposed = 0

    def all_fit(parts, pairs):
        # every next part meets its residue's threshold and its gap over the last part
        bounds = c if not parts else list(map(max, c, map(parts[-1].__add__, d)))
        top = max(bounds)
        for v, _ in pairs:
            if v >= top:
                return True
            if v < bounds[(v - 1) % k]:
                return False
        return True

    def visit(state):
        # check a node's next parts; return those with a next part of their own
        nonlocal matched, recomposed
        parts, mbasis, rbasis, remaining, fit = state
        mpairs, mbranch = none if mbasis is None else member(parts, mbasis, remaining)
        rpairs, rbranch = none if rbasis is None else recomposition(parts, rbasis, remaining)
        recomposed += len(rpairs)
        if (fit and mbasis == rbasis and mpairs == rpairs and mbranch == rbranch
                and all_fit(parts, rpairs)):
            matched += len(rpairs)
            return [(parts + (v,), basis, basis, remaining - v, True)
                    for v, b in rbranch for basis in (rbasis + (b,),)]
        # part by part, over the union of both lists
        m, r, fits = dict(mpairs), dict(rpairs), {}
        for v in sorted(m.keys() | r.keys()):
            child = parts + (v,)
            if v not in r:
                report.omissions.append(child)
                continue
            basis, i = rbasis + (r[v],), (v - 1) % k
            fits[v] = fit and v >= c[i] and (not parts or v - parts[-1] >= d[i])
            matched += v in m
            if v not in m or not fits[v]:
                report.not_in_class.append((split(basis, child), child))
            elif mbasis + (m[v],) != basis:
                report.constructive_mismatches.append((child, split(mbasis + (m[v],), child)))
        m, r = dict(mbranch), dict(rbranch)
        return [(parts + (v,), mbasis + (m[v],) if v in m else None,
                 rbasis + (r[v],) if v in r else None, remaining - v, fits.get(v, False))
                for v in sorted(m.keys() | r.keys())]

    deque(grow(((), (), (), total_max, True), visit), 0)  # visit does the work
    report.omissions.sort()
    report.not_in_class.sort(key=itemgetter(1))
    report.constructive_mismatches.sort(key=itemgetter(0))
    report.collisions = [(split(first, parts), split(basis, parts), parts)
                         for first, basis, parts in collisions]
    report.class_count = 1 + matched + len(report.omissions)
    report.recomposed_count = recomposed + len(collisions)
    return report


@dataclass(frozen=True)
class BasisTable:
    """Generating functions b(n, h) of basis elements by part count and largest part."""

    spec: SipClassSpec
    max_n: int
    max_h: int
    entries: dict[tuple[int, int], QSeries]

    def entry(self, n: int, h: int) -> QSeries:
        """b(n, h); entries off the table support are exactly zero."""
        got = self.entries.get((n, h))
        if got is not None:
            return got
        return QSeries.zero(markers=self.spec.markers)

    def row(self, n: int) -> dict[int, QSeries]:
        return {h: s for (m, h), s in sorted(self.entries.items()) if m == n}

    def row_gf(self, n: int) -> QSeries:
        """b(n) = sum over h of b(n, h), as an exact polynomial."""
        total = QSeries.zero(markers=self.spec.markers)
        for (m, _), s in self.entries.items():
            if m == n:
                total = total + s
        return total


def _stride(spec: SipClassSpec) -> int:
    """The stride g of the basis rows: k when some lambda in (Z/k)^markers
    makes lambda . w_r congruent to r mod k for the exponent vector w_r of
    every residue r's weight, else 1.

    A member with n_r parts of residue r then weighs the monomial
    e = sum of n_r w_r, and its total is congruent to the sum of n_r r,
    that is to lambda . e, mod k; a padding adds multiples of k.  So every
    row of monomial e lies in the class of lambda . e mod k, at every
    (n, h) and in every level sum.  Weighted Schur takes lambda = (1, 2);
    an unmarked class with k > 1 has no lambda.  The search runs over the
    k^markers candidates.
    """
    k = spec.k
    exponents = [spec.weight(r) for r in range(1, k + 1)]
    for lam in product(range(k), repeat=len(spec.markers)):
        if all(sum(map(mul, lam, e)) % k == r % k for r, e in enumerate(exponents, 1)):
            return k
    return 1


def _by_key(entries: Iterable[dict]) -> dict[tuple, list[tuple[int, list[int]]]]:
    """The (start, row) pairs of some entries, grouped by marker monomial."""
    groups: dict[tuple, list] = {}
    for entry in entries:
        for key, pair in entry.items():
            groups.setdefault(key, []).append(pair)
    return groups


def _basis_rows(spec: SipClassSpec, h_max: int, trunc: int, g: int
                ) -> Iterator[dict[int, dict[tuple, tuple[int, list[int]]]]]:
    """Rows n = 1, 2, ... of the recurrence in the module docstring, {h: b(n, h)}
    for h <= h_max, each entry {marker monomial: (start, row)} of stride g
    cut at q^trunc (the single monomial () for an unmarked spec); entries
    zero that far are left out.  Each b(n, h) sums its window, b(n - 1,
    h - gap(s, r)) over the residues s for the residue r of h (read from
    :func:`_basis_gaps`), once per key, at offsets aligned by the starts,
    shifted by q^h, and the weight of h shifts its keys.  The rows count
    basis elements, so they give the class only for a separable spec; any
    other raises ValueError (:func:`_require_separable`) when the first row
    is asked for."""
    _require_separable(spec)
    k = spec.k
    # by residue r, the gaps (s, r) over the residues s of the part below
    into = list(zip(*_basis_gaps(spec)))
    least, most = min(map(min, into)), max(map(max, into))
    weights = [spec.weight(r) for r in range(1, k + 1)]
    row = {cr: {weights[(cr - 1) % k]: (cr, [1])}
           for cr in spec.c if cr <= min(h_max, trunc)}
    while row:
        yield row
        nxt = {}
        for h in range(min(row) + least, min(h_max, max(row) + most) + 1):
            window = [row[h - gap] for gap in into[(h - 1) % k] if h - gap in row]
            weight, acc = weights[(h - 1) % k], {}
            for key, pairs in _by_key(window).items():
                summed = _sum_rows(pairs, g, trunc - h)
                if summed is not None:
                    acc[tuple(map(add, key, weight))] = (summed[0] + h, summed[1])
            if acc:
                nxt[h] = acc
        row = nxt


def _unstrided(row: list[int], g: int) -> list[int]:
    """A stride-g row as a plain int list with one entry per q-exponent,
    from its first entry through its last: ``row`` itself for g = 1."""
    if g == 1:
        return row
    out = [0] * (g * (len(row) - 1) + 1)
    out[::g] = row
    return out


def basis_table(spec: SipClassSpec, max_n: int, max_h: int) -> BasisTable:
    """Tabulate b(n, h) for n <= max_n, h <= max_h as exact polynomials: the
    rows of :func:`_basis_rows` cut at q^(max_n * max_h), which none exceeds,
    each handed to the series at its start, expanded from stride g to one
    entry per q-exponent (:func:`_unstrided`).  A cut that no list can reach
    raises OverflowError before the walk, and a spec that is not separable
    raises ValueError."""
    if max_n < 1 or max_h < 1:
        raise ValueError(f"max_n and max_h must be at least 1, got {max_n} and {max_h}")
    cut = max_n * max_h
    if cut >= sys.maxsize:  # fail before the walk, as a row through q^cut would
        raise OverflowError(f"a row through q^{cut} does not fit an index-sized integer")
    g = _stride(spec)
    rows = zip(range(1, max_n + 1), _basis_rows(spec, max_h, cut, g))
    entries = {(n, h): QSeries._make({key: (start, _unstrided(r, g))
                                      for key, (start, r) in entry.items()}, None, spec.markers)
               for n, row in rows for h, entry in row.items()}
    return BasisTable(spec=spec, max_n=max_n, max_h=max_h, entries=entries)


def min_basis_total(spec: SipClassSpec, n: int) -> int:
    """Exact minimal total of an n-part basis element of any spec, by the
    min-plus form of the residue transfer in the module docstring: the
    least total M_j(s) of a j-part element that starts at c_s has
    M_1(s) = c_s and M_(j+1)(s) = c_s + min over r of (j lift(s, r) + M_j(r))."""
    if n <= 0:
        return 0
    c, gaps = spec.c, _basis_gaps(spec)
    least = c
    for j in range(1, n):
        least = [cs + min(j * (cs + gap - cr) + m for gap, cr, m in zip(row, c, least))
                 for cs, row in zip(c, gaps)]
    return min(least)


def _gf_from_rows(spec: SipClassSpec, levels: Iterable, trunc: int, g: int) -> QSeries:
    """1 + sum over n of b(n) / (q^k; q^k)_n to ``trunc``, b(n) the n-th of
    ``levels``, one stride-g row {monomial: (start, row)} per marker monomial.

    Each monomial is one :func:`~qsip.series._nested_sum` call in steps of g
    from its residue r mod g (all its rows start there): term 0 is the
    constant 1 of the zero monomial, term n is b(n) or None, and g_n is
    1/(1 - q^((n+1)k)), one factor list for every call.  Each sum goes to
    the series at its start, expanded from stride g once, at the end; the
    zero monomial's sum starts at the constant 1 and fills the output row
    allocated first."""
    unit = [0] * (trunc + 1)   # first, so a size too large to hold fails before any level
    sums = list(levels)
    factors = [[(-1, n * spec.k // g, -1)] for n in range(1, len(sums) + 1)]
    zero = (0,) * len(spec.markers)
    terms = {zero: (0, [(0, [1])] + [None] * len(sums))}
    for n, level in enumerate(sums, 1):
        for key, (start, row) in level.items():
            steps = terms.setdefault(key, (start % g, [None] * (len(sums) + 1)))[1]
            steps[n] = (start // g, row)
    rows = {}
    for key, (r, steps) in terms.items():
        start, row = _nested_sum(steps, factors, (trunc - r) // g)
        if key == zero:
            unit[::g] = row
            rows[key] = unit
        else:
            rows[key] = (r + g * start, _unstrided(row, g))
    return QSeries._make(rows, trunc, spec.markers)


def assemble_gf(spec: SipClassSpec, table: BasisTable, trunc: int) -> QSeries:
    """Class generating function to ``trunc`` from a basis table: b(n) sums
    the table's entries b(n, h) over h (:func:`~qsip.series._sum_rows`),
    each stored row at its start, cut at q^trunc
    (:func:`~qsip.series._rows_through`), so it reads the largest-part
    rows that :func:`class_gf` does not build, and the two share the Horner
    pass.

    Requires the table to be deep enough that every basis element ignored
    (more than max_n parts, or largest part beyond max_h) has total > trunc.
    """
    if table.max_h < trunc:
        raise InsufficientTableDepth(
            f"table covers largest part {table.max_h} < trunc {trunc}"
        )
    if min_basis_total(spec, table.max_n + 1) <= trunc:
        raise InsufficientTableDepth(
            f"basis elements with {table.max_n + 1} parts still reach total <= {trunc}"
        )
    groups: list[dict] = [{} for _ in range(table.max_n)]
    for (n, _), entry in table.entries.items():
        for key, pair in _rows_through(entry, trunc).items():
            groups[n - 1].setdefault(key, []).append(pair)
    levels = [{key: _sum_rows(pairs, 1, trunc) for key, pairs in group.items()}
              for group in groups]
    return _gf_from_rows(spec, levels, trunc, 1)


def _class_levels(spec: SipClassSpec, trunc: int, g: int
                  ) -> Iterator[dict[tuple, tuple[int, list[int]]]]:
    """b(n) for n = 1, 2, ... by the residue transfer in the module
    docstring, each {marker monomial: (start, row)} of stride g cut at
    q^trunc, up to the first empty level.

    Only the current states F_n(s) are held.  The states r that share a
    lift under s are summed once per level (:func:`~qsip.series._sum_rows`),
    and each sum is shared by every s that reads it, b(n) among them: a
    class whose lifts depend on s alone (k = 1, Göllnitz–Gordon) takes each
    next state from b(n) by a shift, with no add.  A spec that is not
    separable raises ValueError (:func:`_require_separable`) when the first
    level is asked for."""
    _require_separable(spec)
    k, c = spec.k, spec.c
    weights = [spec.weight(r) for r in range(1, k + 1)]
    # by s, the residues r (0-based) grouped by lift(s, r) = c_s + gap(s, r) - c_r,
    # as (lift, residues) pairs; separability makes every lift non-negative
    reads = []
    for cs, gaps in zip(c, _basis_gaps(spec)):
        by_lift: dict[int, tuple] = {}
        for j, (gap, cr) in enumerate(zip(gaps, c)):
            lift = cs + gap - cr
            by_lift[lift] = by_lift.get(lift, ()) + (j,)
        reads.append(sorted(by_lift.items()))
    every = tuple(range(k))
    # the sets of two or more states that are read together, all k of them for b(n)
    merged = {residues for read in reads for _, residues in read} | {every}
    merged -= {(j,) for j in every}
    states = [{w: (cs, [1])} if cs <= trunc else {} for cs, w in zip(c, weights)]
    n = 1
    while any(states):
        sums = {(j,): state for j, state in enumerate(states)}
        for residues in merged:
            sums[residues] = {key: _sum_rows(pairs, g, trunc)
                              for key, pairs in _by_key(states[j] for j in residues).items()}
        yield sums[every]
        nxt = []
        for cs, w, read in zip(c, weights, reads):
            groups: dict[tuple, list] = {}
            for lift, residues in read:
                shift = cs + n * lift
                for key, (start, row) in sums[residues].items():
                    if start + shift <= trunc:
                        groups.setdefault(key, []).append((start + shift, row))
            nxt.append({tuple(map(add, key, w)): _sum_rows(pairs, g, trunc)
                        for key, pairs in groups.items()})
        states = nxt
        n += 1


def class_gf(spec: SipClassSpec, trunc: int) -> QSeries:
    """Class generating function to ``trunc``: the levels b(n) of the residue
    transfer (:func:`_class_levels`), cut at q^trunc and summed up to the
    first empty one, since basis elements are closed under taking
    prefixes, over (q^k; q^k)_n (:func:`_gf_from_rows`).  The rows have the
    spec's stride (:func:`_stride`).  The output is allocated before the
    first level, so a trunc too large to hold raises at once; a spec that
    is not separable raises ValueError."""
    g = _stride(spec)
    return _gf_from_rows(spec, _class_levels(spec, trunc, g), trunc, g)
