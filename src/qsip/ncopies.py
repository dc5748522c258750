"""Partitions with n copies of n: subscripted parts and weighted differences.

Parts are ordered pairs ``value_sub`` with 1 <= sub <= value, listed in
ascending lexicographic order.  The governing distance is the weighted
difference ((a - b)) = a.value - b.value - a.sub - b.sub between an upper
part a and a lower part b.  Classes constrain the weighted difference of
successive parts; the minimal members (smallest part diagonal, every
successive weighted difference exactly r) play the role the basis plays for
ordinary separable classes, and ordinary non-negative partitions attach to
them partwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter
from itertools import repeat
from operator import itemgetter
from typing import Iterator, NamedTuple

from .partitions import grow, grow_leaves, powerset, walk_series
from .qfactory import PochSpec, binomial_row, series_sum
from .series import QSeries, _shifted, _sum_exact

_ODDS = PochSpec(offset=1, step=2)  # (q; q^2)


class ConstraintViolation(Exception):
    """Input violates the weighted-difference precondition."""


class CopyPart(NamedTuple):
    value: int
    sub: int

    def __str__(self) -> str:
        return f"{self.value}:{self.sub}"


def check_part(part: CopyPart) -> CopyPart:
    if not 1 <= part.sub <= part.value:
        raise ValueError(f"subscript must satisfy 1 <= sub <= value, got {part}")
    return part


def is_diagonal(part: CopyPart) -> bool:
    """True for parts of the form j_j (value equal to subscript)."""
    return part.value == part.sub


def weighted_difference(upper: CopyPart, lower: CopyPart) -> int:
    """((upper - lower)) = value difference minus both subscripts."""
    return upper.value - lower.value - upper.sub - lower.sub


def copy_total(parts: tuple[CopyPart, ...]) -> int:
    return sum([p.value for p in parts])


def enumerate_ncopies(total_max: int, min_diff: int | None = None
                      ) -> Iterator[tuple[CopyPart, ...]]:
    """All n-copies partitions of totals 0..total_max, ascending lex order.

    With ``min_diff`` set, which must be at least -1, successive parts must
    have weighted difference at least min_diff, which forces strictly
    increasing parts; without it arbitrary multisets are allowed.
    """
    if total_max < 0:
        raise ValueError("total_max must be non-negative")
    if min_diff is not None and min_diff < -1:
        raise ValueError("weighted-difference constant must be at least -1")

    def successors(state):
        parts, remaining = state
        if not parts or min_diff is None:  # lexicographically >= the last part
            low = parts[-1] if parts else CopyPart(1, 1)
            if low.value > remaining:
                return ()
            return ((parts + (CopyPart(v, s),), remaining - v)
                    for v in range(low.value, remaining + 1)
                    for s in range(low.sub if v == low.value else 1, v + 1))
        # ((v_s - last)) >= min_diff  <=>  s <= v - reach, and s >= 1
        last = parts[-1]
        reach = last.value + last.sub + min_diff
        low = max(1, reach + 1)
        if low > remaining:
            return ()
        return ((parts + (CopyPart(v, s),), remaining - v)
                for v in range(low, remaining + 1)
                for s in range(1, min(v, v - reach) + 1))

    return (parts for parts, _ in grow(((), total_max), successors))


def count_ncopies(total_max: int, min_diff: int) -> QSeries:
    """Generating function of the partitions of :func:`enumerate_ncopies`
    with ``min_diff``, counted by a walk with one state per partition.

    A state is (t, remaining total), t = v + s of the last part v_s, all
    that the difference rule reads; the root stands for no part as
    t = -1 - min_diff, from which every v_s steps.  The next parts v_s with
    1 <= s <= v - reach, reach = t + min_diff, step to the states
    (v + s, remaining - v).  Such a state has a next part exactly when
    v + s + min_diff + 1 <= remaining - v, so the walk runs on
    :func:`~qsip.partitions.grow_leaves` with the rest as one leaf run per
    value v.
    """
    if total_max < 0:
        raise ValueError("total_max must be non-negative")
    if min_diff < -1:
        raise ValueError("weighted-difference constant must be at least -1")

    def rule(state):
        # the next states (t, rest) for each v, t from v + 1 to 2v - cap; those
        # with t + min_diff + 1 <= rest step on, and only a v below the split has any
        top, remaining = state
        reach = top + min_diff
        cap, low, split = max(reach, 0), max(1, reach + 1), (remaining - min_diff) // 2
        steps, runs = [], []
        for v in range(low, split):
            rest = remaining - v
            tops, n = range(v + 1, 2 * v - cap + 1), rest - min_diff - 1 - v
            steps += zip(tops[:n], repeat(rest))
            if n < len(tops):
                runs.append(zip(tops[n:], repeat(rest)))
        for v in range(max(low, split), remaining + 1):
            runs.append(zip(range(v + 1, 2 * v - cap + 1), repeat(remaining - v)))
        return steps, runs

    return walk_series(grow_leaves((-1 - min_diff, total_max), rule), total_max)


# -- minimal chains and the attach/detach bijection -------------------------

def enumerate_base(total_max: int, r: int) -> Iterator[tuple[CopyPart, ...]]:
    """Chains with diagonal smallest part and successive weighted difference
    exactly r, over all totals 0..total_max: the partitions of
    :func:`enumerate_ncopies` with ``min_diff=r`` that are such chains."""
    return (parts for parts in enumerate_ncopies(total_max, min_diff=r)
            if (not parts or is_diagonal(parts[0]))
            and all(weighted_difference(upper, lower) == r
                    for lower, upper in zip(parts, parts[1:])))


def base_decompose(parts: tuple[CopyPart, ...], r: int
                   ) -> tuple[tuple[CopyPart, ...], tuple[int, ...]]:
    """Split off the unique exact-difference-r chain with the same subscripts.

    Returns (base, attached) where attached is the non-decreasing tuple of
    non-negative values added partwise to the base.  Raises
    :class:`ConstraintViolation` unless every successive weighted difference
    of the input is at least r.
    """
    for p in parts:
        check_part(p)
    for lower, upper in zip(parts, parts[1:]):
        if weighted_difference(upper, lower) < r:
            raise ConstraintViolation(
                f"weighted difference of {upper} over {lower} is below {r}"
            )
    base: list[CopyPart] = []
    for idx, p in enumerate(parts):
        if idx == 0:
            value = p.sub
        else:
            prev = base[-1]
            value = prev.value + prev.sub + p.sub + r
        base.append(CopyPart(value, p.sub))
    attached = tuple(p.value - b.value for p, b in zip(parts, base))
    return tuple(base), attached


def base_recompose(base: tuple[CopyPart, ...], attached: tuple[int, ...]
                   ) -> tuple[CopyPart, ...]:
    """Add an attached partition to a base chain partwise."""
    if len(base) != len(attached):
        raise ValueError("base and attached lengths differ")
    return tuple(CopyPart(b.value + a, b.sub) for b, a in zip(base, attached))


# -- chain generating functions ---------------------------------------------

@dataclass(frozen=True)
class ExactDiffTable:
    """Exact-difference-r chains by part count n and top part m_j, m <= max_m.

    ``levels[n - 1][t]`` is H(n, t), the generating function of the n-part
    chains whose top part m_j has m + j = t, as (start, row), ``row[i]``
    the coefficient of q^(start + i) from the first nonzero to the last; a
    t with no such chain has no row (:func:`exact_diff_table`).  The
    entries g(n, m, j) = q^m H(n - 1, m - j - r) are built on read.
    """

    r: int
    max_n: int
    max_m: int
    levels: tuple[dict[int, tuple[int, list[int]]], ...]

    def entry(self, n: int, m: int, j: int) -> QSeries:
        """g(n, m, j): q^m on the diagonal for n = 1, q^m H(n - 1, m - j - r)
        above it, and zero off the table."""
        if not (1 <= n <= self.max_n and 1 <= j <= m <= self.max_m):
            return QSeries.zero()
        if n == 1:
            return _shifted(m, (1,)) if m == j else QSeries.zero()
        start, row = self.levels[n - 2].get(m - j - self.r, (0, None))
        return _shifted(m + start, row)

    def level_gf(self, n: int) -> QSeries:
        """All n-part chains: the sum over t of H(n, t)."""
        rows = list(self.levels[n - 1].values()) if 1 <= n <= self.max_n else []
        return QSeries._make(_sum_exact({(): rows}) if rows else {}, None, ())


def exact_diff_table(r: int, max_n: int, max_m: int) -> ExactDiffTable:
    """The chain table, n <= max_n and m <= max_m, as its level rows H(n, t).

    The part after a top part m_j is (m + j + r + i)_i, so it reads the top
    only through m + j.  Summing each level by that key,
    H(n, t) = sum over m + j = t of g(n, m, j), gives

        g(n, m, j) = q^m H(n - 1, m - j - r),
        H(n, t) = sum over m + j = t of q^m H(n - 1, m - j - r),

    seeded by the diagonal one-part chains g(1, m, m) = q^m, so
    H(1, 2m) = q^m.  Each level is stepped once from the one below it, each
    H(n, t) one sum of its terms at their starts.
    """
    if r < -1:
        raise ValueError("weighted-difference constant must be at least -1")
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    if max_m < 1:
        raise ValueError("max_m must be at least 1")
    levels = [{2 * m: (m, [1]) for m in range(1, max_m + 1)}]
    for _ in range(1, max_n):
        prev, terms = levels[-1], {}
        for m in range(1, max_m + 1):
            for j in range(1, m + 1):
                src = prev.get(m - j - r)
                if src is not None:
                    terms.setdefault(m + j, []).append((m + src[0], src[1]))
        levels.append(_sum_exact(terms))
    return ExactDiffTable(r=r, max_n=max_n, max_m=max_m, levels=tuple(levels))


def exact_diff_closed(r: int, n: int, m: int, j: int) -> QSeries:
    """Closed form for g_r(n, m, j): a monomial times a base-q^2 binomial.

    With N, M, J = ceil(n/2), ceil(m/2), ceil(j/2) and
    B = ceil(((r + 2) n^2 - (4r + 6) n + 3r + 4) / 2),

        g_r(n, m, j) = q^(3M - J + B - s) [M - rN - J + a, n - 2]_{q^2}.

    Chains alternate between diagonal-parity parts (value and subscript
    congruent mod 2) and, for odd r and even n, the opposite: there the
    top has m + j odd, (a, s) = ((r - 1)/2, 0) for even m and
    ((r - 3)/2, 2) for odd m.  Otherwise m + j is even, s = m mod 2, and
    a = r - 1 for odd n, (r - 2)/2 for even n.  Every other (m, j) is zero.
    Validated entrywise against :func:`exact_diff_table` in the test suite.
    """
    if r < -1:
        raise ValueError("weighted-difference constant must be at least -1")
    if n < 1 or not 1 <= j <= m:
        return QSeries.zero()
    if n == 1:
        return _shifted(m, (1,)) if m == j else QSeries.zero()
    mixed = r % 2 == 1 and n % 2 == 0
    if (m + j) % 2 != mixed:
        return QSeries.zero()
    if mixed:
        a, s = ((r - 1) // 2, 0) if m % 2 == 0 else ((r - 3) // 2, 2)
    else:
        a, s = (r - 1 if n % 2 else (r - 2) // 2), m % 2
    N, M, J = (n + 1) // 2, (m + 1) // 2, (j + 1) // 2
    B = -(-((r + 2) * n * n - (4 * r + 6) * n + 3 * r + 4) // 2)
    return _shifted(3 * M - J + B - s, binomial_row(M - r * N - J + a, n - 2, base=2))


def base_gf(parts: int, r: int, trunc: int) -> QSeries:
    """Generating function of exact-difference-r chains with a given part count.

    Equals q^(parts^2 + r*C(parts,2)) / (q; q^2)_parts, the diagonal chain
    total in the numerator and odd-step growth in the denominator.
    """
    if parts < 0:
        raise ValueError("part count must be non-negative")
    if r < -1:
        raise ValueError("weighted-difference constant must be at least -1")
    exp = parts * parts + r * (parts * (parts - 1) // 2)
    if exp > trunc:
        return QSeries.zero(trunc)
    row = [1] + [0] * (trunc - exp)
    return QSeries._make({(): (exp, _ODDS.apply(row, parts, -1))}, trunc, ())


def ncopies_gf(r: int, trunc: int) -> QSeries:
    """Generating function of n-copies partitions with successive weighted
    differences at least r: attach an ordinary partition to each chain,
    sum over m of q^(m^2 + r*C(m,2)) / ((q; q^2)_m (q; q)_m)."""
    return series_sum((2 + r, -r), (), (_ODDS, PochSpec(1, 1)), trunc)


# -- overlined variants -------------------------------------------------------

@dataclass(frozen=True)
class OverCopyPartition:
    """n-copies partition with an optional overline per part species."""

    parts: tuple[CopyPart, ...]
    overlined: frozenset[CopyPart]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        object.__setattr__(self, "overlined", frozenset(self.overlined))
        if not self.overlined <= set(self.parts):
            raise ValueError("overlines must sit on parts that occur")

    @property
    def total(self) -> int:
        return copy_total(self.parts)

    def __str__(self) -> str:
        out = []
        for p in self.parts:
            mark = "~" if p in self.overlined else ""
            out.append(f"{p}{mark}")
        return "+".join(out) if out else "0"


def enumerate_ncopies_over(total_max: int) -> Iterator[OverCopyPartition]:
    """Overlined n-copies partitions under the chain-minimum overline rule.

    Successive weighted differences must be non-negative; within each
    maximal run of successive parts at weighted difference exactly zero,
    only the first (smallest) part may carry the overline.  Parts outside
    any run count as their own run, so they may always be overlined.
    """
    for parts in enumerate_ncopies(total_max, min_diff=0):
        for marked in powerset(overline_carriers(parts)):
            yield OverCopyPartition(parts, frozenset(marked))


def count_ncopies_over(total_max: int) -> QSeries:
    """Generating function of :func:`enumerate_ncopies_over`, counted by a
    walk with one state per plain partition of difference >= 0, weighted by
    2^s for its s overline carriers (:func:`overline_carriers`).

    A state is (t = v + s of the last part v_s, remaining total, weight);
    the weight doubles at each carrier, that is at each step but the one at
    weighted difference exactly zero, t = 2v - reach for reach = t of the
    last part.  The root stands for no part as t = -1, from which every v_s
    steps as a carrier.  A state has a next part exactly when
    t + 1 <= remaining, and the walk runs on
    :func:`~qsip.partitions.grow_leaves`, as in :func:`count_ncopies`.
    The states are tallied by (remaining, weight), and each pair adds its
    count times its weight; the row is allocated before the walk, as in
    :func:`~qsip.partitions.walk_series`.
    """
    if total_max < 0:
        raise ValueError("total_max must be non-negative")

    # At the root (reach = -1) the zero top 2v + 1 is past every top v + s,
    # s <= v, so range(v + 1, zero) holds all of them, each a carrier.
    def rule(state):
        # the carriers (t, rest) for each v, t from v + 1 below the zero top
        # 2v - reach; those with t + 1 <= rest step on, only for a v below the split
        reach, remaining, weight = state
        doubled, low, split = 2 * weight, max(1, reach + 1), remaining // 2
        steps, runs = [], []
        for v in range(low, split):
            rest = remaining - v
            tops, n = range(v + 1, 2 * v - reach), rest - 1 - v
            steps += zip(tops[:n], repeat(rest), repeat(doubled))
            if n < len(tops):
                runs.append(zip(tops[n:], repeat(rest), repeat(doubled)))
        for v in range(max(reach + 2, split), remaining + 1):
            runs.append(zip(range(v + 1, 2 * v - reach), repeat(remaining - v),
                            repeat(doubled)))
        if reach >= 0:
            # the zero states (2v - reach, remaining - v), stepping on while 3v < remaining + reach
            tops = range(2 * low - reach, 2 * remaining - reach + 1, 2)
            rests = range(remaining - low, -1, -1)
            n = max(0, (remaining + reach - 1) // 3 - low + 1)
            steps += zip(tops[:n], rests[:n], repeat(weight))
            runs.append(zip(tops[n:], rests[n:], repeat(weight)))
        return steps, runs

    coeffs = [0] * (total_max + 1)
    states = grow_leaves((-1, total_max, 1), rule)
    for (remaining, weight), count in Counter(map(itemgetter(1, 2), states)).items():
        coeffs[total_max - remaining] += count * weight
    return QSeries._make({(): coeffs}, total_max, ())


def overline_carriers(parts: tuple[CopyPart, ...]) -> tuple[CopyPart, ...]:
    """The parts that may carry an overline under the chain-minimum rule of
    :func:`enumerate_ncopies_over`: the first part, and each part whose
    weighted difference over its predecessor is positive.  A partition with
    s carriers has 2^s overlined versions."""
    return parts[:1] + tuple(p for lower, p in zip(parts, parts[1:])
                             if weighted_difference(p, lower) > 0)


def enumerate_even_subscript(total_max: int) -> Iterator[tuple[CopyPart, ...]]:
    """n-copies partitions with even subscripts, non-negative successive
    weighted differences, and no adjacent odd-value pair at difference zero:
    the partitions of :func:`enumerate_ncopies` with ``min_diff=0`` whose
    subscripts are all even and in which no pair at difference zero has an
    odd upper value; with even subscripts, such a pair's values share their
    parity."""
    return (parts for parts in enumerate_ncopies(total_max, min_diff=0)
            if not any(p.sub % 2 for p in parts)
            and not any(upper.value % 2 and weighted_difference(upper, lower) == 0
                        for lower, upper in zip(parts, parts[1:])))


def count_even_subscript(total_max: int) -> QSeries:
    """Generating function of :func:`enumerate_even_subscript`, counted by a
    walk with one state per partition.

    A state is (t = v + s of the last part v_s, remaining total), 0 for the
    root.  The rule reads the new part's value only: at difference zero it
    shares its parity with the last part's, so an odd v drops the step
    s = v - reach.  A state has a next part exactly when t + 2 <= remaining,
    and the walk runs on :func:`~qsip.partitions.grow_leaves`, as in
    :func:`count_ncopies`.
    """
    if total_max < 0:
        raise ValueError("total_max must be non-negative")

    def rule(state):
        # the next states (t, rest) for each v, t from v + 2 in steps of 2; those
        # with t + 2 <= rest step on, and only a v below the split has any
        reach, remaining = state
        split = remaining // 2 - 1
        steps, runs = [], []
        for v in range(reach + 2, split):
            rest = remaining - v
            tops, n = range(v + 2, 2 * v - reach - (v & 1) + 1, 2), (rest - v - 2) // 2
            steps += zip(tops[:n], repeat(rest))
            if n < len(tops):
                runs.append(zip(tops[n:], repeat(rest)))
        for v in range(max(reach + 2, split), remaining + 1):
            runs.append(zip(range(v + 2, 2 * v - reach - (v & 1) + 1, 2), repeat(remaining - v)))
        return steps, runs

    return walk_series(grow_leaves((0, total_max), rule), total_max)
