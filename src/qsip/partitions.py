"""Partition enumerators, and the walks that they and the counting oracles run on.

Partitions are ascending tuples of positive integers (non-decreasing,
smallest part first).  Every enumerator and every counting walk in the
package is a successor rule over states, run by one of two walks that keep
their own stack, so the number of parts is not limited by the
interpreter's recursion limit: the pre-order walk :func:`grow`, and
:func:`grow_leaves` for counting walks whose states are mostly leaves.  An
enumerator that yields tuples keeps its prefix in its state; a counting
walk keeps only what its rule reads and the remaining total, and
:func:`walk_series` tallies its states.
:func:`~qsip.sip.verify_sip` walks its two trees on ``grow``: each walked
node lists all of its next parts, and ``grow`` steps only into those with
a next part of their own.  The enumerators are deliberately simple brute
force for desk-scale totals; they exist to cross-check the
generating-function machinery.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .series import QSeries, _marker_registry

Partition = tuple[int, ...]


def grow(root, successors: Callable) -> Iterator:
    """Yield ``root`` and then every state reachable from it, in pre-order.

    ``successors(state)`` gives the states one step on from ``state``.  Each
    state comes before its extensions, and extensions follow the order of
    the steps.  One stack holds the step iterators on the current path, so
    the depth of the walk is not bounded by the interpreter's recursion
    limit.  A rule may return an empty sequence at a leaf (a state with no
    step); such a state is never pushed.  A state is whatever the rule
    needs: an enumerator that yields tuples keeps the prefix in its state,
    and a counting walk keeps only what its rule and its tally read.
    """
    yield root
    stack = [iter(successors(root))]
    while stack:
        for state in stack[-1]:
            yield state
            steps = successors(state)
            if steps:
                stack.append(iter(steps))
                break
        else:
            stack.pop()


def grow_leaves(root, rule: Callable) -> Iterator:
    """Yield ``root`` and every state reachable from it, each exactly once,
    for a walk whose states are mostly leaves (states with no next state).

    ``rule(state)`` returns ``(steps, runs)``: the next states that have a
    next state of their own, and iterables, the leaf runs, that hold every
    other next state.  Only the root and the steps are walked, so the rule
    runs on nothing else, and each walked state is followed by its runs,
    chained in at C level.  A run may be empty, and any iterable: a lazy
    ``zip(range(...), repeat(...))`` builds each leaf only as it is
    consumed.  A state with a next state put in a run loses its subtree.
    States do not come in pre-order, and one list holds the steps not yet
    walked, so the depth is not bounded by the recursion limit.
    """
    def walked():
        stack = [root]
        while stack:
            state = stack.pop()
            steps, runs = rule(state)
            stack += steps
            yield (state,)
            yield from runs

    return chain.from_iterable(walked())


def enumerate_partitions(total_max: int,
                         predicate: Callable[[Partition], bool] | None = None
                         ) -> Iterator[Partition]:
    """Yield every partition of every total 0..total_max, each exactly once.

    Parts are ascending; the empty partition (of 0) is always first.  An
    optional predicate filters the stream without affecting uniqueness.
    """
    if total_max < 0:
        raise ValueError("total_max must be non-negative")

    def successors(state):
        # each state is (parts, remaining); C-level ranges build the steps
        parts, remaining = state
        low = parts[-1] if parts else 1
        if low > remaining:
            return ()
        return zip(map(parts.__add__, zip(range(low, remaining + 1))),
                   range(remaining - low, -1, -1))

    parts = (parts for parts, _ in grow(((), total_max), successors))
    return parts if predicate is None else filter(predicate, parts)


@dataclass(frozen=True)
class SipClassSpec:
    """Parameters of a separable partition class with modulus k.

    ``c[i]`` is the minimum value of a part congruent to i+1 (mod k) and
    ``d[i]`` the minimum gap below such a part; a class member must satisfy
    both for every part (gaps only from the second part on).  Optional
    residue-indexed marker weights refine the generating functions:
    ``weights[i]`` is the exponent vector over ``markers`` of the monomial
    that weighs a part congruent to i+1, so ``((1, 0), (0, 1), (1, 1))``
    over ("u", "v") weighs the residues 1, 2, 0 (mod 3) by u, v and uv.
    """

    k: int
    c: tuple[int, ...]
    d: tuple[int, ...]
    markers: tuple[str, ...] = ()
    weights: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(self.c))
        object.__setattr__(self, "d", tuple(self.d))
        object.__setattr__(self, "markers", _marker_registry(self.markers))
        if self.k < 1:
            raise ValueError("modulus k must be a positive integer")
        if len(self.c) != self.k or len(self.d) != self.k:
            raise ValueError("c and d must each have k entries")
        for i, cr in enumerate(self.c):
            if cr <= 0:
                raise ValueError(f"threshold c_{i + 1} = {cr} must be positive")
            if cr % self.k != (i + 1) % self.k:
                raise ValueError(
                    f"threshold c_{i + 1} = {cr} is not congruent to {i + 1} mod {self.k}"
                )
        if any(dr < 0 for dr in self.d):
            raise ValueError("gaps d must be non-negative")
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(self.weights))
            if len(self.weights) != self.k:
                raise ValueError("weights must have one entry per residue class")
            for w in self.weights:
                if not (type(w) is tuple and len(w) == len(self.markers)
                        and all(type(e) is int and e >= 0 for e in w)):
                    raise ValueError(f"weight {w!r} is no exponent vector over {self.markers}")

    def weight(self, value: int) -> tuple[int, ...]:
        """The exponent vector weighing a part of this value (zero if
        unweighted), read at its residue class's index (value - 1) mod k."""
        if self.weights is None:
            return (0,) * len(self.markers)
        return self.weights[(value - 1) % self.k]


def in_sip_class(parts: Partition, spec: SipClassSpec) -> bool:
    """True iff every part meets its residue threshold and gap condition."""
    k, c, d = spec.k, spec.c, spec.d
    prev = None
    for p in parts:
        i = (p - 1) % k
        if p < c[i] or prev is not None and p - prev < d[i]:
            return False
        prev = p
    return True


def _default_size(obj) -> int:
    total = getattr(obj, "total", None)
    if total is not None:
        return total
    if isinstance(obj, tuple):
        return sum(obj)
    raise TypeError(f"cannot infer a size for {obj!r}; pass size=")


def counting_series(stream: Iterable, trunc: int,
                    size: Callable | None = None,
                    weight: Callable | None = None,
                    markers: tuple[str, ...] = ()) -> QSeries:
    """Accumulate a stream of combinatorial objects into sum(count(n) q^n).

    ``size`` maps an object to its total (defaults to .total or tuple sum).
    ``weight`` optionally maps an object to the exponent vector over
    ``markers`` of the monomial it weighs, as :meth:`SipClassSpec.weight`
    does for a part, turning the count into a marker-refined generating
    function; each object then counts once in its monomial's int row, and
    the rows go through the checking :meth:`QSeries.from_rows`.  Without a
    weight each object counts once at the zero monomial, tallied at C level.
    """
    size = size or _default_size
    if weight is None:
        counts = Counter(map(size, stream))
        return QSeries._make({(0,) * len(markers): [counts[n] for n in range(trunc + 1)]},
                             trunc, tuple(markers))
    rows: dict[tuple, list[int]] = {}
    for (n, key), count in Counter((size(obj), weight(obj)) for obj in stream).items():
        if n <= trunc:
            rows.setdefault(key, [0] * (trunc + 1))[n] = count
    return QSeries.from_rows(rows, trunc, markers)


def walk_series(states: Iterable[tuple], total_max: int) -> QSeries:
    """The generating function of a counting walk over totals 0..total_max.

    Each state of the walk is one counted object, and its second entry is
    what is left of total_max, so it counts at q^(total_max - remaining);
    a ``Counter`` tallies those entries at C level, in whatever order the
    states come (:func:`grow_leaves`).  A weighted walk tallies its own
    states (:func:`~qsip.sip.count_class`,
    :func:`~qsip.ncopies.count_ncopies_over`).
    The row is allocated before the walk starts, so a total too large to
    hold fails before any state is visited.
    """
    coeffs = [0] * (total_max + 1)
    for remaining, count in Counter(map(itemgetter(1), states)).items():
        coeffs[total_max - remaining] = count
    return QSeries._make({(): coeffs}, total_max, ())


def count_gordon(k: int, i: int, total_max: int) -> QSeries:
    """Partitions under Gordon's frequency condition for 1 <= i <= k, k >= 2,
    counted to q^total_max: at most i - 1 parts equal 1, and for every j at
    most k - 1 parts equal j or j + 1.  Gordon's theorem makes this the
    product over n not congruent to 0 or +-i (mod 2k + 1) of 1/(1 - q^n).

    A walk with one state per partition, ((last part, its frequency),
    remaining total).  The root is a virtual part 0 of frequency k - i, so
    the pair rule at part 1 is the bound on it.  A next part p > last comes
    f >= 1 times, with f at most k - 1, less the last frequency when p is
    last + 1, and at most the remaining total over p.
    """
    if k < 2 or not 1 <= i <= k:
        raise ValueError(f"Gordon's condition needs k >= 2 and 1 <= i <= k, got ({k}, {i})")
    if total_max < 0:
        raise ValueError("total_max must be non-negative")

    def successors(state):
        (last, freq), remaining = state
        steps = []
        for p in range(last + 1, remaining + 1):
            most = min(k - 1 - freq if p == last + 1 else k - 1, remaining // p)
            steps.extend(((p, f), remaining - p * f) for f in range(1, most + 1))
        return steps

    return walk_series(grow(((0, k - i), total_max), successors), total_max)


def powerset(items: Iterable) -> Iterator[tuple]:
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))
