"""Exact truncated power series in q over a marker-polynomial coefficient ring.

The coefficient ring is :class:`MarkerPoly`: polynomials with
arbitrary-precision integer coefficients in a fixed tuple of named markers
(such as ``u``, ``v``).  Most series carry no markers at all; the registry is
then the empty tuple and every coefficient is a plain integer constant.

A :class:`QSeries` stores its coefficients transposed, as one plain int list
per marker monomial, so arithmetic is integer list arithmetic: a product
convolves the rows of every pair of monomials, and a marker-free series is a
single int list that never builds a MarkerPoly.  MarkerPoly values appear
only where a caller asks for them (:meth:`QSeries.coefficient`, the cached
:attr:`QSeries.coeffs` view) or passes them to the constructor.  Callers
outside the package use the constructor or :meth:`QSeries.from_rows`, which
check and copy what they are given; the package's builders hand their fresh
int lists to ``QSeries._make``, which checks only the truncation order and
trims the lists in place.  This module alone knows the canonical row form
and the row kernels ``_convolve_into``, ``_add_product``, ``_shifted`` and
``_nested_sum``, the inside-out sum under every q-series sum in the package.

A :class:`QSeries` is either truncated or exact:

* truncated: ``trunc`` is an integer and the series is guaranteed exact for
  every q-exponent 0..trunc inclusive; nothing is known beyond;
* exact polynomial: ``trunc`` is None and every coefficient is known.

Either way each row ends at its last nonzero coefficient.  Only the dense
read-outs (``coeffs``, ``monomial_rows``, ``int_coefficients``, ``inverse``)
take time in ``trunc``; each allocates its output first.

Binary operations meet at the weaker guarantee: the result truncation is the
minimum of the operands' truncations, with None acting as infinity.  This
keeps the truncation contract hard: no operation ever reports a coefficient
it cannot vouch for.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from operator import add, mul, sub
from typing import Iterable, Mapping


class TruncationExceeded(Exception):
    """A coefficient beyond a series' guaranteed range was requested."""


class NonUnitConstantTerm(Exception):
    """Series inversion requires the constant term to be exactly 1."""


def _as_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"integer coefficient expected, got {value!r}")
    return value


class MarkerPoly:
    """Polynomial in named markers with integer coefficients.

    The marker registry is fixed at construction; exponent vectors have one
    non-negative entry per registered marker.  Arithmetic stays in one
    registry: the other operand is a MarkerPoly of the same registry or an
    int, which counts as a constant.  Terms with coefficient zero
    are never stored, so the zero polynomial has an empty term map.
    Instances are immutable by convention: no method mutates ``terms``.
    """

    __slots__ = ("markers", "terms")

    def __init__(self, markers: Iterable[str] = (), terms: Mapping | None = None):
        markers = tuple(markers)
        arity = len(markers)
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != arity:
                    raise ValueError(
                        f"exponent vector {exps} does not match marker registry {markers}"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative marker exponent in {exps}")
                coeff = _as_int(coeff)
                if coeff:
                    total = clean.get(exps, 0) + coeff
                    if total:
                        clean[exps] = total
                    else:
                        clean.pop(exps, None)
        self.markers = markers
        self.terms = clean

    @classmethod
    def const(cls, value: int, markers: Iterable[str] = ()) -> "MarkerPoly":
        markers = tuple(markers)
        return cls(markers, {(0,) * len(markers): value})

    @classmethod
    def unit(cls, markers: Iterable[str] = ()) -> "MarkerPoly":
        return cls.const(1, markers)

    @classmethod
    def gens(cls, markers: Iterable[str]) -> tuple["MarkerPoly", ...]:
        """One generator polynomial per marker, in registry order."""
        markers = tuple(markers)
        out = []
        for i in range(len(markers)):
            exps = tuple(1 if j == i else 0 for j in range(len(markers)))
            out.append(cls(markers, {exps: 1}))
        return tuple(out)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_one(self) -> bool:
        zero = (0,) * len(self.markers)
        return self.terms == {zero: 1}

    def constant_value(self) -> int:
        """The coefficient of the marker-free monomial."""
        return self.terms.get((0,) * len(self.markers), 0)

    # -- coercion --------------------------------------------------------

    def _coerce(self, other) -> "MarkerPoly":
        """An operand in this registry: an int becomes a constant."""
        if isinstance(other, MarkerPoly):
            if other.markers != self.markers:
                raise ValueError(
                    f"marker registries differ: {self.markers} vs {other.markers}"
                )
            return other
        return MarkerPoly.const(_as_int(other), self.markers)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "MarkerPoly":
        other = self._coerce(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            total = out.get(exps, 0) + coeff
            if total:
                out[exps] = total
            else:
                out.pop(exps, None)
        return MarkerPoly(self.markers, out)

    __radd__ = __add__

    def __neg__(self) -> "MarkerPoly":
        return MarkerPoly(self.markers, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "MarkerPoly":
        other = self._coerce(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                total = out.get(key, 0) + c1 * c2
                if total:
                    out[key] = total
                else:
                    out.pop(key, None)
        return MarkerPoly(self.markers, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MarkerPoly":
        if n < 0:
            raise ValueError("negative powers are not defined for MarkerPoly")
        out = MarkerPoly.unit(self.markers)
        for _ in range(n):
            out = out * self
        return out

    # -- specialization --------------------------------------------------

    def specialize(self, assignment: Mapping[str, int]) -> int:
        """Substitute integers for every marker, collapsing to an int."""
        missing = [m for m in self.markers if m not in assignment]
        if missing:
            raise ValueError(f"assignment missing markers {missing}")
        values = [assignment[m] for m in self.markers]
        total = 0
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, exps):
                term *= v**e
            total += term
        return total

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int) and not isinstance(other, bool):
            if not other:
                return self.is_zero()
            return self.terms == {(0,) * len(self.markers): other}
        if isinstance(other, MarkerPoly):
            if self.markers == other.markers:
                return self.terms == other.terms
            if not self.markers or not other.markers:
                # Constants compare across registries.
                if self.is_zero() and other.is_zero():
                    return True
                a, b = self.terms, other.terms
                if len(a) == len(b) == 1:
                    (ea, ca), (eb, cb) = next(iter(a.items())), next(iter(b.items()))
                    return ca == cb and not any(ea) and not any(eb)
            return False
        return NotImplemented

    __hash__ = None  # mutable mapping inside; not intended as a dict key

    def _term_str(self, exps: tuple[int, ...], coeff: int) -> str:
        parts = []
        for name, e in zip(self.markers, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        if not parts:
            return str(coeff)
        body = "*".join(parts)
        if coeff == 1:
            return body
        if coeff == -1:
            return f"-{body}"
        return f"{coeff}*{body}"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = [self._term_str(e, c) for e, c in sorted(self.terms.items())]
        out = pieces[0]
        for p in pieces[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"MarkerPoly({self})"


def binomial_factor(coeffs: list[int], c: int, e: int, power: int = 1) -> None:
    """Multiply (power 1) or divide (power -1) coeffs in place by 1 + c*q^e,
    for c = 1 or c = -1: every such factor in the package is (1 +- q^e).

    The kernel under every factor-loop product and every sum: one
    O(len(coeffs)) pass of adds or subtracts, where the dense ``*`` and
    :meth:`QSeries.inverse` cost quadratic time.  ``coeffs`` is a plain
    int list indexed by q-exponent, exact through its last index; an
    exact polynomial must already have room for its e new top
    coefficients.  Multiplication takes e >= 0; division needs e >= 1.
    Any other c raises ValueError.
    """
    if type(c) is not int or c not in (1, -1):
        raise ValueError(f"binomial_factor takes c = 1 or -1, got {c!r}")
    if power == 1 and e >= 0:
        indices = range(len(coeffs) - 1, e - 1, -1)
    elif power == -1 and e >= 1:
        indices, c = range(e, len(coeffs)), -c
    else:
        raise ValueError(f"cannot apply (1 + c*q^{e})^{power}")
    for i in indices:
        src = coeffs[i - e]
        if src:
            if c > 0:
                coeffs[i] += src
            else:
                coeffs[i] -= src


def sparse_multiply(coeffs: list[int], terms: Iterable[tuple[int, int]]) -> None:
    """Multiply coeffs in place by the sparse series sum of c*q^e over the
    (e, c) ``terms``, cut at the end of coeffs.

    One C-level slice add per term, each reading the row as it was before
    the call, so the pass is O(len(coeffs) * terms).  The terms may come in
    any order and repeat an exponent; a negative exponent raises ValueError.
    """
    size = len(coeffs)
    src = coeffs[:]
    coeffs[:] = [0] * size
    for e, c in terms:
        if e < 0:
            raise ValueError(f"negative exponent {e} in a sparse series")
        if e >= size or not c:
            continue
        head = src[:size - e]
        if c == 1:
            coeffs[e:] = map(add, coeffs[e:], head)
        elif c == -1:
            coeffs[e:] = map(sub, coeffs[e:], head)
        else:
            coeffs[e:] = map(add, coeffs[e:], map(mul, head, repeat(c)))


def sparse_divide(coeffs: list[int], terms: Iterable[tuple[int, int]]) -> None:
    """Divide coeffs in place by the sparse series 1 + sum of c*q^e over the
    (e, c) ``terms``, exact through the end of coeffs.

    The quotient's entry n is coeffs[n] - sum of c * quotient[n - e] over
    the terms with 1 <= e <= n, in O(len(coeffs) * terms).  The terms may
    come in any order and repeat an exponent; the ones at q^0 must sum to 1,
    and a negative exponent raises ValueError.
    """
    merged: dict[int, int] = {}
    for e, c in terms:
        if e < 0:
            raise ValueError(f"negative exponent {e} in a sparse series")
        merged[e] = merged.get(e, 0) + c
    constant = merged.pop(0, 0)
    if constant != 1:
        raise ValueError(f"a sparse divisor needs constant term 1, got {constant}")
    tail = sorted((e, c) for e, c in merged.items() if c and e < len(coeffs))
    # the +-1 terms, all that theta series have, step without a multiply
    plus = [e for e, c in tail if c == 1]
    minus = [e for e, c in tail if c == -1]
    scaled = [(e, c) for e, c in tail if c not in (1, -1)]
    for n in range(1, len(coeffs)):
        acc = coeffs[n]
        for e in plus:
            if e > n:
                break
            acc -= coeffs[n - e]
        for e in minus:
            if e > n:
                break
            acc += coeffs[n - e]
        for e, c in scaled:
            if e > n:
                break
            acc -= c * coeffs[n - e]
        coeffs[n] = acc


def _min_trunc(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _fit(row: list[int], size: int) -> list[int]:
    """A fresh copy of ``row`` cut or zero-padded to ``size`` entries."""
    return row[:size] + [0] * (size - len(row))


def _canonical(rows: dict) -> dict:
    """Drop all-zero rows; trim trailing zeros off the others in place."""
    out = {}
    for key, row in rows.items():
        if any(row):
            while not row[-1]:
                row.pop()
            out[key] = row
    return out


def _checked(rows: dict, trunc: int | None) -> dict:
    """``rows`` as they are; a negative ``trunc`` or a row of more than
    ``trunc + 1`` entries raises ValueError."""
    if trunc is not None:
        if trunc < 0:
            raise ValueError("truncation order must be non-negative")
        for row in rows.values():
            if len(row) > trunc + 1:
                raise ValueError(f"{len(row)} coefficients exceed truncation order {trunc}")
    return rows


def _convolve_into(out: list[int], a: list[int], b: list[int]) -> None:
    """Add the schoolbook product of rows a and b into out, dropping every
    term past its end."""
    size = len(out)
    nonzero_b = [(j, y) for j, y in enumerate(b[:size]) if y]
    for i, x in enumerate(a[:size]):
        if x:
            for j, y in nonzero_b:
                if i + j >= size:
                    break
                out[i + j] += x * y


def _add_product(acc: list[int], exp: int, *factors) -> None:
    """Add q^exp times the product of the int rows ``factors`` (lists or
    tuples) into acc, growing it as needed."""
    prod = factors[0]
    for row in factors[1:]:
        out = [0] * (len(prod) + len(row) - 1)
        _convolve_into(out, prod, row)
        prod = out
    end = exp + len(prod)
    if len(acc) < end:
        acc.extend([0] * (end - len(acc)))
    acc[exp:end] = map(add, acc[exp:end], prod)


def _nested_sum(terms: list, factors: list, last: int) -> tuple[int, list[int]]:
    """The sum over i of q^o_i R_i g_0 ... g_(i-1) through q^last, as (start,
    row), row[j] the coefficient of q^(start + j): (last + 1, []) if no term
    starts by q^last.  ``terms[i]`` is (o_i, R_i), an int row at q^o_i, or
    None; ``factors[i]`` is g_i, a sequence of :func:`binomial_factor`
    (c, e, power) triples, read for i < len(terms) - 1.  Summed inside out,
    A_i = q^o_i R_i + g_i A_(i+1), on one list from the least offset met so
    far, so a factor touches only what is already gathered; the rows R_i
    are only read, and a slice past the list's end adds nothing.
    """
    acc, start = [], last + 1
    for i in range(len(terms) - 1, -1, -1):
        if acc:
            for c, e, power in factors[i]:
                binomial_factor(acc, c, e, power)
        if terms[i] is None:
            continue
        o, row = terms[i]
        if o < start:
            acc[:0] = [0] * (start - o)
            start = o
        end = o - start + len(row)
        acc[o - start:end] = map(add, acc[o - start:end], row)
    return start, acc


def _shifted(exp: int, row) -> "QSeries":
    """q^exp times an int row or tuple, as a marker-free exact polynomial.
    An empty or absent row is the shared exact zero, with none of the exp
    zeros that ``_canonical`` would only drop."""
    if not row:
        return _exact_zero(())
    return QSeries._make({(): [0] * exp + list(row)}, None, ())


def _as_series(value) -> "QSeries":
    """A series operand as is; an int or MarkerPoly as a constant polynomial."""
    if isinstance(value, QSeries):
        return value
    if isinstance(value, MarkerPoly):
        return QSeries([value], markers=value.markers)
    value = _as_int(value)
    return QSeries._make({(): [value]}, None, ())


def _aligned(a: "QSeries", b: "QSeries") -> tuple[tuple[str, ...], dict, dict]:
    """The registry both operands live in and each one's rows keyed in it: a
    marker-free operand takes the other's registry, its one row re-keyed to
    the zero exponent vector; two different marked registries raise
    ValueError."""
    if a.markers == b.markers:
        return a.markers, a._rows, b._rows
    if a.markers and b.markers:
        raise ValueError(f"marker registries differ: {a.markers} vs {b.markers}")
    if a.markers:
        return a.markers, a._rows, {(0,) * len(a.markers): row for row in b._rows.values()}
    return b.markers, {(0,) * len(b.markers): row for row in a._rows.values()}, b._rows


class QSeries:
    """A formal power series in q with MarkerPoly coefficients.

    ``trunc`` is the largest q-exponent at which the series is guaranteed
    exact, or None for an exact polynomial.  Storage is one plain int list
    per marker monomial, indexed by q-exponent: the coefficient of
    u^i v^j q^n is ``_rows[(i, j)][n]``, and a marker-free series has at
    most the row ``()``.  The form is canonical: every row ends at its last
    nonzero entry, truncated or not, and all-zero rows are dropped, so equal
    series have equal rows; ``trunc`` only says how far they are exact.
    Instances are immutable and never hand out a row, so they may share
    them, and each marker registry has one shared exact zero
    (:meth:`zero`); arithmetic returns new values.  :attr:`coeffs` is a
    MarkerPoly view of the rows, built on first read.  Two series of one
    registry compare by ``trunc`` and rows alone.
    """

    __slots__ = ("markers", "trunc", "_rows", "_coeffs")

    def __init__(self, coeffs: Iterable = (), trunc: int | None = None,
                 markers: Iterable[str] = ()):
        markers = tuple(markers)
        coeffs = list(coeffs)
        zero = (0,) * len(markers)
        rows = {zero: coeffs}
        if not set(map(type, coeffs)) <= {int}:
            rows = {zero: [0] * len(coeffs)}
            for n, c in enumerate(coeffs):
                if type(c) is int and not c:
                    continue
                if isinstance(c, MarkerPoly):
                    if c.markers and c.markers != markers:
                        raise ValueError(
                            f"coefficient registry {c.markers} does not match "
                            f"series registry {markers}"
                        )
                    terms = c.terms.items() if c.markers else [(zero, c.constant_value())]
                else:
                    terms = [(zero, _as_int(c))]
                for key, value in terms:
                    if value:
                        if key not in rows:
                            rows[key] = [0] * len(coeffs)
                        rows[key][n] = value
        self.markers, self.trunc = markers, trunc
        self._rows, self._coeffs = _canonical(_checked(rows, trunc)), None

    @classmethod
    def from_rows(cls, rows: Mapping[tuple[int, ...], list[int]], trunc: int | None = None,
                  markers: Iterable[str] = ()) -> "QSeries":
        """A series from plain int lists, one per marker monomial: the
        coefficient of u^i v^j q^n is ``rows[(i, j)][n]``.  The lists are copied."""
        markers = tuple(markers)
        copied = {}
        for key, row in rows.items():
            key = tuple(key)
            if len(key) != len(markers) or min(key, default=0) < 0:
                raise ValueError(f"row key {key} is no exponent vector over {markers}")
            if not set(map(type, row)) <= {int}:
                raise TypeError(f"integer coefficients expected in row {key}")
            copied[key] = list(row)
        return cls._make(_checked(copied, trunc), trunc, markers)

    @classmethod
    def _make(cls, rows: dict, trunc: int | None, markers: tuple[str, ...]) -> "QSeries":
        """A series over fresh int lists, one per monomial, of at most
        ``trunc + 1`` entries each (any length for a polynomial), for the
        package's builders: the one check of their truncation (ValueError
        below 0), then the lists are trimmed in place (:func:`_canonical`)
        and taken as they are, with no type scan or copy; an empty dict
        costs nothing."""
        if trunc is not None and trunc < 0:
            raise ValueError("truncation order must be non-negative")
        out = object.__new__(cls)
        out.markers, out.trunc, out._coeffs = markers, trunc, None
        out._rows = _canonical(rows) if rows else rows
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, trunc: int | None = None, markers: Iterable[str] = ()) -> "QSeries":
        """The zero series.  The exact zero (``trunc`` None) is one shared
        instance per marker registry; a truncated zero is built afresh."""
        if trunc is None:
            return _exact_zero(tuple(markers))
        return cls._make({}, trunc, tuple(markers))

    @classmethod
    def one(cls, trunc: int | None = None, markers: Iterable[str] = ()) -> "QSeries":
        return cls([1], trunc=trunc, markers=markers)

    @classmethod
    def monomial(cls, exponent: int, coeff=1, trunc: int | None = None,
                 markers: Iterable[str] = ()) -> "QSeries":
        """The single-term series coeff * q^exponent."""
        if exponent < 0:
            raise ValueError("negative q-exponents are out of scope")
        if trunc is not None and exponent > trunc:
            return cls.zero(trunc=trunc, markers=markers)
        return cls([0] * exponent + [coeff], trunc=trunc, markers=markers)

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> tuple[MarkerPoly, ...]:
        """Every stored coefficient as a MarkerPoly, from q^0 through q^trunc
        or through the degree of a polynomial; built on first read, then cached."""
        if self._coeffs is None:
            size = self.trunc + 1 if self.trunc is not None else \
                max(map(len, self._rows.values()), default=0)
            coeffs = [None] * size   # first, so a size too large to hold fails at once
            for n in range(size):
                coeffs[n] = self._marker_poly(n)
            self._coeffs = tuple(coeffs)
        return self._coeffs

    def _marker_poly(self, n: int) -> MarkerPoly:
        return MarkerPoly(self.markers, {key: row[n] for key, row in self._rows.items()
                                         if n < len(row) and row[n]})

    def _check_window(self, n: int) -> None:
        if self.trunc is not None and n > self.trunc:
            raise TruncationExceeded(
                f"coefficient of q^{n} requested from a series truncated at {self.trunc}"
            )

    def coefficient(self, n: int) -> MarkerPoly:
        """Exact coefficient of q^n; raises beyond the guaranteed range."""
        if n < 0:
            raise ValueError("q-exponent must be non-negative")
        self._check_window(n)
        return self._marker_poly(n)

    def coefficients(self, upto: int) -> list[MarkerPoly]:
        return [self.coefficient(n) for n in range(upto + 1)]

    def monomial_rows(self, upto: int) -> dict[tuple[int, ...], list[int]]:
        """Coefficients of q^0..q^upto as fresh int lists, one per marker
        monomial with a nonzero coefficient there: the inverse of from_rows."""
        self._check_window(upto)
        size = max(upto + 1, 0)
        return {key: _fit(row, size) for key, row in self._rows.items()
                if any(row[:size])}

    def int_coefficients(self, upto: int) -> list[int]:
        """Coefficients of q^0..q^upto as a fresh list of plain integers: the
        marker-free case of :meth:`monomial_rows`."""
        self._check_window(upto)
        size = max(upto + 1, 0)
        zero = (0,) * len(self.markers)
        if any(any(row[:size]) for key, row in self._rows.items() if key != zero):
            raise ValueError("series has marker terms; use coefficients()")
        return _fit(self._rows.get(zero, []), size)

    def is_zero_through(self, upto: int) -> bool:
        size = max(upto + 1 if self.trunc is None else min(upto, self.trunc) + 1, 0)
        if any(any(row[:size]) for row in self._rows.values()):
            return False
        self._check_window(upto)
        return True

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "QSeries":
        other = _as_series(other)
        markers, a, b = _aligned(self, other)
        trunc = _min_trunc(self.trunc, other.trunc)
        rows = {}
        for key in a.keys() | b.keys():
            ra, rb = a.get(key, []), b.get(key, [])
            size = _min_trunc(max(len(ra), len(rb)) - 1, trunc) + 1
            rows[key] = list(map(add, _fit(ra, size), _fit(rb, size)))
        return QSeries._make(rows, trunc, markers)

    __radd__ = __add__

    def __neg__(self) -> "QSeries":
        return QSeries._make({key: [-x for x in row] for key, row in self._rows.items()},
                             self.trunc, self.markers)

    def __sub__(self, other) -> "QSeries":
        return self + (-_as_series(other))

    def __rsub__(self, other) -> "QSeries":
        return (-self) + other

    def __mul__(self, other) -> "QSeries":
        other = _as_series(other)
        markers, a, b = _aligned(self, other)
        trunc = _min_trunc(self.trunc, other.trunc)
        size = _min_trunc(max(map(len, a.values()), default=0)
                          + max(map(len, b.values()), default=0) - 2, trunc) + 1
        rows: dict[tuple[int, ...], list[int]] = {}
        for ka, ra in a.items():
            for kb, rb in b.items():
                key = tuple(map(add, ka, kb))
                row = rows.get(key)
                if row is None:
                    row = rows[key] = [0] * size
                _convolve_into(row, ra, rb)
        return QSeries._make(rows, trunc, markers)

    __rmul__ = __mul__

    def inverse(self, trunc: int | None = None) -> "QSeries":
        """Multiplicative inverse, exact to the effective truncation.

        A polynomial input needs an explicit ``trunc``, and a negative one
        raises ValueError.  Raises :class:`NonUnitConstantTerm` unless the
        constant term is 1.
        """
        if trunc is not None and trunc < 0:
            raise ValueError("truncation order must be non-negative")
        eff = self.trunc if self.trunc is not None else trunc
        if eff is None:
            raise ValueError("inverting an exact polynomial requires a truncation order")
        if self.trunc is not None and trunc is not None:
            eff = min(eff, trunc)
        zero = (0,) * len(self.markers)
        if {key: row[0] for key, row in self._rows.items() if row[0]} != {zero: 1}:
            raise NonUnitConstantTerm(
                f"constant term is {self.coefficient(0)}, expected 1"
            )
        # inv[n] = -(sum over i = 1..n of a[i] * inv[n - i]), per pair of monomials;
        # a row first reached at step n is zero below n, so a snapshot suffices.
        inv = {zero: [1] + [0] * eff}
        for n in range(1, eff + 1):
            for ka, ra in self._rows.items():
                for kb, rb in list(inv.items()):
                    acc = sum(map(mul, ra[1:n + 1], rb[n - 1::-1]))
                    if acc:
                        key = tuple(map(add, ka, kb))
                        row = inv.get(key)
                        if row is None:
                            row = inv[key] = [0] * (eff + 1)
                        row[n] -= acc
        return QSeries._make(inv, eff, self.markers)

    def truncate(self, trunc: int) -> "QSeries":
        """Restrict the guarantee window to 0..trunc."""
        if self.trunc is not None and trunc > self.trunc:
            raise TruncationExceeded(
                f"cannot extend truncation {self.trunc} to {trunc}"
            )
        if trunc < 0:
            raise ValueError("truncation order must be non-negative")
        rows = {key: row[:trunc + 1] for key, row in self._rows.items()}
        return QSeries._make(rows, trunc, self.markers)

    # -- marker operations ---------------------------------------------------

    def _check_assignment(self, assignment: Mapping[str, int], what: str) -> None:
        missing = [m for m in self.markers if m not in assignment]
        if missing:
            raise ValueError(f"{what} missing markers {missing}")

    def specialize(self, assignment: Mapping[str, int]) -> "QSeries":
        """Substitute integers for all markers; coefficients become constants."""
        self._check_assignment(assignment, "assignment")
        values = [assignment[m] for m in self.markers]
        out = [0] * max(map(len, self._rows.values()), default=0)
        for key, row in self._rows.items():
            weight = math.prod(v**e for v, e in zip(values, key))
            for n, x in enumerate(row):
                out[n] += weight * x
        return QSeries._make({(): out}, self.trunc, ())

    def marker_coefficient(self, exponents: Mapping[str, int]) -> "QSeries":
        """Extract the marker-free series multiplying a marker monomial.

        ``exponents`` must assign an exponent to every registered marker.
        """
        self._check_assignment(exponents, "exponents")
        key = tuple(exponents[m] for m in self.markers)
        return QSeries._make({(): self._rows[key]} if key in self._rows else {}, self.trunc, ())

    # -- comparison ------------------------------------------------------------

    def first_mismatch(self, other: "QSeries", upto: int | None = None) -> int | None:
        """Smallest exponent where the two series differ, or None.

        Comparison runs over the overlap of the guarantee windows, further
        limited by ``upto`` when given.
        """
        other = _as_series(other)
        _, a, b = _aligned(self, other)
        limit = _min_trunc(self.trunc, other.trunc)
        if upto is not None:
            limit = upto if limit is None else min(limit, upto)
        first = None
        for key in a.keys() | b.keys():
            ra, rb = a.get(key, []), b.get(key, [])
            # beyond both stored rows both sides are zero
            size = max(_min_trunc(max(len(ra), len(rb)) - 1, limit) + 1, 0)
            ra, rb = _fit(ra, size), _fit(rb, size)
            if ra != rb:
                n = next(n for n, (x, y) in enumerate(zip(ra, rb)) if x != y)
                first = n if first is None else min(first, n)
        return first

    def agrees_through(self, other: "QSeries", upto: int | None = None) -> bool:
        return self.first_mismatch(other, upto=upto) is None

    def __eq__(self, other) -> bool:
        if isinstance(other, QSeries) and other.markers == self.markers:
            return self.trunc == other.trunc and self._rows == other._rows
        if isinstance(other, (int, MarkerPoly)) and not isinstance(other, bool):
            other = _as_series(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        try:
            _, a, b = _aligned(self, other)
        except ValueError:
            return False
        return self.trunc == other.trunc and a == b

    __hash__ = None

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        pieces = []
        for n in sorted({n for row in self._rows.values() for n, x in enumerate(row) if x}):
            c = self._marker_poly(n)
            if n == 0:
                pieces.append(str(c))
                continue
            qpart = "q" if n == 1 else f"q^{n}"
            if c.is_one():
                pieces.append(qpart)
            elif len(c.terms) == 1:
                s = str(c)
                pieces.append(f"-{qpart}" if s == "-1" else f"{s}*{qpart}")
            else:
                pieces.append(f"({c})*{qpart}")
        body = " + ".join(pieces).replace("+ -", "- ") if pieces else "0"
        if self.trunc is None:
            return body
        return f"{body} + O(q^{self.trunc + 1})"

    def __repr__(self) -> str:
        return f"QSeries({self})"


@lru_cache(maxsize=256)
def _exact_zero(markers: tuple[str, ...]) -> QSeries:
    """The shared exact zero of a marker registry (:meth:`QSeries.zero`)."""
    return QSeries._make({}, None, markers)
