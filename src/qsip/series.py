"""Exact truncated power series in q with marker-refined integer coefficients.

A coefficient is a polynomial with arbitrary-precision integer coefficients
in a fixed tuple of named markers (such as ``u``, ``v``).  Most series carry
no markers at all; the registry is then the empty tuple and every
coefficient is a plain integer constant.

A :class:`QSeries` stores its coefficients transposed, one row per marker
monomial, so arithmetic is integer list arithmetic: a product convolves the
rows of every pair of monomials, and a marker-free series is a single row.
A row is a pair (start, row), ``row`` a plain int list from the first
nonzero coefficient, at q^start, to the last, so no row stores or scans a
zero prefix.  :class:`MarkerPoly` is a read-only view of one coefficient,
built only where a caller asks for one (:meth:`QSeries.coefficient`, the
cached :attr:`QSeries.coeffs` view, display).  Callers outside the package
use the constructor, which takes int coefficients, or
:meth:`QSeries.from_rows`, the one door for marked series; both check and
copy lists indexed from q^0.  The package's builders hand their fresh rows
to ``QSeries._make``, either as lists from q^0, whose leading zeros it
moves into the start, or as (start, row) pairs, and it checks only the
truncation order and trims the lists in place.  This module alone knows
the canonical row form and the row kernels ``_convolve_into``,
``_add_product``, ``_shifted``, ``_sum_rows`` (every other add of int rows,
with ``_sum_exact`` for exact polynomials and ``_rows_through``, the one
read-out of stored rows) and ``_nested_sum``, the inside-out sum under every
q-series sum in the package.

A :class:`QSeries` is either truncated or exact:

* truncated: ``trunc`` is an integer and the series is guaranteed exact for
  every q-exponent 0..trunc inclusive; nothing is known beyond;
* exact polynomial: ``trunc`` is None and every coefficient is known.

Either way each row starts at its first nonzero coefficient and ends at
its last.  Only the dense read-outs (``coeffs``, ``monomial_rows``, ``int_coefficients``, ``inverse``)
take time in ``trunc``; each allocates its output first.

Binary operations meet at the weaker guarantee: the result truncation is the
minimum of the operands' truncations, with None acting as infinity.  This
keeps the truncation contract hard: no operation ever reports a coefficient
it cannot vouch for.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress, count, repeat
from operator import add, itemgetter, mul, ne, neg, sub
from typing import Iterable, Mapping


class TruncationExceeded(Exception):
    """A coefficient beyond a series' guaranteed range was requested."""


class NonUnitConstantTerm(Exception):
    """Series inversion requires the constant term to be exactly 1."""


def _as_int(value) -> int:
    if type(value) is not int:
        raise TypeError(f"integer coefficient expected, got {value!r}")
    return value


class MarkerPoly:
    """One coefficient of a marked :class:`QSeries`, read off its rows: a
    polynomial in named markers with integer coefficients.

    The marker registry is fixed at construction; exponent vectors have one
    non-negative entry per registered marker.  Terms with coefficient zero
    are never stored, so the zero polynomial has an empty term map.  It is
    a read-only view with no arithmetic: marked series are computed on the
    int rows of :class:`QSeries`, and no method mutates ``terms``.
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

    def specialize(self, assignment: Mapping[str, int]) -> int:
        """Substitute integers for every marker, collapsing to an int."""
        missing = [m for m in self.markers if m not in assignment]
        if missing:
            raise ValueError(f"assignment missing markers {missing}")
        values = [_as_int(assignment[m]) for m in self.markers]
        total = 0
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, exps):
                term *= v**e
            total += term
        return total

    def __eq__(self, other) -> bool:
        """Equal terms in the same registry, or the constant ``other`` of an
        int (a bool is none); two registries never compare equal."""
        if isinstance(other, MarkerPoly):
            return self.markers == other.markers and self.terms == other.terms
        if type(other) is int:
            return self.terms == ({(0,) * len(self.markers): other} if other else {})
        return NotImplemented

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


def _exponents(exponents: Iterable[int]) -> list[int]:
    """Exponents of a sparse factor's terms, sorted; one below 1 raises ValueError."""
    out = sorted(exponents)
    if out and out[0] < 1:
        raise ValueError(f"exponent {out[0]} < 1 in a sparse series 1 + ...")
    return out


def sparse_multiply(coeffs: list[int], plus: Iterable[int], minus: Iterable[int]) -> None:
    """Multiply coeffs in place by 1 + sum of q^e over ``plus`` - sum of q^e
    over ``minus`` (every e >= 1), the form of every theta and eta series,
    cut at the end of coeffs: one C-level slice add or subtract per
    exponent, each reading the row as it was, O(len(coeffs) * terms)."""
    plus, minus = _exponents(plus), _exponents(minus)
    size = len(coeffs)
    src = coeffs[:]
    for exps, op in ((plus, add), (minus, sub)):
        for e in exps:
            if e >= size:
                break
            coeffs[e:] = map(op, coeffs[e:], src[:size - e])


def sparse_divide(coeffs: list[int], plus: Iterable[int], minus: Iterable[int]) -> None:
    """Divide coeffs in place by 1 + sum of q^e over ``plus`` - sum of q^e
    over ``minus`` (every e >= 1), exact through the end of coeffs:
    quotient[n] = coeffs[n] - sum over plus of quotient[n - e] + sum over
    minus of quotient[n - e], e <= n, O(len(coeffs) * terms)."""
    plus, minus = _exponents(plus), _exponents(minus)
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
        coeffs[n] = acc


def _min_trunc(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _fit(start: int, row: list[int], size: int) -> list[int]:
    """The row (start, row) as a fresh dense list of the coefficients of
    q^0 .. q^(size - 1), cut or zero-padded to ``size`` entries."""
    out = [0] * min(start, size) + row[:max(size - start, 0)]
    out += repeat(0, size - len(out))
    return out


def _canonical(rows: dict) -> dict:
    """Drop all-zero rows; every other row, a fresh list indexed from q^0 or
    a (start, row) pair, becomes (start, row) with ``row[0]`` its first
    nonzero and ``row[-1]`` its last, trimmed in place; a row already in
    that form is kept as it is."""
    out = {}
    for key, row in rows.items():
        start = 0
        if type(row) is tuple:
            start, row = row
        if not row:
            continue
        if not row[0]:
            first = next(compress(count(), row), None)
            if first is None:
                continue
            del row[:first]
            start += first
        if not row[-1]:
            del row[len(row) - next(compress(count(), reversed(row))):]
        out[key] = (start, row)
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


def _convolve_into(out: list[int], a: list[int], b: list[int], off: int = 0) -> None:
    """Add the schoolbook product of rows a and b into out from out[off],
    dropping every term past its end."""
    end = len(out)
    nonzero_b = [(j, y) for j, y in enumerate(b[:end - off]) if y]
    for i, x in enumerate(a[:end - off], off):
        if x:
            for j, y in nonzero_b:
                if i + j >= end:
                    break
                out[i + j] += x * y


def _product_row(*factors) -> list[int]:
    """The product of the int rows ``factors`` (lists or tuples, none empty),
    as a fresh list through its degree."""
    prod = list(factors[0])
    for row in factors[1:]:
        out = [0] * (len(prod) + len(row) - 1)
        _convolve_into(out, prod, row)
        prod = out
    return prod


def _add_product(acc: list[int], exp: int, *factors) -> None:
    """Add q^exp times the product of the int rows ``factors`` (lists or
    tuples) into acc, growing it as needed."""
    prod = _product_row(*factors)
    end = exp + len(prod)
    if len(acc) < end:
        acc.extend([0] * (end - len(acc)))
    acc[exp:end] = map(add, acc[exp:end], prod)


def _sum_rows(rows: list[tuple[int, list[int]]], g: int, last: int
              ) -> tuple[int, list[int]] | None:
    """The sum of stride-g rows (start, row) whose starts agree mod g, as one
    (start, row) from the least start, cut at q^last, or None when that
    start is past ``last``; ``row[i]`` is the coefficient of
    q^(start + g*i).  Each row is added at its aligned offset.  A single
    row is returned as it is, or cut: read it, never write.  Else the sum
    starts as a copy of a row at the least start."""
    first = rows[0] if len(rows) == 1 else min(rows, key=itemgetter(0))
    start, row = first
    if start > last:
        return None
    size = (last - start) // g + 1
    if len(rows) == 1:
        return first if len(row) <= size else (start, row[:size])
    size = min(max((s - start) // g + len(r) for s, r in rows), size)
    out = row[:size]
    out += repeat(0, size - len(out))
    for pair in rows:
        if pair is not first:
            s, r = pair
            off = (s - start) // g
            out[off:off + len(r)] = map(add, out[off:off + len(r)], r)
    return start, out


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
    """q^exp times an int row or tuple, as a marker-free exact polynomial
    that starts at q^exp.  An empty or absent row is the shared exact zero."""
    if not row:
        return _exact_zero(())
    return QSeries._make({(): (exp, list(row))}, None, ())


def _sum_exact(groups: dict) -> dict:
    """{key: the sum of its (start, row) pairs, uncut}, for the rows of an
    exact polynomial (:func:`_sum_rows`); a single pair is its own sum."""
    return {key: pairs[0] if len(pairs) == 1 else
            _sum_rows(pairs, 1, max(s + len(r) for s, r in pairs) - 1)
            for key, pairs in groups.items()}


def _rows_through(series: "QSeries", last: int) -> dict:
    """The stored rows of a series as {key: (start, row)} cut at q^last,
    leaving out the rows that start past it: the rows themselves where no
    cut is needed, to be read and never written (the input of
    :func:`_sum_rows`)."""
    out = {}
    for key, pair in series._rows.items():
        start, row = pair
        if start <= last:
            out[key] = pair if start + len(row) <= last + 1 else (start, row[:last + 1 - start])
    return out


def _as_series(value) -> "QSeries":
    """A series operand as is; an int as a constant polynomial."""
    if isinstance(value, QSeries):
        return value
    return QSeries._make({(): [_as_int(value)]}, None, ())


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
    """A formal power series in q with marker-polynomial coefficients.

    ``trunc`` is the largest q-exponent at which the series is guaranteed
    exact, or None for an exact polynomial.  Storage is one pair
    (start, row) per marker monomial, row a plain int list: the coefficient
    of u^i v^j q^n is ``row[n - start]`` for ``_rows[(i, j)] == (start,
    row)``, and zero outside the row; a marker-free series has at most the
    row ``()``.  The form is canonical: ``row[0]`` is the first nonzero
    coefficient and ``row[-1]`` the last, truncated or not, and all-zero
    rows are dropped, so equal series have equal rows; ``trunc`` only says
    how far they are exact.
    Instances are immutable and never hand out a row, so they may share
    them, and each marker registry has one shared exact zero
    (:meth:`zero`); arithmetic returns new values.  :attr:`coeffs` is a
    MarkerPoly view of the rows, built on first read.  Two series of one
    registry compare by ``trunc`` and rows alone.
    """

    __slots__ = ("markers", "trunc", "_rows", "_coeffs")

    def __init__(self, coeffs: Iterable[int] = (), trunc: int | None = None,
                 markers: Iterable[str] = ()):
        """The series sum(coeffs[n] q^n), every coefficient an int (TypeError
        otherwise) at the zero monomial of ``markers``; a series with
        marker terms is built by :meth:`from_rows`."""
        markers, coeffs = tuple(markers), list(map(_as_int, coeffs))
        self.markers, self.trunc = markers, trunc
        self._rows, self._coeffs = _canonical(_checked({(0,) * len(markers): coeffs}, trunc)), None

    @classmethod
    def from_rows(cls, rows: Mapping[tuple[int, ...], list[int]], trunc: int | None = None,
                  markers: Iterable[str] = ()) -> "QSeries":
        """A series from plain int lists, one per marker monomial: the
        coefficient of u^i v^j q^n is ``rows[(i, j)][n]``.  The lists are copied."""
        markers = tuple(markers)
        copied = {}
        for key, row in rows.items():
            key = tuple(key)
            if len(key) != len(markers) or not all(type(e) is int and e >= 0 for e in key):
                raise ValueError(f"row key {key} is no exponent vector over {markers}")
            if not set(map(type, row)) <= {int}:
                raise TypeError(f"integer coefficients expected in row {key}")
            copied[key] = list(row)
        return cls._make(_checked(copied, trunc), trunc, markers)

    @classmethod
    def _make(cls, rows: dict, trunc: int | None, markers: tuple[str, ...]) -> "QSeries":
        """A series over fresh int rows, one per monomial, for the package's
        builders.  A row is either a list indexed from q^0, whose leading
        zeros move into its start, or a pair (start, row), row[i] the
        coefficient of q^(start + i); either way it reaches at most q^trunc
        (any length for a polynomial).  The one check is of the truncation
        (ValueError below 0); then the lists are trimmed in place
        (:func:`_canonical`) and taken as they are, with no type scan or
        copy, so a row already canonical may be another series' own; an
        empty dict costs nothing."""
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
        constant = cls([coeff], trunc=trunc, markers=markers)
        return cls._make({key: (exponent, row) for key, (_, row) in constant._rows.items()},
                         trunc, constant.markers)

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> tuple[MarkerPoly, ...]:
        """Every stored coefficient as a MarkerPoly, from q^0 through q^trunc
        or through the degree of a polynomial; built on first read, then cached."""
        if self._coeffs is None:
            size = self.trunc + 1 if self.trunc is not None else \
                max((start + len(row) for start, row in self._rows.values()), default=0)
            coeffs = [None] * size   # first, so a size too large to hold fails at once
            for n in range(size):
                coeffs[n] = self._marker_poly(n)
            self._coeffs = tuple(coeffs)
        return self._coeffs

    def _marker_poly(self, n: int) -> MarkerPoly:
        return MarkerPoly(self.markers, {key: row[n - start]
                                         for key, (start, row) in self._rows.items()
                                         if start <= n < start + len(row) and row[n - start]})

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

    def monomial_rows(self, upto: int) -> dict[tuple[int, ...], list[int]]:
        """Coefficients of q^0..q^upto as fresh int lists, one per marker
        monomial with a nonzero coefficient there: the inverse of from_rows."""
        self._check_window(upto)
        return {key: _fit(start, row, upto + 1) for key, (start, row) in self._rows.items()
                if start <= upto}

    def int_coefficients(self, upto: int) -> list[int]:
        """Coefficients of q^0..q^upto as a fresh list of plain integers: the
        marker-free case of :meth:`monomial_rows`."""
        self._check_window(upto)
        zero = (0,) * len(self.markers)
        if any(start <= upto for key, (start, _) in self._rows.items() if key != zero):
            raise ValueError("series has marker terms; use monomial_rows()")
        return _fit(*self._rows.get(zero, (0, [])), max(upto + 1, 0))

    def is_zero_through(self, upto: int) -> bool:
        top = upto if self.trunc is None else min(upto, self.trunc)
        if any(start <= top for start, _ in self._rows.values()):
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
            pairs = [pair for pair in (a.get(key), b.get(key)) if pair]
            last = max(start + len(row) for start, row in pairs) - 1
            summed = _sum_rows(pairs, 1, _min_trunc(last, trunc))
            if summed is not None:
                rows[key] = summed
        return QSeries._make(rows, trunc, markers)

    __radd__ = __add__

    def __neg__(self) -> "QSeries":
        return QSeries._make({key: (start, list(map(neg, row)))
                              for key, (start, row) in self._rows.items()},
                             self.trunc, self.markers)

    def __sub__(self, other) -> "QSeries":
        return self + (-_as_series(other))

    def __rsub__(self, other) -> "QSeries":
        return (-self) + other

    def __mul__(self, other) -> "QSeries":
        other = _as_series(other)
        markers, a, b = _aligned(self, other)
        trunc = _min_trunc(self.trunc, other.trunc)
        # by key, the products that land on it: (start, a row, b row)
        terms: dict[tuple[int, ...], list] = {}
        for ka, (sa, ra) in a.items():
            for kb, (sb, rb) in b.items():
                products = terms.setdefault(tuple(map(add, ka, kb)), [])
                if trunc is None or sa + sb <= trunc:
                    products.append((sa + sb, ra, rb))
        rows = {}
        for key, products in terms.items():
            if not products:
                continue
            start = min(s for s, _, _ in products)
            last = _min_trunc(max(s + len(ra) + len(rb) for s, ra, rb in products) - 2, trunc)
            row = [0] * (last + 1 - start)
            for s, ra, rb in products:
                _convolve_into(row, ra, rb, s - start)
            rows[key] = (start, row)
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
        if {key: row[0] for key, (start, row) in self._rows.items() if not start} != {zero: 1}:
            raise NonUnitConstantTerm(
                f"constant term is {self.coefficient(0)}, expected 1"
            )
        # inv[n] = -(sum over i = 1..n of a[i] * inv[n - i]), per pair of monomials;
        # a row first reached at step n is zero below n, so a snapshot suffices.
        inv = {zero: [1] + [0] * eff}
        rows = {key: _fit(start, row, eff + 1) for key, (start, row) in self._rows.items()}
        for n in range(1, eff + 1):
            for ka, ra in rows.items():
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
        rows = {key: (start, row[:trunc + 1 - start])
                for key, (start, row) in self._rows.items() if start <= trunc}
        return QSeries._make(rows, trunc, self.markers)

    # -- marker operations ---------------------------------------------------

    def _check_assignment(self, assignment: Mapping[str, int], what: str) -> None:
        missing = [m for m in self.markers if m not in assignment]
        if missing:
            raise ValueError(f"{what} missing markers {missing}")

    def specialize(self, assignment: Mapping[str, int]) -> "QSeries":
        """Substitute integers for all markers; coefficients become constants."""
        self._check_assignment(assignment, "assignment")
        values = [_as_int(assignment[m]) for m in self.markers]
        if not self._rows:
            return QSeries._make({}, self.trunc, ())
        least = min(start for start, _ in self._rows.values())
        out = [0] * max(start + len(row) - least for start, row in self._rows.values())
        for key, (start, row) in self._rows.items():
            weight = math.prod(v**e for v, e in zip(values, key))
            for n, x in enumerate(row, start - least):
                out[n] += weight * x
        return QSeries._make({(): (least, out)}, self.trunc, ())

    def marker_coefficient(self, exponents: Mapping[str, int]) -> "QSeries":
        """Extract the marker-free series multiplying a marker monomial.

        ``exponents`` must assign an exponent to every registered marker.
        """
        self._check_assignment(exponents, "exponents")
        key = tuple(exponents[m] for m in self.markers)
        return QSeries._make({(): self._rows[key]} if key in self._rows else {}, self.trunc, ())

    # -- comparison ------------------------------------------------------------

    def first_mismatch(self, other: "QSeries") -> int | None:
        """Smallest exponent where the two series differ, or None.

        Comparison runs over the overlap of the guarantee windows.
        """
        other = _as_series(other)
        _, a, b = _aligned(self, other)
        limit = _min_trunc(self.trunc, other.trunc)
        first = None
        for key in a.keys() | b.keys():
            pa, pb = a.get(key), b.get(key)
            if pa == pb:
                continue
            if pa is None or pb is None or pa[0] != pb[0]:
                # a row is nonzero at its start, where the other is zero
                n = min(pair[0] for pair in (pa, pb) if pair)
            else:
                (n, ra), (_, rb) = pa, pb
                i = next(compress(count(), map(ne, ra, rb)), None)
                if i is None:   # one row runs on past the other's end
                    i = min(len(ra), len(rb))
                    longer = ra if len(ra) > len(rb) else rb
                    i = next(compress(count(i), longer[i:]))
                n += i
            if limit is None or n <= limit:
                first = n if first is None else min(first, n)
        return first

    def __eq__(self, other) -> bool:
        if isinstance(other, QSeries) and other.markers == self.markers:
            return self.trunc == other.trunc and self._rows == other._rows
        if type(other) is int:
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
        for n in sorted({n for start, row in self._rows.values()
                         for n, x in enumerate(row, start) if x}):
            c = self._marker_poly(n)
            if n == 0:
                pieces.append(str(c))
                continue
            qpart, s = "q" if n == 1 else f"q^{n}", str(c)
            if len(c.terms) > 1:
                pieces.append(f"({s})*{qpart}")
            elif s in ("1", "-1"):
                pieces.append(qpart if s == "1" else f"-{qpart}")
            else:
                pieces.append(f"{s}*{qpart}")
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
