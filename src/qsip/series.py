"""Exact truncated power series in q over a marker-polynomial coefficient ring.

The coefficient ring is :class:`MarkerPoly`: polynomials with
arbitrary-precision integer coefficients in a fixed tuple of named markers
(such as ``u``, ``v``).  Most series carry no markers at all; the registry is
then the empty tuple and every coefficient is a plain integer constant.

A :class:`QSeries` is either truncated or exact:

* truncated: ``trunc`` is an integer and the series is guaranteed exact for
  every q-exponent 0..trunc inclusive; nothing is known beyond;
* exact polynomial: ``trunc`` is None and every coefficient beyond the stored
  ones is zero.

Binary operations meet at the weaker guarantee: the result truncation is the
minimum of the operands' truncations, with None acting as infinity.  This
keeps the truncation contract hard: no operation ever reports a coefficient
it cannot vouch for.
"""

from __future__ import annotations

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
    non-negative entry per registered marker.  Terms with coefficient zero
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
        if isinstance(other, MarkerPoly):
            if other.markers == self.markers:
                return other
            if not other.markers:
                return other.lift(self.markers)
            if not self.markers:
                raise _RegistryMismatch
            raise ValueError(
                f"marker registries differ: {self.markers} vs {other.markers}"
            )
        return MarkerPoly.const(_as_int(other), self.markers)

    def lift(self, markers: Iterable[str]) -> "MarkerPoly":
        """Re-embed a marker-free polynomial into a wider registry."""
        markers = tuple(markers)
        if self.markers == markers:
            return self
        if self.markers:
            raise ValueError("can only lift a marker-free polynomial")
        zero = (0,) * len(markers)
        return MarkerPoly(markers, {zero: c for _, c in self.terms.items()})

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "MarkerPoly":
        try:
            other = self._coerce(other)
        except _RegistryMismatch:
            return other + self
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
        return self + (-self._coerce(other) if not isinstance(other, MarkerPoly) else -other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "MarkerPoly":
        try:
            other = self._coerce(other)
        except _RegistryMismatch:
            return other * self
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

    def coefficient_of(self, exps: tuple[int, ...]) -> int:
        return self.terms.get(tuple(exps), 0)

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


class _RegistryMismatch(Exception):
    """Internal: retry the operation with operands swapped after lifting."""


def _coerce_pair(a: "QSeries", b) -> tuple["QSeries", "QSeries"]:
    if not isinstance(b, QSeries):
        coeff = b if isinstance(b, MarkerPoly) else MarkerPoly.const(_as_int(b))
        b = QSeries([coeff], markers=coeff.markers)
    if a.markers == b.markers:
        return a, b
    if not a.markers:
        return a.lift(b.markers), b
    if not b.markers:
        return a, b.lift(a.markers)
    raise ValueError(f"marker registries differ: {a.markers} vs {b.markers}")


def binomial_factor(coeffs: list, c, e: int, power: int = 1) -> None:
    """Multiply (power 1) or divide (power -1) coeffs in place by 1 + c*q^e.

    The sparse kernel under every product and sum: one O(len(coeffs)) pass,
    where the dense ``*`` and :meth:`QSeries.inverse` cost quadratic time.
    ``coeffs`` is a plain list indexed by q-exponent, exact through its last
    index; an exact polynomial must already have room for its e new top
    coefficients.  Entries and ``c`` may be ints or MarkerPoly values of one
    registry.  Multiplication takes e >= 0; division needs e >= 1.
    """
    if power == 1 and e >= 0:
        indices = range(len(coeffs) - 1, e - 1, -1)
    elif power == -1 and e >= 1:
        indices, c = range(e, len(coeffs)), -c
    else:
        raise ValueError(f"cannot apply (1 + c*q^{e})^{power}")
    for i in indices:
        src = coeffs[i - e]
        if src:
            coeffs[i] += c * src


def _min_trunc(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class QSeries:
    """A formal power series in q with MarkerPoly coefficients.

    ``trunc`` is the largest q-exponent at which the series is guaranteed
    exact, or None for an exact polynomial.  Coefficient storage is dense,
    indexed by q-exponent; for truncated series the stored length is exactly
    ``trunc + 1``, for polynomials trailing zero coefficients are trimmed.
    Instances are immutable; all operations return new values.
    """

    __slots__ = ("markers", "trunc", "coeffs")

    def __init__(self, coeffs: Iterable = (), trunc: int | None = None,
                 markers: Iterable[str] = ()):
        markers = tuple(markers)
        lifted = []
        for c in coeffs:
            if isinstance(c, MarkerPoly):
                if c.markers != markers:
                    if c.markers:
                        raise ValueError(
                            f"coefficient registry {c.markers} does not match "
                            f"series registry {markers}"
                        )
                    c = c.lift(markers)
            else:
                c = MarkerPoly.const(_as_int(c), markers)
            lifted.append(c)
        if trunc is None:
            while lifted and lifted[-1].is_zero():
                lifted.pop()
        else:
            if trunc < 0:
                raise ValueError("truncation order must be non-negative")
            if len(lifted) > trunc + 1:
                raise ValueError(
                    f"{len(lifted)} coefficients exceed truncation order {trunc}"
                )
            zero = MarkerPoly(markers)
            lifted.extend([zero] * (trunc + 1 - len(lifted)))
        self.markers = markers
        self.trunc = trunc
        self.coeffs = tuple(lifted)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, trunc: int | None = None, markers: Iterable[str] = ()) -> "QSeries":
        return cls([], trunc=trunc, markers=markers)

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
        coeffs = [0] * exponent + [coeff]
        return cls(coeffs, trunc=trunc, markers=markers)

    # -- basic queries -----------------------------------------------------

    @property
    def is_polynomial(self) -> bool:
        return self.trunc is None

    def coefficient(self, n: int) -> MarkerPoly:
        """Exact coefficient of q^n; raises beyond the guaranteed range."""
        if n < 0:
            raise ValueError("q-exponent must be non-negative")
        if self.trunc is not None and n > self.trunc:
            raise TruncationExceeded(
                f"coefficient of q^{n} requested from a series truncated at {self.trunc}"
            )
        if n < len(self.coeffs):
            return self.coeffs[n]
        return MarkerPoly(self.markers)

    def coefficients(self, upto: int) -> list[MarkerPoly]:
        return [self.coefficient(n) for n in range(upto + 1)]

    def int_coefficients(self, upto: int) -> list[int]:
        """Coefficients as plain integers (marker-free series only)."""
        out = []
        for n in range(upto + 1):
            c = self.coefficient(n)
            if len(c.terms) > 1 or (c.terms and any(next(iter(c.terms)))):
                raise ValueError("series has marker terms; use coefficients()")
            out.append(c.constant_value())
        return out

    def is_zero_through(self, upto: int) -> bool:
        return all(self.coefficient(n).is_zero() for n in range(upto + 1))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "QSeries":
        a, b = _coerce_pair(self, other)
        trunc = _min_trunc(a.trunc, b.trunc)
        length = (trunc + 1) if trunc is not None else max(len(a.coeffs), len(b.coeffs))
        zero = MarkerPoly(a.markers)
        out = []
        for n in range(length):
            ca = a.coeffs[n] if n < len(a.coeffs) else zero
            cb = b.coeffs[n] if n < len(b.coeffs) else zero
            out.append(ca + cb)
        return QSeries(out, trunc=trunc, markers=a.markers)

    __radd__ = __add__

    def __neg__(self) -> "QSeries":
        return QSeries([-c for c in self.coeffs], trunc=self.trunc, markers=self.markers)

    def __sub__(self, other) -> "QSeries":
        a, b = _coerce_pair(self, other)
        return a + (-b)

    def __rsub__(self, other) -> "QSeries":
        return (-self) + other

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, MarkerPoly)) and not isinstance(other, bool):
            scalar = other if isinstance(other, MarkerPoly) else MarkerPoly.const(other)
            if not scalar.markers or scalar.markers == self.markers:
                if scalar.markers != self.markers:
                    scalar = scalar.lift(self.markers)
                return QSeries([c * scalar for c in self.coeffs],
                               trunc=self.trunc, markers=self.markers)
        a, b = _coerce_pair(self, other)
        trunc = _min_trunc(a.trunc, b.trunc)
        if trunc is not None:
            length = trunc + 1
        else:
            length = max(len(a.coeffs) + len(b.coeffs) - 1, 0)
        zero = MarkerPoly(a.markers)
        out = [zero] * length
        for i, ca in enumerate(a.coeffs):
            if ca.is_zero() or i >= length:
                continue
            top = min(len(b.coeffs), length - i)
            for j in range(top):
                cb = b.coeffs[j]
                if not cb.is_zero():
                    out[i + j] = out[i + j] + ca * cb
        return QSeries(out, trunc=trunc, markers=a.markers)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QSeries":
        if n < 0:
            raise ValueError("use inverse() for negative powers")
        out = QSeries.one(markers=self.markers)
        for _ in range(n):
            out = out * self
        return out

    def inverse(self, trunc: int | None = None) -> "QSeries":
        """Multiplicative inverse, exact to the effective truncation.

        A polynomial input needs an explicit ``trunc``.  Raises
        :class:`NonUnitConstantTerm` unless the constant term is 1.
        """
        eff = self.trunc if self.trunc is not None else trunc
        if eff is None:
            raise ValueError("inverting an exact polynomial requires a truncation order")
        if self.trunc is not None and trunc is not None:
            eff = min(eff, trunc)
        if not self.coefficient(0).is_one():
            raise NonUnitConstantTerm(
                f"constant term is {self.coefficient(0)}, expected 1"
            )
        zero = MarkerPoly(self.markers)
        inv = [MarkerPoly.unit(self.markers)] + [zero] * eff
        for n in range(1, eff + 1):
            acc = zero
            top = min(n, len(self.coeffs) - 1)
            for i in range(1, top + 1):
                ai = self.coeffs[i]
                if not ai.is_zero():
                    acc = acc + ai * inv[n - i]
            inv[n] = -acc
        return QSeries(inv, trunc=eff, markers=self.markers)

    def truncate(self, trunc: int) -> "QSeries":
        """Restrict the guarantee window to 0..trunc."""
        if self.trunc is not None and trunc > self.trunc:
            raise TruncationExceeded(
                f"cannot extend truncation {self.trunc} to {trunc}"
            )
        return QSeries(list(self.coeffs[: trunc + 1]), trunc=trunc, markers=self.markers)

    def lift(self, markers: Iterable[str]) -> "QSeries":
        """Re-embed a marker-free series into a wider marker registry."""
        markers = tuple(markers)
        if self.markers == markers:
            return self
        return QSeries([c.lift(markers) for c in self.coeffs],
                       trunc=self.trunc, markers=markers)

    # -- marker operations ---------------------------------------------------

    def specialize(self, assignment: Mapping[str, int]) -> "QSeries":
        """Substitute integers for all markers; coefficients become constants."""
        out = [c.specialize(assignment) for c in self.coeffs]
        return QSeries(out, trunc=self.trunc, markers=())

    def marker_coefficient(self, exponents: Mapping[str, int]) -> "QSeries":
        """Extract the marker-free series multiplying a marker monomial.

        ``exponents`` must assign an exponent to every registered marker.
        """
        missing = [m for m in self.markers if m not in exponents]
        if missing:
            raise ValueError(f"exponents missing markers {missing}")
        key = tuple(exponents[m] for m in self.markers)
        out = [c.coefficient_of(key) for c in self.coeffs]
        return QSeries(out, trunc=self.trunc, markers=())

    # -- comparison ------------------------------------------------------------

    def first_mismatch(self, other: "QSeries", upto: int | None = None) -> int | None:
        """Smallest exponent where the two series differ, or None.

        Comparison runs over the overlap of the guarantee windows, further
        limited by ``upto`` when given.
        """
        a, b = _coerce_pair(self, other)
        limit = _min_trunc(a.trunc, b.trunc)
        if upto is not None:
            limit = upto if limit is None else min(limit, upto)
        if limit is None:
            limit = max(len(a.coeffs), len(b.coeffs)) - 1
        for n in range(limit + 1):
            if a.coefficient(n) != b.coefficient(n):
                return n
        return None

    def agrees_through(self, other: "QSeries", upto: int | None = None) -> bool:
        return self.first_mismatch(other, upto=upto) is None

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, MarkerPoly)) and not isinstance(other, bool):
            other = QSeries([other if isinstance(other, MarkerPoly) else
                             MarkerPoly.const(other)],
                            markers=getattr(other, "markers", ()))
        if not isinstance(other, QSeries):
            return NotImplemented
        try:
            a, b = _coerce_pair(self, other)
        except ValueError:
            return False
        return a.trunc == b.trunc and a.coeffs == b.coeffs

    __hash__ = None

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        pieces = []
        for n, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
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
