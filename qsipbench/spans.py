"""Span tracing for the traced benchmark run, installed from outside qsip.

``instrument()`` wraps the public functions of each qsip module, and the
QSeries kernels, so every call records a span (name, start, end, parent
id) in memory.  Self time per span name is the span's duration minus the
time its child spans cover; it is accumulated as spans close, so nothing
has to be sorted afterwards.  Times come from the worker's rescaled clock
(``speed.Ticker.clock``).  ``Tracer.write`` stores the raw spans when the
worker ends.

Three bindings need care:

* ``catalog``, ``sip``, ``ncopies`` and ``closed_forms`` bind the qfactory
  constructors with ``from .qfactory import ...``, so a wrapper replaces
  the name in every qsip module that holds the original object;
* ``gaussian_binomial`` is an ``lru_cache`` function that recurses through
  its module global, so recursive calls (cache hits included) are spans too;
* ``MarkerPoly`` is built about two million times per catalog pass, so its
  constructor feeds a counter, not spans.

Generators (the partition and n-copies enumerators) get one span per
``next()``, so the consumer's time between items is not charged to them.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import json
import sys
from array import array
from collections import Counter, defaultdict


class Tracer:
    """In-memory span recorder with per-name self and inclusive time."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name_ids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[list] = []  # [span id, name, start, child time]
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = defaultdict(int)
        self.gaussian_cache = None  # the lru_cache function, for its hit counts

    def parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def enter(self, name: str) -> None:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        span_id = len(self.starts)
        self.name_ids.append(idx)
        self.parents.append(self._stack[-1][0] if self._stack else -1)
        start = self.clock()
        self.starts.append(start)
        self.ends.append(start)
        self._stack.append([span_id, name, start, 0.0])

    def exit(self) -> None:
        end = self.clock()
        span_id, name, start, child = self._stack.pop()
        self.ends[span_id] = end
        duration = end - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += duration

    def observe_max(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def summary(self) -> dict:
        if self.gaussian_cache is not None:
            info = self.gaussian_cache.cache_info()
            self.counts["qfactory.gaussian_binomial.hits"] = info.hits
            self.counts["qfactory.gaussian_binomial.misses"] = info.misses
        return {"self_s": dict(self.self_s), "total_s": dict(self.total_s),
                "calls": dict(self.calls), "counts": dict(self.counts),
                "maxima": dict(self.maxima)}

    def write(self, path) -> None:
        """Write every span, with times in ns relative to the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        doc = {
            "names": self.names,
            "columns": ["name", "parent", "start_ns", "end_ns"],
            "spans": [[n, p, round((s - t0) * 1e9), round((e - t0) * 1e9)]
                      for n, p, s, e in zip(self.name_ids, self.parents,
                                            self.starts, self.ends)],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """Span around every call of fn; ``after(result)`` runs outside it."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(result)
            return result
        return wrapper

    def iterate(self, name: str, gen):
        """Re-yield from gen with a span around each ``next()``.

        Items count as yielded only at the outermost span of this name, so
        an enumerator built on another one is not counted twice.
        """
        key = name + ".yielded"
        while True:
            nested = self.parent_name() == name
            self.enter(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.exit()
            if not nested:
                self.counts[key] += 1
            yield item

    def wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.iterate(name, fn(*args, **kwargs))
        return wrapper


def _rebind(original, replacement) -> None:
    """Point every qsip module name bound to ``original`` at ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "qsip" or mod_name.startswith("qsip.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _max_coeff_bits(series) -> int:
    return max((abs(v).bit_length() for c in series.coeffs for v in c.terms.values()),
               default=0)


def _at_most_two_terms(operand, qseries_type) -> bool:
    if not isinstance(operand, qseries_type):
        return True  # a scalar factor
    nonzero = 0
    for c in operand.coeffs:
        if c.terms:
            nonzero += 1
            if nonzero > 2:
                return False
    return True


FUNCTIONS = {
    "qfactory": ("poch_finite", "poch_infinite", "congruence_product",
                 "gaussian_binomial"),
    "partitions": ("counting_series",),
    "ncopies": ("ncopies_gf", "exact_diff_table"),
    "sip": ("verify_sip", "class_gf", "basis_table", "assemble_gf",
            "min_basis_total"),
    "closed_forms": ("gollnitz_closed", "schur_closed", "combined_row_formula",
                     "glasgow_closed", "glasgow_row_sums", "chu_vandermonde_check",
                     "chu_vandermonde_series_check"),
    "catalog": ("verify", "oracle_concordance", "telescope_check",
                "gollnitz_intermediate"),
    "cli": ("main",),
}
GENERATORS = {
    "ncopies.enumerate": ("ncopies", ("enumerate_ncopies", "enumerate_ncopies_over",
                                      "enumerate_even_subscript", "enumerate_base")),
    "sip.enumerate_class": ("sip", ("enumerate_class",)),
}


def instrument(clock) -> Tracer:
    """Install span wrappers on an imported qsip; return the tracer."""
    import importlib

    from qsip import catalog, qfactory, series

    tracer = Tracer(clock)
    mods = {name: importlib.import_module(f"qsip.{name}")
            for name in set(FUNCTIONS) | {"partitions"}}

    def record_bits(result) -> None:
        tracer.observe_max("series.coeff_bits", _max_coeff_bits(result))

    def record_table(table) -> None:
        stored = useful = 0
        for entry in table.entries.values():
            stored += len(entry.coeffs)
            useful += min(len(entry.coeffs), table.max_h + 1)
        tracer.counts["sip.basis_table.coeffs_stored"] += stored
        tracer.counts["sip.basis_table.coeffs_useful"] += useful

    def record_sip(report) -> None:
        tracer.counts["sip.verify_sip.recompositions"] += report.recomposed_count

    after = {"sip.class_gf": record_bits, "sip.basis_table": record_table,
             "sip.verify_sip": record_sip}
    tracer.gaussian_cache = qfactory.gaussian_binomial
    for mod_name, fns in FUNCTIONS.items():
        for fn_name in fns:
            name = f"{mod_name}.{fn_name}"
            original = getattr(mods[mod_name], fn_name)
            _rebind(original, tracer.wrap(name, original, after.get(name)))

    for name, (mod_name, fns) in GENERATORS.items():
        for fn_name in fns:
            original = getattr(mods[mod_name], fn_name)
            _rebind(original, tracer.wrap_generator(name, original))

    # Count the partitions the predicate sees, to get an accept ratio.
    enumerate_partitions = mods["partitions"].enumerate_partitions

    def enumerate_counted(total_max, predicate=None):
        def counted(parts):
            tracer.counts["partitions.enumerate.generated"] += 1
            return predicate is None or predicate(parts)
        return tracer.iterate("partitions.enumerate",
                              enumerate_partitions(total_max, counted))
    _rebind(enumerate_partitions,
            functools.wraps(enumerate_partitions)(enumerate_counted))

    for entry_id, entry in list(catalog.REGISTRY.items()):
        catalog.REGISTRY[entry_id] = dataclasses.replace(
            entry,
            lhs=tracer.wrap(f"catalog.lhs.{entry_id}", entry.lhs, record_bits),
            rhs=tracer.wrap("catalog.rhs", entry.rhs, record_bits),
            oracle=None if entry.oracle is None else
            tracer.wrap("catalog.oracle", entry.oracle, record_bits))

    _instrument_series(tracer, series)
    return tracer


def _instrument_series(tracer: Tracer, series) -> None:
    qs = series.QSeries
    mul, add = qs.__mul__, qs.__add__

    def traced_mul(self, other):
        tracer.enter("series.mul")
        try:
            if _at_most_two_terms(self, qs) or _at_most_two_terms(other, qs):
                tracer.counts["series.mul.sparse"] += 1
            if self.markers or getattr(other, "markers", ()):
                tracer.counts["series.mul.marker"] += 1
            return mul(self, other)
        finally:
            tracer.exit()

    def traced_add(self, other):
        tracer.enter("series.add")
        try:
            if self.trunc is None and getattr(other, "trunc", None) is None:
                tracer.counts["series.add.poly"] += 1
            return add(self, other)
        finally:
            tracer.exit()

    qs.__mul__ = qs.__rmul__ = traced_mul
    qs.__add__ = qs.__radd__ = traced_add
    qs.inverse = tracer.wrap("series.inverse", qs.inverse)
    qs.first_mismatch = tracer.wrap("series.compare", qs.first_mismatch)
    qs.__eq__ = tracer.wrap("series.compare", qs.__eq__)

    marker_init = series.MarkerPoly.__init__

    def counted_init(self, *args, **kwargs):
        tracer.counts["series.markerpoly.created"] += 1
        marker_init(self, *args, **kwargs)
    series.MarkerPoly.__init__ = counted_init


# -- per-layer metrics --------------------------------------------------------

def merge(summaries: list[dict]) -> dict:
    """Sum the summaries of several workers (maxima take the maximum)."""
    out = {"self_s": Counter(), "total_s": Counter(), "calls": Counter(),
           "counts": Counter(), "maxima": Counter()}
    for summary in summaries:
        for key in ("self_s", "total_s", "calls", "counts"):
            out[key].update(summary[key])
        for key, value in summary["maxima"].items():
            out["maxima"][key] = max(out["maxima"][key], value)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(merged: dict, identities, overhead_ratio: float) -> dict:
    """Per-layer metric values, by the names BENCHMARK.json lists.

    Values are totals over one traced pass.  A layer the workload never
    enters reports 0.
    """
    s, t, c, n = merged["self_s"], merged["total_s"], merged["calls"], merged["counts"]
    lhs = [f"catalog.lhs.{i}" for i in identities]
    m = {
        "series.mul.calls": c["series.mul"],
        "series.mul.self_s": s["series.mul"],
        "series.mul.sparse_share": _ratio(n["series.mul.sparse"], c["series.mul"]),
        "series.mul.marker_share": _ratio(n["series.mul.marker"], c["series.mul"]),
        "series.add.calls": c["series.add"],
        "series.add.self_s": s["series.add"],
        "series.add.poly_share": _ratio(n["series.add.poly"], c["series.add"]),
        "series.inverse.calls": c["series.inverse"],
        "series.inverse.self_s": s["series.inverse"],
        "series.compare.self_s": s["series.compare"],
        "series.markerpoly.created": n["series.markerpoly.created"],
        "series.coeff_bits.max": merged["maxima"]["series.coeff_bits"],
        "qfactory.poch_finite.calls": c["qfactory.poch_finite"],
        "qfactory.poch_finite.self_s": s["qfactory.poch_finite"],
        "qfactory.poch_infinite.self_s": s["qfactory.poch_infinite"],
        "qfactory.congruence_product.self_s": s["qfactory.congruence_product"],
        "qfactory.gaussian_binomial.calls": c["qfactory.gaussian_binomial"],
        "qfactory.gaussian_binomial.self_s": s["qfactory.gaussian_binomial"],
        "qfactory.gaussian_binomial.hit_ratio": _ratio(
            n["qfactory.gaussian_binomial.hits"],
            n["qfactory.gaussian_binomial.hits"] + n["qfactory.gaussian_binomial.misses"]),
        "partitions.enumerate.yielded": n["partitions.enumerate.yielded"],
        "partitions.enumerate.accept_ratio": _ratio(
            n["partitions.enumerate.yielded"], n["partitions.enumerate.generated"]),
        "partitions.enumerate.self_s": s["partitions.enumerate"],
        "partitions.counting_series.self_s": s["partitions.counting_series"],
        "ncopies.enumerate.yielded": n["ncopies.enumerate.yielded"],
        "ncopies.enumerate.self_s": s["ncopies.enumerate"],
        "ncopies.ncopies_gf.self_s": s["ncopies.ncopies_gf"],
        "ncopies.exact_diff_table.self_s": s["ncopies.exact_diff_table"],
        "sip.verify_sip.self_s": s["sip.verify_sip"],
        "sip.verify_sip.recompositions": n["sip.verify_sip.recompositions"],
        "sip.enumerate_class.yielded": n["sip.enumerate_class.yielded"],
        "sip.basis_table.self_s": s["sip.basis_table"],
        "sip.basis_table.useful_ratio": _ratio(n["sip.basis_table.coeffs_useful"],
                                               n["sip.basis_table.coeffs_stored"]),
        "sip.assemble_gf.self_s": s["sip.assemble_gf"],
        "sip.min_basis_total.calls": c["sip.min_basis_total"],
        "sip.min_basis_total.self_s": s["sip.min_basis_total"],
        "closed_forms.self_s": sum(v for k, v in s.items()
                                   if k.startswith("closed_forms.")),
        "closed_forms.entries_checked": n["closed_forms.entries_checked"],
        "catalog.lhs.self_s": sum(s[k] for k in lhs),
        "catalog.rhs.self_s": s["catalog.rhs"],
        "catalog.oracle.self_s": s["catalog.oracle"],
    }
    for identity, key in zip(identities, lhs):
        m[f"catalog.lhs.{identity}.s"] = t[key]
    m["cli.main.self_s"] = s["cli.main"]
    m["cli.report_bytes"] = n["cli.report_bytes"]
    m["trace.overhead_ratio"] = overhead_ratio
    return m
