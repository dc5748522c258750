"""One fresh interpreter's share of a benchmark pass.

Reads a JSON plan from stdin: ``{"checks": [[kind, arg, size], ...],
"trace": bool, "spans_path": str | null}``.  Runs the checks one after
another and prints one JSON object as the last line of stdout.  Every
verdict is read from qsip's own output; a check that raises counts as
failed and the next check still runs.  ``run.py`` starts this script with
``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import resource
import sys

import qsip.cli
import speed
from qsip import catalog, closed_forms, ncopies, qfactory, sip

# Known product side of each registered class generating function.
CLASS_PRODUCTS = {
    "natural": "euler-any",
    "distinct": "euler-distinct",
    "rogers-ramanujan": "rogers-ramanujan",
    "gollnitz": "gollnitz-gordon-1",
    "schur-refined": "schur-refined",
    "glasgow": "glasgow-mod8",
}
SCHUR_PRODUCT = qfactory.CongruenceProductSpec(6, frozenset({1, 5}), "allowed")  # Schur 1926


def _count_objects(series) -> int:
    """Sum of the coefficients with every marker set to 1."""
    ones = {m: 1 for m in series.markers}
    return sum(c.specialize(ones) for c in series.coeffs)


class Runner:
    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.oracle_series: list = []
        for entry_id, entry in list(catalog.REGISTRY.items()):
            if entry.oracle is not None:
                catalog.REGISTRY[entry_id] = dataclasses.replace(
                    entry, oracle=self._capture(entry.oracle))

    def _capture(self, oracle):
        def captured(total):
            series = oracle(total)
            self.oracle_series.append(series)
            return series
        return captured

    def _count(self, key: str, value: int) -> None:
        if self.tracer is not None:
            self.tracer.counts[key] += value

    def verify(self, identity: str, trunc: int) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = qsip.cli.main(["verify", "--identity", identity, "--trunc",
                                    str(trunc), "--output", "json"])
        text = out.getvalue()
        self._count("cli.report_bytes", len(text.encode()))
        report = json.loads(text)
        results = report.get("results", [])
        res = results[0] if len(results) == 1 else {}
        eff = res.get("trunc")
        ok = (status == 0 and report.get("schema") == qsip.cli.SCHEMA
              and res.get("id") == identity and res.get("pass") is True
              and res.get("first_mismatch") is None
              and isinstance(eff, int) and 0 <= eff <= trunc)
        return {"ok": ok, "eff": eff, "coeffs": eff + 1 if ok else 0}

    def oracle(self, identity: str, total: int) -> dict:
        res = catalog.oracle_concordance(identity, total)
        ok = res.passed is True and res.identity == identity
        return {"ok": ok, "eff": res.total_max, "coeffs": 2 * (res.total_max + 1),
                "series": self.oracle_series.pop()}

    def sip(self, spec: str, total: int) -> dict:
        rep = sip.verify_sip(sip.SPEC_REGISTRY[spec], total)
        ok = rep.ok and rep.class_count > 0
        return {"ok": ok, "coeffs": 0, "objects": rep.class_count}

    def class_gf(self, spec: str, trunc: int) -> dict:
        gf = sip.class_gf(sip.SPEC_REGISTRY[spec], trunc)
        if spec == "schur":
            product = qfactory.congruence_product(SCHUR_PRODUCT, trunc)
        else:
            product = catalog.get(CLASS_PRODUCTS[spec]).rhs(trunc)
        ok = gf.trunc == trunc and gf.first_mismatch(product) is None
        return {"ok": ok, "coeffs": trunc + 1, "series": gf}

    def closed_forms(self, sizes: dict, rows: int) -> dict:
        """Closed-form basis rows against the recurrence tables, n <= rows."""
        cf = closed_forms
        checked = bad = 0

        def check(closed, tabled) -> None:
            nonlocal checked, bad
            checked += 1
            bad += closed != tabled

        h_max, heights = sizes["gollnitz"]
        table = sip.basis_table(sip.GOLLNITZ_GORDON, rows, h_max)
        for n in range(1, rows + 1):
            for h in range(heights):
                if 2 * n + 2 * h - 1 <= h_max:
                    check(cf.gollnitz_closed(n, h), table.entry(n, 2 * n + 2 * h - 1))
        h_max, heights = sizes["schur"]
        table = sip.basis_table(sip.SCHUR_REFINED, rows, h_max)
        for n in range(1, rows + 1):
            for h in range(heights):
                for branch, largest in ((2, 3 * n + 3 * h - 1), (1, 3 * n + 3 * h - 2),
                                        (0, 3 * n + 3 * h)):
                    if largest <= h_max:
                        check(cf.schur_closed(n, h, branch), table.entry(n, largest))
        h_max = sizes["glasgow"]
        table = sip.basis_table(sip.GLASGOW, rows, h_max)
        for n in range(2, rows + 1):
            for largest in range(1, h_max + 1):
                check(cf.glasgow_closed(n, largest), table.entry(n, largest))
        m_max = sizes["chain_m"]
        for r in (-1, 0, 1, 2):
            table = ncopies.exact_diff_table(r, rows, m_max)
            for n in range(1, rows + 1):
                for m in range(1, m_max + 1):
                    for j in range(1, m + 1):
                        check(ncopies.exact_diff_closed(r, n, m, j), table.entry(n, m, j))
        self._count("closed_forms.entries_checked", checked)
        return {"ok": bad == 0 and checked > 0, "coeffs": 0, "entries": checked}

    def lemmas(self, sizes: dict, trunc: int) -> dict:
        """Summation lemmas, telescoping partial sums and the product pivot."""
        cf = closed_forms
        b, s = sizes["binomial"], sizes["series"]
        ok = all(cf.chu_vandermonde_check(r, s_, n)
                 for r in range(b) for s_ in range(1, b) for n in range(b))
        ok &= all(cf.chu_vandermonde_series_check(r, s_, trunc)
                  for r in range(s) for s_ in range(s))
        ok &= catalog.telescope_check(sizes["telescope_n"], sizes["telescope_t"]).passed
        pivot = catalog.gollnitz_intermediate(trunc)
        entry = catalog.get("gollnitz-gordon-1")
        ok &= pivot == entry.lhs(trunc) and pivot == entry.rhs(trunc)
        return {"ok": bool(ok), "coeffs": 0}

    def run(self, check: list) -> dict:
        kind, arg, size = check
        if kind not in ("verify", "oracle", "sip", "class_gf", "closed_forms", "lemmas"):
            raise ValueError(f"unknown check kind {kind!r}")
        return getattr(self, kind)(arg, size)


def main() -> int:
    plan = json.load(sys.stdin)
    ticker = speed.Ticker()
    tracer = None
    if plan.get("trace"):
        import spans
        tracer = spans.instrument(ticker.clock)
    runner = Runner(tracer)
    results = []
    with ticker:
        for check in plan["checks"]:
            t0 = ticker.clock()
            if tracer is not None:
                tracer.enter("bench.check")
            try:
                res = runner.run(check)
            except (Exception, SystemExit) as exc:  # a failed check must not end the pass
                res = {"ok": False, "coeffs": 0, "error": f"{type(exc).__name__}: {exc}"}
            finally:
                if tracer is not None:
                    tracer.exit()
            res["seconds"] = ticker.clock() - t0
            res["check"] = check
            results.append(res)

    for res in results:
        series = res.pop("series", None)
        if series is not None:
            res["objects"] = _count_objects(series) if res["ok"] else 0
    out = {"wall_s": ticker.scaled_s, "raw_wall_s": ticker.raw_s,
           "speed_samples": ticker.samples, "checks": results,
           "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        out["trace"] = tracer.summary()
        if plan.get("spans_path"):
            tracer.write(plan["spans_path"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
