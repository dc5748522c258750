"""Acceptance suite: one check per release criterion, exact tolerances.

Every comparison here is exact integer equality; there are no numeric
tolerances to tune.  Run with ``pytest tests/test_acceptance.py -v -s`` to
see one PASS/FAIL line per criterion.
"""

import time

import reference
from qsip import catalog
from qsip.closed_forms import (chu_vandermonde_check,
                               chu_vandermonde_series_check, glasgow_closed,
                               gollnitz_closed, schur_closed)
from qsip.ncopies import (copy_total, enumerate_base,
                          enumerate_even_subscript, enumerate_ncopies,
                          enumerate_ncopies_over, exact_diff_closed,
                          exact_diff_table)
from qsip.partitions import enumerate_partitions, in_sip_class
from qsip.qfactory import PochSpec, poch_product
from qsip.sip import (GLASGOW, GOLLNITZ_GORDON, DISTINCT, NATURAL,
                      ROGERS_RAMANUJAN, SCHUR, SCHUR_REFINED, basis_table,
                      verify_sip)

SIX_SPECS = (NATURAL, DISTINCT, ROGERS_RAMANUJAN, GOLLNITZ_GORDON, SCHUR,
             GLASGOW)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_identity_suite():
    """All 12 identities verify coefficientwise at trunc 40."""
    start = time.perf_counter()
    results = catalog.verify_all(40)
    elapsed = time.perf_counter() - start
    failed = [r.summary() for r in results if not r.passed]
    ok = not failed and len(results) == 12 and elapsed < 60.0
    report("criterion 1 (identity suite)", ok,
           f"{len(results)} identities, {elapsed:.1f}s" +
           ("; " + "; ".join(failed) if failed else ""))


def test_north_star_identity_suite_at_trunc_1000():
    """All 12 identities verify coefficientwise at trunc 1000 within 60 s."""
    times, failed = {}, []
    for identity in catalog.identity_ids():
        start = time.perf_counter()
        result = catalog.verify(identity, 1000)
        times[identity] = time.perf_counter() - start
        if not result.passed:
            failed.append(result.summary())
    slowest = max(times, key=times.get)
    elapsed = sum(times.values())
    ok = not failed and len(times) == 12 and elapsed < 60.0
    report("north star (identity suite at trunc 1000)", ok,
           f"{len(times)} identities, {elapsed:.1f}s, slowest {slowest} "
           f"{times[slowest]:.1f}s" + ("; " + "; ".join(failed) if failed else ""))


def test_criterion_2_quoted_counts():
    """Named counts reproduce exactly."""
    checks = {}

    glasgow_entry = catalog.get("glasgow-mod8")
    checks["A(10)=8"] = glasgow_entry.rhs(10).coefficient(10) == 8
    b10 = sum(1 for p in enumerate_partitions(10)
              if sum(p) == 10 and in_sip_class(p, GLASGOW))
    checks["B(10)=8"] = b10 == 8

    g10 = catalog.get("slater-86").rhs(10).coefficient(10)
    checks["G(10)=7"] = g10 == 7
    h10 = sum(1 for p in enumerate_even_subscript(10) if copy_total(p) == 10)
    checks["H(10)=7"] = h10 == 7

    j4 = sum(1 for parts, _ in reference.overpartitions(4)
             if sum(parts) == 4 and all(x % 3 for x in parts))
    checks["J(4)=10"] = j4 == 10
    l4 = sum(1 for o in enumerate_ncopies_over(4) if o.total == 4)
    checks["L(4)=10"] = l4 == 10

    def unique_top_rest_doubled(parts):
        if not parts:
            return True
        from collections import Counter
        counts = Counter(parts)
        return counts[parts[-1]] == 1 and all(
            c == 2 for p, c in counts.items() if p != parts[-1])

    m1 = sum(1 for p in enumerate_partitions(9, unique_top_rest_doubled)
             if sum(p) == 9)
    m2 = sum(1 for c in enumerate_base(9, 0) if copy_total(c) == 9)
    checks["M1(9)=4"] = m1 == 4
    checks["M2(9)=4"] = m2 == 4

    six = sum(1 for p in enumerate_ncopies(3) if copy_total(p) == 3)
    checks["six n-copies partitions of 3"] = six == 6

    species = [(spec, power) for j in range(1, 5)
               for spec, power in ((PochSpec(j, 1, sign=-1), 1), (PochSpec(j, 1), -1))]
    seq = poch_product(species, 4).int_coefficients(4)
    checks["1,2,6,16,38"] = seq == [1, 2, 6, 16, 38]

    bad = [name for name, ok in checks.items() if not ok]
    report("criterion 2 (quoted counts)", not bad,
           "all reproduced" if not bad else "failed: " + ", ".join(bad))


def test_criterion_3_sip_round_trip():
    """decompose/recompose is a verified bijection to total 25, six classes."""
    bad = []
    for spec in SIX_SPECS:
        rep = verify_sip(spec, 25)
        if not rep.ok or rep.collisions or rep.omissions:
            bad.append(rep.summary())
    report("criterion 3 (round-trip bijection)", not bad,
           "6 classes, totals <= 25" if not bad else "; ".join(bad))


def test_criterion_4_closed_form_concordance():
    """Closed forms equal the recurrence tables for all rows n <= 8."""
    bad = []

    tbl_g = basis_table(GOLLNITZ_GORDON, 8, 60)
    for n in range(1, 9):
        for h in range(0, 23):
            largest = 2 * n + 2 * h - 1
            if largest <= 60 and gollnitz_closed(n, h) != tbl_g.entry(n, largest):
                bad.append(f"gap-2 class at ({n},{h})")

    tbl_s = basis_table(SCHUR_REFINED, 8, 80)
    for n in range(1, 9):
        for h in range(0, 12):
            for branch, largest in ((2, 3 * n + 3 * h - 1),
                                    (1, 3 * n + 3 * h - 2),
                                    (0, 3 * n + 3 * h)):
                if 1 <= largest <= 80 and \
                        schur_closed(n, h, branch) != tbl_s.entry(n, largest):
                    bad.append(f"threefold class at ({n},{h},{branch})")

    tbl_e = basis_table(GLASGOW, 8, 60)
    row1 = tbl_e.row(1)
    if sorted(row1) != [2, 3] or str(row1[2]) != "q^2" or str(row1[3]) != "q^3":
        bad.append("mod-8 class seed row")
    for n in range(2, 9):
        for largest in range(1, 61):
            if glasgow_closed(n, largest) != tbl_e.entry(n, largest):
                bad.append(f"mod-8 class at ({n},{largest})")

    for r in (-1, 0, 1, 2):
        tbl = exact_diff_table(r, 8, 16)
        for n in range(1, 9):
            for m in range(1, 17):
                for j in range(1, m + 1):
                    if exact_diff_closed(r, n, m, j) != tbl.entry(n, m, j):
                        bad.append(f"chain table r={r} at ({n},{m},{j})")

    report("criterion 4 (closed forms)", not bad,
           "all families, n <= 8" if not bad else "; ".join(bad[:5]))


def test_criterion_5_lemma_checks():
    """Summation lemmas, telescoping, and the product-proof pivot."""
    bad = []
    for r in range(7):
        for s in range(1, 7):
            for n in range(7):
                if not chu_vandermonde_check(r, s, n):
                    bad.append(f"binomial sum at ({r},{s},{n})")
    for r in range(6):
        for s in range(6):
            if not chu_vandermonde_series_check(r, s, 40):
                bad.append(f"series sum at ({r},{s})")
    tel = catalog.telescope_check(8, 30)
    if not tel.passed:
        bad.extend(tel.failures)
    pivot = catalog.gollnitz_intermediate(40)
    entry = catalog.get("gollnitz-gordon-1")
    if pivot != entry.lhs(40) or pivot != entry.rhs(40):
        bad.append("product-proof pivot at trunc 40")
    report("criterion 5 (lemma checks)", not bad,
           "binomial sums, telescoping, pivot" if not bad else "; ".join(bad[:5]))


def test_criterion_6_three_way_agreement():
    """Enumeration = LHS = RHS for every identity (each carries an oracle),
    totals 20."""
    bad = []
    for identity in catalog.REGISTRY:
        res = catalog.oracle_concordance(identity, 20)
        if not res.passed:
            bad.append(res.summary())
    report("criterion 6 (three-way agreement)", not bad,
           f"{len(catalog.REGISTRY)} oracle-backed identities, totals <= 20" if not bad
           else "; ".join(bad))
