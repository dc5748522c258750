"""Recorded digests of the package's outputs, one sha256 per identity id,
three per SIP class and one per product builder or check below.

An identity's digest covers its series and product sides at every
truncation 0..120 and its oracle at every total 0..20; a class's digests
cover ``class_gf`` at every truncation 0..60, ``verify_sip`` at every
total 0..24, and its basis: every entry of ``basis_table(spec, 6, 30)``,
``enumerate_basis(spec, n, 30)`` for 1 <= n <= 5, ``min_basis_total(spec,
n)`` for 0 <= n <= 12 and the ``decompose`` split of every member of
total <= 20.  The product digests cover ``binomial_row(a, b, base=base)``
for 0 <= a <= 40, -1 <= b <= a + 1 and base 1..4; ``poch_finite`` for
every unmarked and marked spec of sign +-1, offset 0..3 and step 1..3 with
n <= 8 factors, exact and at trunc 30; ``gollnitz_intermediate`` at every
truncation 0..120; ``telescope_check(n, t)`` for 1 <= n <= 10 and t <= 60;
and ``glasgow_row_sums``, ``base_gf`` and ``chu_vandermonde_series_check``
on small grids.  Only public read-outs are hashed: ``trunc``, ``markers``,
``monomial_rows`` and, through trunc 40 or for an exact polynomial,
``str``; of a ``verify_sip`` report, ``ok``, ``class_count``,
``recomposed_count``, the length of each of its four lists and
``summary()``; of a ``telescope_check`` result, ``passed`` and
``failures``.  So any change to the internal row layout, to how the
bijection is walked or to how a product's factors are applied keeps the
digests, and any change to an output breaks one.

Run this file as a script to print the digests of the current code.
"""

import hashlib

from qsip import catalog, sip
from qsip import closed_forms as cf
from qsip.ncopies import base_gf
from qsip.qfactory import PochSpec, binomial_row, poch_finite

SIDE_TRUNCS = range(121)
ORACLE_TOTALS = range(21)
CLASS_TRUNCS = range(61)
STR_TRUNC_MAX = 40
VERIFY_TOTALS = range(25)
BASIS_TABLE_SIZE = (6, 30)
BASIS_PARTS = range(1, 6)
BASIS_H_MAX = 30
MIN_BASIS_PARTS = range(13)
DECOMPOSE_TOTAL = 20
BINOMIAL_TOPS = range(41)
BINOMIAL_BASES = range(1, 5)
POCH_COUNTS = range(9)
GOLLNITZ_TRUNCS = range(121)
TELESCOPE_TERMS = range(1, 11)
TELESCOPE_TRUNCS = range(61)

RECORDED = {
    "euler-any": "7ebf40393b7460566d57ea55ea85dcf5cad602e6f7327287d8dcd97516352bbb",
    "euler-distinct": "692b8ebe3ef2af5a9f4ef0539dd9b1db658d28defcc3971cec3feae7ea481981",
    "rogers-ramanujan": "cb8cce9195ba8600c75f33b88c5485fcc70f562f2155aa26d4719fefe0237041",
    "gollnitz-gordon-1": "a49ee98cde04341c36eae0bfa055770281a3b4d73308a1dee968ec3529c83531",
    "schur-refined": "9264904862806d5ebe6f7d88b805adb83141878834721f6f76939256530550b6",
    "glasgow-mod8": "1359a6eef06680f0e89f85372eb8ecc774026feddf27e7860d5b835636156f4f",
    "slater-46": "bfaa99856798ed7d024e9facde26b280c4f2bf897118a1198b6c7e55be450536",
    "slater-61": "565958ce9db81dde32a82acf0373fdd2c3b0218311d24442f84eefc40ea532fd",
    "slater-81": "d927db4f67244157d19f412a290954a920d23eeb2fbf7c0f29f9c9842c22acd7",
    "slater-6-corrected": "7c364ce208861e6c0cad19e1c75dbcc9217cc2a64be5498727d1ea46bacec986",
    "slater-86": "75e8e3a9181d473bc0ee64e10e4e57fc4999f2a1c96039571d2f5ccdc048aff1",
    "mod7-sum": "35bb232ba45a1d3f8399e605be3345f169782df1da34a652abb28542e38c3f58",
    "class_gf:natural": "e8d653fd47c3f84177a9b6c218fc6f7d0f3b44109de49e51c6775d7ff840b4c3",
    "class_gf:distinct": "7711a50f709c2c2bded8f0c5bd1c07fb506831f310db6112bc13dd5bfccd6e77",
    "class_gf:rogers-ramanujan": "c260803fc94c52db0a5b34d7b536e31a5c92ae0e6bb8c9c4cd7fc1f79dd332f0",
    "class_gf:gollnitz": "817efd3e55ad6d99231324322a05de1389629880559a3d5d2f4b715bed375c2c",
    "class_gf:schur": "dd360e7171df1e69bfcf120d82a44bd06d87204365eb620d8072e28ff0981e6e",
    "class_gf:schur-refined": "e0de5b5914e4f34d53ec89ff68950e35beaa49eae31c05df136f9dd0b278db76",
    "class_gf:glasgow": "3a7876845ac081976860ffd2d440ac708f13786d0f4fe529a223e32d2e83874a",
    "verify_sip:natural": "faa7fd080bff858f4453d838269bca939a42cc0d8d16107bee5f483815205a03",
    "verify_sip:distinct": "b0e63966f60e388abcbc5b94bd8e9080c1d6f72dd713a0260043b597652b693b",
    "verify_sip:rogers-ramanujan": "5ca2fa17106e5d977e66f44dbe3bdbf2fa3c55f9f4c61fee1d8d860d00405ac0",
    "verify_sip:gollnitz": "4d0c0834edb6946be5dde27e8d21690cf26ca0b59765316737c1f3bc3eeb16a6",
    "verify_sip:schur": "b36b1272027b9167e6055e62d5e523c06c12e13c9dc065fe069c08ee5330f314",
    "verify_sip:schur-refined": "b36b1272027b9167e6055e62d5e523c06c12e13c9dc065fe069c08ee5330f314",
    "verify_sip:glasgow": "16eb8a7a6b4e401ec8245bb814a8ea4588b9c546457820a93d2d912ee772131e",
    "basis:natural": "c2eecf164f49886374d0ad08960221e9aa7dddf5143a3f3b67be3e02c471958c",
    "basis:distinct": "0f5166bd6ef11fecc6a523e6d28f3e2b2eb1cc096440fae8cfed06975ccf70f2",
    "basis:rogers-ramanujan": "e7e0910ae295734c2c2a4a34e6c621ec146192673e377221550a4c93624862da",
    "basis:gollnitz": "ab2d48b148f6af352e4291dd97dcde1e5324c1d8b69ddcc773a3d81350fcf625",
    "basis:schur": "0901c9ec9a84a07b49e95198539513f97554046f2800761b91f927148a8049f4",
    "basis:schur-refined": "4ae0b4edb0204178f5bc49ff5c90375f0d2930d393b2b8bfebbde4a074bff9cc",
    "basis:glasgow": "ce9bda32dfdc3d4bc961e31f019257cea9916e71708e0368d8526e69183a8f06",
    "binomial_row": "8dfd58e1deac78815148a775377034e779ab384d5ae1d1c7113cfabb44aaf6de",
    "poch_finite:unmarked": "30c843cc138af5e2731175aca1e4121e38f875638c476670a2d7209fa7d67847",
    "poch_finite:marked": "231a51fe4b994cdcefd855af521c37adc95c39e37e47effdc9ba5812053a9ca8",
    "gollnitz_intermediate": "be4d3da95e4ed10f4216d042e0e52afa63df3b59c4f557951b69d796010074c8",
    "telescope_check": "bad2969f3f6d88512adab1fa8dc954c144a14d5ccbbf22bd22d8127bc48c2126",
    "glasgow_row_sums": "3de94b51ac575adc07cd8744fcf711ce5081bfdff5c902897e33d4dc02af0214",
    "base_gf": "5201099c6ec3e4f7514f5a2c239d5a1db82f0e68f5ab6f1b2b31e729c24ef641",
    "chu_vandermonde_series_check": "b1c24a683a0cef38721a525ad59487a737b3822af1f16670171d3d83f57a6407",
}


def feed(digest, label: str, series) -> None:
    exact = series.trunc is None
    upto = len(series.coeffs) - 1 if exact else series.trunc
    rows = sorted(series.monomial_rows(upto).items())
    text = str(series) if exact or series.trunc <= STR_TRUNC_MAX else ""
    digest.update(repr((label, series.trunc, series.markers, rows, text)).encode())


def digests() -> dict[str, str]:
    out = {}
    for identity in catalog.identity_ids():
        entry, digest = catalog.get(identity), hashlib.sha256()
        for trunc in SIDE_TRUNCS:
            feed(digest, "lhs", entry.lhs(trunc))
            feed(digest, "rhs", entry.rhs(trunc))
        for total in ORACLE_TOTALS:
            feed(digest, "oracle", entry.oracle(total))
        out[identity] = digest.hexdigest()
    for name, spec in sip.SPEC_REGISTRY.items():
        digest = hashlib.sha256()
        for trunc in CLASS_TRUNCS:
            feed(digest, "class_gf", sip.class_gf(spec, trunc))
        out[f"class_gf:{name}"] = digest.hexdigest()
    for name, spec in sip.SPEC_REGISTRY.items():
        digest = hashlib.sha256()
        for total in VERIFY_TOTALS:
            report = sip.verify_sip(spec, total)
            digest.update(repr((
                total, report.ok, report.class_count, report.recomposed_count,
                len(report.collisions), len(report.omissions), len(report.not_in_class),
                len(report.constructive_mismatches), report.summary())).encode())
        out[f"verify_sip:{name}"] = digest.hexdigest()
    for name, spec in sip.SPEC_REGISTRY.items():
        digest = hashlib.sha256()
        table = sip.basis_table(spec, *BASIS_TABLE_SIZE)
        for (n, h), entry in sorted(table.entries.items()):
            feed(digest, repr((n, h)), entry)
        for n in BASIS_PARTS:
            digest.update(repr((n, list(sip.enumerate_basis(spec, n, BASIS_H_MAX)))).encode())
        digest.update(repr([sip.min_basis_total(spec, n) for n in MIN_BASIS_PARTS]).encode())
        for parts in sip.enumerate_class(spec, DECOMPOSE_TOTAL):
            split = sip.decompose(parts, spec)
            digest.update(repr((parts, split.basis, split.padding)).encode())
        out[f"basis:{name}"] = digest.hexdigest()
    out.update(product_digests())
    return out


def product_digests() -> dict[str, str]:
    out = {}
    digest = hashlib.sha256()
    for base in BINOMIAL_BASES:
        for a in BINOMIAL_TOPS:
            for b in range(-1, a + 2):
                digest.update(repr((a, b, base, binomial_row(a, b, base=base))).encode())
    out["binomial_row"] = digest.hexdigest()
    for marker in (None, "x"):
        digest = hashlib.sha256()
        for sign in (1, -1):
            for offset in range(4):
                for step in range(1, 4):
                    spec = PochSpec(offset, step, sign=sign, marker=marker)
                    for n in POCH_COUNTS:
                        for trunc in (None, 30):
                            feed(digest, repr((spec, n)), poch_finite(spec, n, trunc))
        out[f"poch_finite:{'marked' if marker else 'unmarked'}"] = digest.hexdigest()
    digest = hashlib.sha256()
    for trunc in GOLLNITZ_TRUNCS:
        feed(digest, "gollnitz_intermediate", catalog.gollnitz_intermediate(trunc))
    out["gollnitz_intermediate"] = digest.hexdigest()
    digest = hashlib.sha256()
    for n in TELESCOPE_TERMS:
        for trunc in TELESCOPE_TRUNCS:
            result = catalog.telescope_check(n, trunc)
            digest.update(repr((n, trunc, result.passed, result.failures)).encode())
    out["telescope_check"] = digest.hexdigest()
    digest = hashlib.sha256()
    for n in range(2, 13):
        for residue, row_sum in sorted(cf.glasgow_row_sums(n).items()):
            feed(digest, repr((n, residue)), row_sum)
    out["glasgow_row_sums"] = digest.hexdigest()
    digest = hashlib.sha256()
    for r in range(-1, 3):
        for parts in range(9):
            for trunc in range(41):
                feed(digest, repr((parts, r)), base_gf(parts, r, trunc))
    out["base_gf"] = digest.hexdigest()
    digest = hashlib.sha256()
    for r in range(6):
        for s in range(6):
            for trunc in range(41):
                digest.update(repr((r, s, trunc, cf.chu_vandermonde_series_check(r, s, trunc))).encode())
    out["chu_vandermonde_series_check"] = digest.hexdigest()
    return out


def test_outputs_match_recorded_digests():
    assert digests() == RECORDED


if __name__ == "__main__":
    for key, value in digests().items():
        print(f"    {key!r}: {value!r},")
