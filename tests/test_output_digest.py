"""Recorded digests of the package's outputs, one sha256 per identity id and
two per SIP class.

An identity's digest covers its series and product sides at every
truncation 0..120 and its oracle at every total 0..20; a class's digests
cover ``class_gf`` at every truncation 0..60 and ``verify_sip`` at every
total 0..24.  Only public read-outs are hashed: ``trunc``, ``markers``,
``monomial_rows`` and, through trunc 40, ``str``; of a ``verify_sip``
report, ``ok``, ``class_count``, ``recomposed_count``, the length of each
of its four lists and ``summary()``.  So any change to the internal row
layout or to how the bijection is walked keeps the digests, and any change
to an output breaks one.

Run this file as a script to print the digests of the current code.
"""

import hashlib

from qsip import catalog, sip

SIDE_TRUNCS = range(121)
ORACLE_TOTALS = range(21)
CLASS_TRUNCS = range(61)
STR_TRUNC_MAX = 40
VERIFY_TOTALS = range(25)

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
}


def feed(digest, label: str, series) -> None:
    rows = sorted(series.monomial_rows(series.trunc).items())
    text = str(series) if series.trunc <= STR_TRUNC_MAX else ""
    digest.update(repr((label, series.trunc, series.markers, rows, text)).encode())


def digests() -> dict[str, str]:
    out = {}
    for identity in catalog.identity_ids():
        entry, digest = catalog.get(identity), hashlib.sha256()
        for trunc in SIDE_TRUNCS:
            feed(digest, "lhs", entry.lhs(trunc))
            feed(digest, "rhs", entry.rhs(trunc))
        if entry.oracle is not None:
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
    return out


def test_outputs_match_recorded_digests():
    assert digests() == RECORDED


if __name__ == "__main__":
    for key, value in digests().items():
        print(f"    {key!r}: {value!r},")
