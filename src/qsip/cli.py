"""Command-line interface: verify identities, dump tables, export JSON.

Text grammars used by the flags:

* partitions: comma-separated ascending positive integers, e.g. ``2,7``;
* class specs: either a registered name (natural, distinct,
  rogers-ramanujan, gollnitz, schur, schur-refined, glasgow) or inline
  ``k=2,c=1:2,d=2:3`` with c and d colon-separated, one entry per residue.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import catalog, sip
from .partitions import SipClassSpec

SCHEMA = "qsip-report/1"


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse comma-separated ascending positive integers."""
    if not text.strip():
        return ()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"bad partition {text!r}: expected comma-separated integers")
    if any(p <= 0 for p in parts):
        raise ValueError(f"bad partition {text!r}: parts must be positive")
    if tuple(sorted(parts)) != parts:
        raise ValueError(f"bad partition {text!r}: parts must be ascending")
    return parts


def parse_spec(text: str) -> SipClassSpec:
    """Resolve a registered spec name or parse inline k=...,c=...,d=...."""
    name = text.strip().lower()
    if name in sip.SPEC_REGISTRY:
        return sip.SPEC_REGISTRY[name]
    fields = {}
    for tok in text.split(","):
        if "=" not in tok:
            raise ValueError(f"bad spec fragment {tok!r}: expected key=value")
        key, _, value = tok.partition("=")
        fields[key.strip()] = value.strip()
    missing = {"k", "c", "d"} - set(fields)
    if missing:
        raise ValueError(f"spec {text!r} is missing {sorted(missing)}")
    try:
        k = int(fields["k"])
        c = tuple(int(x) for x in fields["c"].split(":"))
        d = tuple(int(x) for x in fields["d"].split(":"))
        return SipClassSpec(k, c, d)
    except ValueError as exc:
        raise ValueError(f"bad spec {text!r}: {exc}") from None


def _emit(report: dict, output: str, stream) -> None:
    if output == "json":
        json.dump(report, stream, indent=2, sort_keys=True)
        stream.write("\n")
        return
    for result in report["results"]:
        line = result.get("text")
        if line:
            stream.write(line + "\n")
        else:
            stream.write(json.dumps(result, sort_keys=True) + "\n")


def _cmd_verify(args) -> dict:
    results = []
    if args.command == "verify-all":
        outcomes = catalog.verify_all(args.trunc)
    else:
        outcomes = [catalog.verify(args.identity, args.trunc)]
    for res in outcomes:
        results.append({
            "id": res.identity,
            "pass": res.passed,
            "trunc": res.trunc,
            "first_mismatch": res.first_mismatch,
            "text": res.summary(),
        })
    return {"schema": SCHEMA, "command": args.command, "results": results}


def _cmd_oracle(args) -> dict:
    res = catalog.oracle_concordance(args.identity, args.total_max)
    return {"schema": SCHEMA, "command": "oracle", "results": [{
        "id": res.identity,
        "pass": res.passed,
        "total_max": res.total_max,
        "oracle_vs_lhs": res.oracle_vs_lhs,
        "oracle_vs_rhs": res.oracle_vs_rhs,
        "text": res.summary(),
    }]}


def _cmd_basis(args) -> dict:
    spec = parse_spec(args.spec)
    elements = list(sip.enumerate_basis(spec, args.n, args.h_max))
    results = [{
        "pass": True,
        "n": args.n,
        "h_max": args.h_max,
        "count": len(elements),
        "elements": [list(e) for e in elements],
        "text": f"{len(elements)} basis elements with {args.n} parts, largest <= {args.h_max}: "
                + ", ".join("+".join(map(str, e)) for e in elements),
    }]
    return {"schema": SCHEMA, "command": "basis", "results": results}


def _cmd_decompose(args) -> dict:
    spec = parse_spec(args.spec)
    parts = parse_partition(args.partition)
    decomp = sip.decompose(parts, spec)
    roundtrip = sip.recompose(decomp) == parts
    results = [{
        "pass": roundtrip,
        "partition": list(parts),
        "basis": list(decomp.basis),
        "padding": list(decomp.padding),
        "text": (f"{'+'.join(map(str, parts))} = basis {'+'.join(map(str, decomp.basis))}"
                 f" with padding {list(decomp.padding)}"),
    }]
    return {"schema": SCHEMA, "command": "decompose", "results": results}


def _cmd_table(args) -> dict:
    spec = parse_spec(args.spec)
    table = sip.basis_table(spec, args.n, args.h_max)
    rows = []
    for (n, h), series in sorted(table.entries.items()):
        rows.append({
            "pass": True,
            "n": n,
            "h": h,
            "series": str(series),
            "text": f"b({n},{h}) = {series}",
        })
    return {"schema": SCHEMA, "command": "table", "results": rows}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsip",
        description="Verify q-series identities and inspect separable-class bases.",
        epilog=__doc__.split("\n", 2)[2],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "identity": dict(required=True,
                         help="registered identity id (see verify-all output)"),
        "trunc": dict(type=int, default=40,
                      help="truncation order for series comparison (default 40)"),
        "total-max": dict(type=int, default=20,
                          help="largest total for enumeration oracles (default 20)"),
        "spec": dict(required=True, help="spec name or inline k=...,c=...,d=..."),
        "partition": dict(required=True, help="comma-separated ascending parts, e.g. 2,7"),
        "n": dict(type=int, required=True, help="number of parts"),
        "h-max": dict(type=int, default=20, help="largest-part bound (default 20)"),
    }
    for name, help_text, names in (
            ("verify", "verify one identity", ("identity", "trunc")),
            ("verify-all", "verify every registered identity", ("trunc",)),
            ("oracle", "three-way oracle concordance", ("identity", "total-max")),
            ("basis", "list basis elements", ("spec", "n", "h-max")),
            ("decompose", "split a class member", ("spec", "partition")),
            ("table", "dump b(n, h) entries", ("spec", "n", "h-max"))):
        p = sub.add_parser(name, help=help_text)
        for flag in names:
            p.add_argument(f"--{flag}", **flags[flag])
        p.add_argument("--output", choices=("text", "json"), default="text")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # report them with the chosen subcommand's own usage line
        (commands,) = [a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)]
        commands.choices[args.command].error(
            f"unrecognized arguments: {' '.join(extra)}")
    try:
        if args.command in ("verify", "verify-all"):
            report = _cmd_verify(args)
        elif args.command == "oracle":
            report = _cmd_oracle(args)
        elif args.command == "basis":
            report = _cmd_basis(args)
        elif args.command == "decompose":
            report = _cmd_decompose(args)
        else:
            report = _cmd_table(args)
    except (catalog.UnknownIdentity, catalog.NoOracle, ValueError,
            sip.NotInClass) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError) as exc:
        print(f"error: sizes too large to allocate ({type(exc).__name__}: {exc})",
              file=sys.stderr)
        return 2
    _emit(report, args.output, sys.stdout)
    return 0 if all(r.get("pass", True) for r in report["results"]) else 1


if __name__ == "__main__":
    sys.exit(main())
