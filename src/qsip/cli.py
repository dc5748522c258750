"""Command-line interface: verify identities, dump tables, export JSON.

:func:`main` reads the plain form ``COMMAND (--FLAG VALUE)*`` itself from the
``_COMMANDS``/``_FLAGS`` table and hands any other argv, help included, to the
argparse parser that :func:`build_parser` makes from the same table.

Text grammars used by the flags:

* partitions: comma-separated ascending positive integers, e.g. ``2,7``;
* class specs: either a registered name (natural, distinct,
  rogers-ramanujan, gollnitz, schur, schur-refined, glasgow) or inline
  ``k=2,c=1:2,d=2:3`` with c and d colon-separated, one entry per residue.
"""

from __future__ import annotations

import functools
import json
import sys
from typing import TYPE_CHECKING, Sequence

from . import catalog, sip
from .partitions import SipClassSpec

if TYPE_CHECKING:
    import argparse

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
        key, _, value = (part.strip() for part in tok.partition("="))
        if key not in ("k", "c", "d"):
            raise ValueError(f"bad spec {text!r}: unknown key {key!r}, expected k, c and d")
        if key in fields:
            raise ValueError(f"bad spec {text!r}: key {key!r} given twice")
        fields[key] = value
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


def _verify(args) -> list[dict]:
    if "identity" in args:  # verify-all takes no --identity
        outcomes = [catalog.verify(args["identity"], args["trunc"])]
    else:
        outcomes = catalog.verify_all(args["trunc"])
    return [{
        "id": res.identity,
        "pass": res.passed,
        "trunc": res.trunc,
        "first_mismatch": res.first_mismatch,
        "text": res.summary(),
    } for res in outcomes]


def _oracle(args) -> list[dict]:
    res = catalog.oracle_concordance(args["identity"], args["total_max"])
    return [{
        "id": res.identity,
        "pass": res.passed,
        "total_max": res.total_max,
        "oracle_vs_lhs": res.oracle_vs_lhs,
        "oracle_vs_rhs": res.oracle_vs_rhs,
        "text": res.summary(),
    }]


def _basis(args) -> list[dict]:
    spec, n, h_max = parse_spec(args["spec"]), args["n"], args["h_max"]
    elements = list(sip.enumerate_basis(spec, n, h_max))
    return [{
        "pass": True,
        "n": n,
        "h_max": h_max,
        "count": len(elements),
        "elements": [list(e) for e in elements],
        "text": f"{len(elements)} basis elements with {n} parts, largest <= {h_max}: "
                + ", ".join("+".join(map(str, e)) for e in elements),
    }]


def _decompose(args) -> list[dict]:
    spec = parse_spec(args["spec"])
    parts = parse_partition(args["partition"])
    decomp = sip.decompose(parts, spec)
    roundtrip = sip.recompose(decomp) == parts
    return [{
        "pass": roundtrip,
        "partition": list(parts),
        "basis": list(decomp.basis),
        "padding": list(decomp.padding),
        "text": (f"{'+'.join(map(str, parts))} = basis {'+'.join(map(str, decomp.basis))}"
                 f" with padding {list(decomp.padding)}"),
    }]


def _table(args) -> list[dict]:
    spec = parse_spec(args["spec"])
    table = sip.basis_table(spec, args["n"], args["h_max"])
    return [{
        "pass": True,
        "n": n,
        "h": h,
        "series": str(series),
        "text": f"b({n},{h}) = {series}",
    } for (n, h), series in sorted(table.entries.items())]


_FLAGS = {
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
    "output": dict(choices=("text", "json"), default="text"),
}
# Each subcommand: its help text, the flags it reads besides --output, and
# the handler that turns the parsed flags into result rows, each with a
# "pass" and a "text".
_COMMANDS = {
    "verify": ("verify one identity", ("identity", "trunc"), _verify),
    "verify-all": ("verify every registered identity", ("trunc",), _verify),
    "oracle": ("three-way oracle concordance", ("identity", "total-max"), _oracle),
    "basis": ("list basis elements", ("spec", "n", "h-max"), _basis),
    "decompose": ("split a class member", ("spec", "partition"), _decompose),
    "table": ("dump b(n, h) entries", ("spec", "n", "h-max"), _table),
}


def _parse_plain(argv: Sequence[str]) -> dict | None:
    """The flags of ``COMMAND (--FLAG VALUE)*`` as argparse would set them:
    each flag the command takes given at most once by its full name, with a
    value that does not start with ``-`` and passes the flag's type and
    choices.  None for any other argv, which :func:`build_parser` then
    parses, accepts or rejects itself."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    names = (*_COMMANDS[argv[0]][1], "output")
    given = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        name = flag[2:]
        if flag[:2] != "--" or name not in names or name in given or value[:1] == "-":
            return None
        given[name] = value
    args = {"command": argv[0]}
    for name in names:
        spec = _FLAGS[name]
        if name not in given:
            if spec.get("required"):
                return None
            value = spec["default"]
        else:
            value = given[name]
            if "type" in spec:
                try:
                    value = spec["type"](value)
                except ValueError:
                    return None
            if "choices" in spec and value not in spec["choices"]:
                return None
        args[name.replace("-", "_")] = value
    return args


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse ``qsip`` parser, made from the ``_COMMANDS``/``_FLAGS``
    table.  :func:`main` calls it only for an argv that :func:`_parse_plain`
    does not take, so it writes every usage, help and error text; argparse
    is imported here, on that first call.  For an argv both accept, the
    namespace holds the dict :func:`_parse_plain` returns plus ``subparser``,
    the chosen subcommand's own parser.

    The parser is built on the first call and returned by every later one.
    It is shared within the process and must not be mutated.  Sharing is
    safe because each parse fills a fresh namespace, and usage and help
    text are formatted, and ``sys.stderr`` looked up, only when printed."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="qsip",
        description="Verify q-series identities and inspect separable-class bases.",
        epilog=__doc__.split("\n\n", 2)[2],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in (*flags, "output"):
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(subparser=p)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:  # argparse parses it, or exits with help or an error
        namespace, extra = build_parser().parse_known_args(argv)
        args = vars(namespace)
        subparser = args.pop("subparser")
        if extra:  # report them with the chosen subcommand's own usage line
            subparser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        results = _COMMANDS[args["command"]][2](args)
    except (catalog.UnknownIdentity, ValueError, sip.NotInClass) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError) as exc:
        print(f"error: sizes too large to allocate ({type(exc).__name__}: {exc})",
              file=sys.stderr)
        return 2
    if args["output"] == "json":
        report = {"schema": SCHEMA, "command": args["command"], "results": results}
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for result in results:
            sys.stdout.write(result["text"] + "\n")
    return 0 if all(r["pass"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
