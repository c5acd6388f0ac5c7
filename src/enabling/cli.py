"""Command line for constructing, checking and certifying enabling graphs.

Subcommands: construct, verify, certify, bound, search, export-dot.  All
structured output is canonical JSON (sorted keys, no spaces) on standard
out; logs and progress go to standard error.  Exit codes: 0 success, 1
negative mathematical answer (not enabling / no witness), 2 usage or input
error or too little memory, 3 a falsified internal invariant, which would
indicate a genuine bug in the underlying mathematics or this
implementation.  A flag the chosen mode ignores is a usage error.  The
parser is built once, at the first call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from . import bounds, certificates, constructions, lp
from .cliques import ALL_CLIQUES, PER_VERTEX_LEX, verify_enabling
from .graphs import EdgeColouredGraph, canonical_json, from_simple_graph, pairs
from .search import _least_witness, exists_enabling

__all__ = ["main"]

_POLICIES = {"all": ALL_CLIQUES, "lex": PER_VERTEX_LEX}

_BASE_PALETTE = ("red", "blue", "green", "yellow")


def _colour_name(i: int) -> str:
    if i < len(_BASE_PALETTE):
        return _BASE_PALETTE[i]
    # Golden-ratio hue rotation keeps later colours distinct and fixed.
    hue = ((i - len(_BASE_PALETTE)) * 0.618033988749895 + 0.05) % 1.0
    return f"{hue:.6f},0.850,0.900"


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _load_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError(f"JSON input {path!r} nests too deeply to read") from None


def _load_graph(path: str) -> EdgeColouredGraph:
    return EdgeColouredGraph.from_json_dict(_load_json(path))


def _parse_targets(text: str) -> tuple[tuple[int, int], ...]:
    targets = []
    for part in text.split(","):
        colour, _, k = part.partition(":")
        if not _ or not colour.strip() or not k.strip():
            raise ValueError(f"bad target {part!r}; expected colour:k")
        targets.append((int(colour), int(k)))
    return tuple(targets)


def _refuse_ignored(args: argparse.Namespace, mode: str, *flags: str) -> None:
    """A usage error naming each of flags, given to a mode that ignores it."""
    values = [getattr(args, f[2:].replace("-", "_")) for f in flags]
    given = [f for f, v in zip(flags, values) if v is not None and v is not False]
    if given:
        raise ValueError(f"{mode} does not take {', '.join(given)}")


def _extremal(k1: int, k2: int) -> tuple[EdgeColouredGraph, dict, str]:
    g = constructions.two_colour_extremal(k1, k2)
    a, b, x, y = constructions._extremal_parts(k1, k2)
    red = a + x
    params = {"k1": k1, "k2": k2, "x": x, "y": y, "|R|": red, "|B|": b + y}
    return g, params, (
        f"vertices 0..{red - 1} form the red clique R, {red}..{g.n - 1} form the "
        f"blue clique B; B vertex {red}+j is red exactly to R vertices ({a}*j+s) "
        f"mod {red}, s = 0..{a - 1}")


# Each construct family: its integer parameter count and a builder returning
# the graph, its meta params and its label map.  --family lists the keys.
_FAMILIES = {
    "p4": (1, lambda n: (constructions.p4_blowup(n), {"n": n},
                         "parts are the consecutive vertex ranges, longer parts first")),
    "extremal": (2, _extremal),
    "blocks": (2, lambda r, k: (constructions.multicolour_blocks(r, k), {"r": r, "k": k},
                                f"vertex 2*({k} - 1)*i + q is element q of block i")),
    "prime": (1, lambda p: (constructions.prime_slope(p), {"p": p},
                            f"vertex x*{p} + y is the grid point (x, y)")),
}


def _cmd_construct(args: argparse.Namespace) -> int:
    count, build = _FAMILIES[args.family]
    parts = [p for p in args.params.split(",") if p.strip()]
    if len(parts) != count:
        raise ValueError(f"{args.family} takes {count} integer parameter(s), "
                         f"got {args.params!r}")
    g, params, label_map = build(*map(int, parts))
    doc = g.to_json_dict()
    doc["meta"] = {"construction": args.family, "params": params, "label_map": label_map}
    _emit(canonical_json(doc), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    report = verify_enabling(g, _parse_targets(args.targets))
    _emit(canonical_json(report.to_json_dict()), args.output)
    if not report.ok:
        v, c = report.first_failure
        _log(f"not enabling: vertex {v} has no witness in colour {c}")
    return 0 if report.ok else 1


def _cmd_certify(args: argparse.Namespace) -> int:
    if args.check is not None:
        _refuse_ignored(args, "certify --check", "--targets", "--policy")
    elif args.targets is None:
        raise ValueError("certify needs --targets unless --check is given")
    g = _load_graph(args.graph)
    if args.check is not None:
        issues = certificates.check_certificate(g, _load_json(args.check))
        _emit(canonical_json({"ok": not issues, "issues": issues}), args.output)
        for issue in issues:
            _log(issue)
        return 0 if not issues else 1
    result = certificates.certify(
        g, _parse_targets(args.targets), policy=_POLICIES[args.policy or "all"]
    )
    _emit(canonical_json(result.to_json_dict()), args.output)
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    if args.two_colour is not None:
        k1, k2 = args.two_colour
        report = bounds.two_colour_report(k1, k2)
    else:
        r, k = args.multicolour
        report = bounds.multicolour_report(r, k)
    _emit(canonical_json(report.to_json_dict()), args.output)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    progress = None if args.quiet else lambda count: _log(f"searched {count} graphs")
    if args.min_n:
        _refuse_ignored(args, "search --min-n", "--n", "--timings")
        if args.n_max is None:
            raise ValueError("--min-n needs --n-max")
        report = _least_witness(
            args.k1, args.k2, args.n_max, args.trusted_bounds, progress
        )
        hit = None if report is None else report.n
        doc = {
            "k1": args.k1,
            "k2": args.k2,
            "n_max": args.n_max,
            "min_n": hit,
            "found": hit is not None,
        }
        if hit is None:
            doc["reason"] = "exceeds n_max"
        _emit(canonical_json(doc), args.output)
        if hit is not None and args.witness_out is not None:
            _write_witness(report, args.witness_out)
        return 0 if hit is not None else 1
    _refuse_ignored(args, "search without --min-n", "--n-max", "--trusted-bounds")
    if args.n is None:
        raise ValueError("existence mode needs --n (or use --min-n with --n-max)")
    report = exists_enabling(args.n, args.k1, args.k2, progress=progress)
    _emit(canonical_json(report.to_json_dict(include_timings=args.timings)), args.output)
    if report.found and args.witness_out is not None:
        _write_witness(report, args.witness_out)
    return 0 if report.found else 1


def _write_witness(report, path: str) -> None:
    g = from_simple_graph(report.n, report.witness)
    _emit(g.to_json(), path)


def _cmd_export_dot(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    lines = ["graph enabling {", "  node [shape=circle];"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for u, v in pairs(g.n):
        lines.append(f'  {u} -- {v} [color="{_colour_name(g.colour_of(u, v))}"];')
    lines.append("}")
    _emit("\n".join(lines), args.output)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enabling",
        description="Construct, verify, certify and search enabling graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("-o", "--output", default=None, help="write to file, not stdout")

    p = sub.add_parser("construct", help="emit a construction as graph JSON")
    p.add_argument("--family", required=True, choices=list(_FAMILIES))
    p.add_argument("--params", required=True, help="comma-separated integers")
    add_output(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check the enabling property")
    p.add_argument("--graph", required=True, help="graph JSON file, - for stdin")
    p.add_argument("--targets", required=True, help='e.g. "0:3,1:9"')
    add_output(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("certify", help="produce or re-check measure certificates")
    p.add_argument("--graph", required=True, help="graph JSON file, - for stdin")
    p.add_argument("--targets", help='e.g. "0:3,1:9"; required unless --check')
    p.add_argument("--policy", choices=sorted(_POLICIES), help="default: all")
    p.add_argument("--check", help="re-verify this certificate JSON, no solving")
    add_output(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("bound", help="lower/upper bounds on the least size")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--two-colour", nargs=2, type=int, metavar=("K1", "K2"))
    group.add_argument("--multicolour", nargs=2, type=int, metavar=("R", "K"))
    add_output(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("search", help="exhaustive search over edge bitmasks")
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("--n", type=int, help="vertex count for existence mode")
    p.add_argument("--min-n", action="store_true", help="scan upward for the least n")
    p.add_argument("--n-max", type=int, help="scan limit for --min-n")
    p.add_argument("--trusted-bounds", action="store_true",
                   help="let --min-n start at the proven lower bound")
    p.add_argument("--timings", action="store_true",
                   help="include elapsed seconds in the JSON output")
    p.add_argument("--witness-out", help="write the witness graph JSON here")
    p.add_argument("--quiet", action="store_true", help="suppress progress lines")
    add_output(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("export-dot", help="emit the graph in DOT format")
    p.add_argument("--graph", required=True, help="graph JSON file, - for stdin")
    add_output(p)
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except certificates.NotEnabling as exc:
        _log(f"not enabling: {exc}")
        return 1
    except (certificates.LemmaViolation, lp.AuditFailure) as exc:
        _log(f"invariant falsified: {exc}")
        return 3
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        _log(f"error: {exc}")
        return 2
    except MemoryError:
        # certify's default policy holds every clique; lex holds far fewer.
        holds_all = (args.func is _cmd_certify and args.check is None
                     and (args.policy or "all") == "all")
        hint = "; certify --policy lex holds far fewer cliques" if holds_all else ""
        _log(f"error: out of memory{hint}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
