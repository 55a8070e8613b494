"""Batch command-line front end over graph6 streams.

Query commands (iso, dom, partition3, recognize-g, star) read graph6 lines
from files or stdin and print one JSON object per input line. Catalog
commands (enum, derive-e) print graph6 lines sorted by canonical code;
extremal and verify print JSON reports. Exit codes: 0 success, 1 domain
error or engine gap on some input, 2 usage error. A per-line error is one
record {"graph6", "error", "detail"} (no detail for no_valid_partition),
and the next line is still answered; an engine gap's detail names the
graph the reduction engine failed on.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Iterable

from isolab import family, lab
from isolab.graphs import MAX_ORDER, Graph6Error, bit_list, parse_graph6, write_graph6
from isolab.partition import EngineGap, NoValidPartition, partition3
from isolab.solvers import domination_number, isolation_number


class UsageError(Exception):
    """A problem with the command line itself; reported on stderr, exit 2."""


def _open(path: str, mode: str = "r", **kwargs):
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        verb = "write" if "w" in mode else "read"
        raise UsageError(f"cannot {verb} {path}: {exc.strerror}") from None


def _open_out(path):
    # Opened before any work, so that an unwritable path fails at once.
    return _open(path, "w") if path else contextlib.nullcontext()


_encode = json.JSONEncoder(separators=(",", ":")).encode


def _emit(obj: dict) -> None:
    sys.stdout.write(_encode(obj) + "\n")


def _note(args, message: str) -> None:
    if not args.quiet:
        sys.stderr.write(message + "\n")


def _input_lines(paths: list[str]) -> Iterable[str]:
    # Bytes that are not UTF-8 decode to lone surrogates, so they reach
    # parse_graph6 and come back as a per-line graph6 error.
    for path in paths or ["-"]:
        if path == "-":
            if hasattr(sys.stdin, "reconfigure"):
                sys.stdin.reconfigure(errors="surrogateescape")
            source = contextlib.nullcontext(sys.stdin)
        else:
            source = _open(path, encoding="utf-8", errors="surrogateescape")
        with source as fh:
            for line in fh:
                line = line.strip()
                if line:
                    yield line


def _for_each_graph(args) -> int:
    # An answer is the fixed-shape rest of its record as JSON text. The line
    # needs only its backslashes escaped, because parse_graph6 accepted it
    # and so every character is in ?..~; an error's detail may hold lone
    # surrogates from undecodable input, so error records go through _emit.
    status = 0
    for line in _input_lines(args.inputs):
        try:
            rest = args.answer(parse_graph6(line), args)
        except Graph6Error as exc:
            error = {"error": "graph6", "detail": str(exc)}
        except NoValidPartition:
            error = {"error": "no_valid_partition"}
        except EngineGap as exc:
            error = {"error": "engine_gap", "detail": str(exc)}
        except ValueError as exc:
            error = {"error": "domain", "detail": str(exc)}
        else:
            sys.stdout.write('{"graph6":"' + line.replace("\\", "\\\\") + '",' + rest + "}\n")
            continue
        _emit({"graph6": line, **error})
        status = 1
    return status


def _ints(mask: int) -> str:
    """The vertices of a set as a JSON array."""
    return "[" + ",".join(map(str, bit_list(mask))) + "]"


# The query commands' answers look the solvers up by name at each call, so
# that a wrapper installed on those names sees every call.
def _iso(g, args) -> str:
    r = isolation_number(g)
    return f'"n":{g.order},"iota":{r.value},"witness":{_ints(r.witness)}'


def _dom(g, args) -> str:
    r = domination_number(g)
    return f'"n":{g.order},"gamma":{r.value},"witness":{_ints(r.witness)}'


# A trace's vertex numerals, and its color entries '"v":c' by vertex, then
# color (the replayed trace holds only colors 1 to 3).
_NUMERALS = tuple(map(str, range(MAX_ORDER)))
_COLOR_ENTRIES = tuple(tuple(f'"{v}":{c}' for c in range(4)) for v in range(MAX_ORDER))


def _partition3(g, args) -> str:
    tp, steps = partition3(g)
    classes = ",".join(map(_ints, tp.classes))
    out = f'"n":{g.order},"classes":[{classes}],"residual":{_ints(tp.residual)}'
    if args.trace:
        # Rule names are plain identifiers; colors are keyed by vertex, in
        # vertex order, with the keys as decimal strings.
        num, entry = _NUMERALS, _COLOR_ENTRIES
        trace = ",".join([
            '{"kind":"' + s.kind + '","vertices":[' + ",".join([num[v] for v in s.vertices])
            + '],"colors":{' + ",".join([entry[v][c] for v, c in s.colors.items()])
            + "}}"
            for s in steps
        ])
        out += f',"trace":[{trace}]'
    return out


# Each pendant of a spec as the JSON text of family.spec_to_json, by kind
# and attachment.
_PENDANT_TEXT = {
    (kind, at): f'{{"kind":"{kind}","attach":[{",".join(map(str, at))}]}}'
    for kind, ats in (("K2", family.K2_ATTACHMENTS), ("C5", family.valid_c5_attachments()))
    for at in ats
}


def _recognize(g, args) -> str:
    # The base is graph6 text, whose one character JSON escapes is the
    # backslash.
    spec = family.recognize_family(g)
    if spec is None:
        return '"member":false,"spec":null'
    pendants = ",".join([_PENDANT_TEXT[p.kind, p.attach] for p in spec.pendants])
    base = write_graph6(spec.base).replace("\\", "\\\\")
    return '"member":true,"spec":{"base":"' + base + '","pendants":[' + pendants + "]}"


def _star(g, args) -> str:
    star = lab.find_reducing_star(g)
    return f'"n":{g.order},"center":{star.center},"leaves":{_ints(star.leaves)}'


def _cmd_gen_g(args) -> int:
    with _open(args.spec, "rb") as fh:
        raw = fh.read()
    try:
        spec = family.spec_from_json(json.loads(raw))
        problems = family.validate_spec(spec)
        if problems:
            _emit({"error": "invalid_spec", "problems": problems})
            return 1
        g = family.build_family_graph(spec)
    except (ValueError, RecursionError) as exc:
        # RecursionError: JSON nested deeper than the decoder's stack allows.
        _emit({"error": "invalid_spec", "detail": str(exc)})
        return 1
    _emit(
        {
            "graph6": write_graph6(g),
            "n": g.order,
            "hooks": list(range(spec.base.order)),
            "hook_isolating_set": bit_list(family.hook_isolating_set(spec)),
        }
    )
    return 0


def _cmd_rand_g(args) -> int:
    if args.count < 0:
        raise UsageError(f"--count must be at least 0, not {args.count}")
    if args.order % 3 != 0 or not 3 <= args.order <= MAX_ORDER:
        _emit({"error": "infeasible_order", "order": args.order})
        return 1
    for i in range(args.count):
        spec = family.random_family_spec(args.order, args.seed + i)
        g = family.build_family_graph(spec)
        _emit(
            {
                "seed": args.seed + i,
                "spec": family.spec_to_json(spec),
                "graph6": write_graph6(g),
            }
        )
    return 0


def _cmd_enum(args) -> int:
    if args.order >= 8:
        _note(args, f"enumerating order {args.order}; this can take a while")
    if args.connected:
        lines = lab.enumerate_connected(args.order, threads=args.threads)
    else:
        lines = lab.enumerate_all(args.order)
    for line in lines:
        sys.stdout.write(line + "\n")
    return 0


def _cmd_extremal(args) -> int:
    with _open_out(args.out) as fh:
        if args.order == 9:
            _note(args, "classifying all connected graphs of order 9")
        data = lab.extremal_graphs(args.order, threads=args.threads).to_json()
        if fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
    _emit(
        {
            "order": data["order"],
            "total": data["total"],
            "extremal": data["extremal"],
            "g": data["g"],
            "e": data["e"],
        }
    )
    return 0


def _cmd_derive_e(args) -> int:
    with _open_out(args.out) as fh:
        if args.order >= 9:
            _note(args, f"deriving the exceptional catalog at order {args.order}")
        lines = lab.derive_exceptional(args.order, threads=args.threads)
        if fh:
            fh.write("\n".join(lines) + "\n")
    for line in lines:
        sys.stdout.write(line + "\n")
    return 0


def _cmd_verify(args) -> int:
    if args.order == 15:
        report = lab.check_order15_extensions(threads=args.threads)
    else:
        report = lab.verify_characterization(args.order, threads=args.threads)
    _emit(report)
    return 0 if report["ok"] else 1


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=1, metavar="K",
                        help="worker processes; never changes output bytes")
    common.add_argument("--quiet", action="store_true",
                        help="suppress informational notes on stderr")

    parser = argparse.ArgumentParser(
        prog="isolab",
        description="exact isolation computations over graph6 streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_cmd(name, answer, help_):
        p = sub.add_parser(name, parents=[common], help=help_)
        p.add_argument("inputs", nargs="*", default=["-"],
                       help="graph6 files, or - for stdin")
        p.set_defaults(fn=_for_each_graph, answer=answer)
        return p

    graph_cmd("iso", _iso, "isolation number and witness per graph")
    graph_cmd("dom", _dom, "domination number and witness per graph")
    p = graph_cmd("partition3", _partition3,
                  "tri-partition with independent leftover per graph")
    p.add_argument("--trace", action="store_true", help="include the reduction trace")
    graph_cmd("recognize-g", _recognize, "pendant-family membership per graph")
    graph_cmd("star", _star, "reducing star per graph")

    p = sub.add_parser("gen-g", parents=[common], help="realize a family spec")
    p.add_argument("--spec", required=True, metavar="FILE", help="spec JSON file")
    p.set_defaults(fn=_cmd_gen_g)

    p = sub.add_parser("rand-g", parents=[common], help="sample random family specs")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(fn=_cmd_rand_g)

    p = sub.add_parser("enum", parents=[common], help="enumerate graphs of one order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--connected", action="store_true")
    p.set_defaults(fn=_cmd_enum)

    p = sub.add_parser("extremal", parents=[common],
                       help="classify extremal graphs of one order")
    p.add_argument("--order", type=int, required=True, choices=(3, 6, 9))
    p.add_argument("--out", metavar="FILE", help="write the full JSON report")
    p.set_defaults(fn=_cmd_extremal)

    p = sub.add_parser("derive-e", parents=[common],
                       help="derive the exceptional catalog")
    p.add_argument("--order", type=int, required=True, choices=(6, 9, 12))
    p.add_argument("--out", metavar="FILE", help="write the catalog file")
    p.set_defaults(fn=_cmd_derive_e)

    p = sub.add_parser("verify", parents=[common],
                       help="verify the characterization at one order")
    p.add_argument("--order", type=int, required=True, choices=(3, 6, 9, 12, 15))
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    args.threads = max(1, min(args.threads, os.cpu_count() or 1))
    if args.command == "enum":
        if not 1 <= args.order <= lab.MAX_ENUM_ORDER:
            parser.error(f"--order must be in 1..{lab.MAX_ENUM_ORDER}")
        if not args.connected and args.order > lab.MAX_ENUM_ORDER - 1:
            parser.error("full enumeration (without --connected) stops at order 9")
    try:
        return args.fn(args)
    except (UsageError, lab.CacheDirError) as exc:
        sys.stderr.write(f"{parser.prog}: error: {exc}\n")
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
