"""Command line surface: enumeration, queries, verification, Hasse export.

Bracket vectors are the canonical element identity in all I/O;
triangulations and partitions are derived views.  Exit codes: 0 success,
1 invalid input, 2 verification failure.

Each command is written once for all lattice types: it parses, computes
and formats through the kind object for --type/--n/--s (`tamari.kinds`).
Invalid input surfaces as ValueError, which `main` reports in one line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import inf as INF

from . import verify as vfy
from .kinds import lattice_kind

DEFAULT_N_CAP = 6
# Commands that read no --s (a given one is ignored).
WITHOUT_S = ("encode", "decode", "psi", "psi-inv")


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _check_cap(args) -> None:
    if args.n > args.max_n_unsafe:
        raise ValueError(
            f"n={args.n} exceeds the cap {args.max_n_unsafe}; pass --max-n-unsafe to override"
        )


def _vec_str(v) -> str:
    return "(" + ",".join("inf" if x == INF else str(x) for x in v) + ")"


def _label_str(lab) -> str:
    i, t = lab
    return f"W{i},{'inf' if t == INF else t}"


def cmd_count(args, kind) -> None:
    _emit(args, str(kind.count()))


def cmd_enumerate(args, kind) -> None:
    if args.format == "dot":
        raise ValueError("enumerate writes json or csv, not dot")
    rows = [kind.vector_json(v) for v in kind.elements()]
    if args.format == "csv":
        _emit(args, "\n".join(",".join(str(x) for x in r) for r in rows))
    else:
        _emit(args, "\n".join(json.dumps(r) for r in rows))


def cmd_encode(args, kind) -> None:
    t = kind.parse_triangulation(args.triangulation)
    _emit(args, json.dumps(kind.vector_json(kind.encode(t))))


def cmd_decode(args, kind) -> None:
    _emit(args, json.dumps(kind.decode(kind.parse_vector(args.vector)).to_json()))


def cmd_meet_join(args, kind) -> None:
    a = kind.parse_vector(args.vector)
    b = kind.parse_vector(args.other)
    op = kind.meet if args.command == "meet" else kind.join
    _emit(args, json.dumps(kind.vector_json(op(a, b))))


def cmd_covers(args, kind) -> None:
    a = kind.parse_vector(args.vector)
    if args.other is not None:
        _emit(args, json.dumps(kind.covers(a, kind.parse_vector(args.other))))
    else:
        _emit(args, "\n".join(json.dumps(kind.vector_json(w)) for w in kind.upper_covers(a)))


def cmd_psi(args, kind) -> None:
    _emit(args, json.dumps(kind.psi_json(kind.parse_vector(args.vector))))


def cmd_psi_inv(args, kind) -> None:
    t = kind.psi_inverse(args.partition)
    out = {"vector": kind.vector_json(kind.encode(t)), "triangulation": t.to_json()}
    _emit(args, json.dumps(out))


def cmd_mobius(args, kind) -> None:
    y = kind.parse_vector(args.vector)
    z = kind.parse_vector(args.other)
    _emit(args, json.dumps(kind.mobius(y, z)))


def cmd_hasse(args, kind) -> None:
    _check_cap(args)
    vecs = sorted(kind.elements())
    edges = [
        (a, b, kind.edge_label(a, b)) for a in vecs for b in sorted(kind.upper_covers(a))
    ]
    if args.format == "dot":
        lines = ["digraph hasse {", "  rankdir=BT;"] + [f'  "{_vec_str(v)}";' for v in vecs]
        for a, b, lab in edges:
            attr = f' [label="{_label_str(lab)}"]' if lab is not None else ""
            lines.append(f'  "{_vec_str(a)}" -> "{_vec_str(b)}"{attr};')
        lines.append("}")
        _emit(args, "\n".join(lines))
    elif args.format == "csv":
        rows = [
            f"{_vec_str(a)},{_vec_str(b)}" + (f",{_label_str(lab)}" if lab else "")
            for a, b, lab in edges
        ]
        _emit(args, "\n".join(rows))
    else:
        payload = {
            "nodes": [kind.vector_json(v) for v in vecs],
            "edges": [
                {"from": kind.vector_json(a), "to": kind.vector_json(b)}
                | ({"label": _label_str(lab)} if lab is not None else {})
                for a, b, lab in edges
            ],
        }
        _emit(args, json.dumps(payload))


def cmd_verify(args, kind) -> int:
    _check_cap(args)
    report = vfy.run_suite(args.suite, kind.name, args.n, kind.s)
    _emit(args, json.dumps(report, default=str))
    return 0 if report["passed"] else 2


COMMANDS = {
    "count": cmd_count,
    "enumerate": cmd_enumerate,
    "encode": cmd_encode,
    "decode": cmd_decode,
    "meet": cmd_meet_join,
    "join": cmd_meet_join,
    "covers": cmd_covers,
    "psi": cmd_psi,
    "psi-inv": cmd_psi_inv,
    "mobius": cmd_mobius,
    "hasse": cmd_hasse,
    "verify": cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    """A bad command line raises ValueError, which `main` reports in one
    line with exit 1, in place of argparse's usage text and exit 2 (the
    verification-failure code).  The subparsers inherit this class."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tamari",
        description="Type-B Tamari lattices: bracket vectors, noncrossing "
        "partitions, BD^S quotients, shellability checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_n=True):
        p.add_argument("--type", choices=("a", "b", "bds"), default="b")
        if need_n:
            p.add_argument("--n", type=int, required=True)
        p.add_argument("--s", help="comma separated subset of [n] (bds only)")
        p.add_argument("--format", choices=("json", "dot", "csv"), default="json")
        p.add_argument("--out", help="write output to a file")

    common(sub.add_parser("count", help="number of lattice elements"))
    common(sub.add_parser("enumerate", help="stream all bracket vectors"))

    p = sub.add_parser("encode", help="triangulation JSON -> bracket vector")
    common(p, need_n=False)
    p.add_argument("--triangulation", required=True)

    p = sub.add_parser("decode", help="bracket vector -> triangulation JSON")
    common(p)
    p.add_argument("--vector", required=True)

    for name in ("meet", "join"):
        p = sub.add_parser(name, help=f"{name} of two bracket vectors")
        common(p)
        p.add_argument("--vector", required=True)
        p.add_argument("--other", required=True)

    p = sub.add_parser("covers", help="upper covers, or cover test of a pair")
    common(p)
    p.add_argument("--vector", required=True)
    p.add_argument("--other")

    p = sub.add_parser("psi", help="bracket vector -> noncrossing partition")
    common(p)
    p.add_argument("--vector", required=True)

    p = sub.add_parser("psi-inv", help="noncrossing partition -> triangulation")
    common(p, need_n=False)
    p.add_argument("--partition", required=True)

    p = sub.add_parser("mobius", help="Mobius value and homotopy type of an interval")
    common(p)
    p.add_argument("--vector", required=True)
    p.add_argument("--other", required=True)

    p = sub.add_parser("hasse", help="export the Hasse diagram (json, dot or csv)")
    common(p)
    p.add_argument("--max-n-unsafe", type=int, default=DEFAULT_N_CAP)

    p = sub.add_parser("verify", help="run a verification suite against the oracle")
    p.add_argument("suite", choices=vfy.SUITES)
    common(p)
    p.add_argument("--max-n-unsafe", type=int, default=DEFAULT_N_CAP)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "n", 1) < 1:
            raise ValueError("--n must be at least 1")
        s = None if args.command in WITHOUT_S else args.s
        kind = lattice_kind(args.type, getattr(args, "n", None), s)
        code = COMMANDS[args.command](args, kind) or 0  # only verify fails with 2
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (`tamari enumerate ... | head`): stop quietly,
        # and keep the interpreter's final flush from failing again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as e:
        print("error: " + " ".join(str(e).splitlines()), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
