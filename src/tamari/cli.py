"""Command line surface: enumeration, queries, verification, Hasse export.

Bracket vectors are the canonical element identity in all I/O;
triangulations and partitions are derived views.  Exit codes: 0 success,
1 invalid input, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import inf as INF

from . import bracket_b as bb
from . import noncross as nc
from . import quotient_bds as q
from . import shelling as sh
from . import tamari_a as ta
from . import verify as vfy

DEFAULT_N_CAP = 6


class CliError(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise CliError(f"malformed JSON in {what}: {e}") from e


def _parse_vector(text: str, kind: str, n: int):
    data = _parse_json(text, "vector")
    if kind == "a":
        v = tuple(data)
        err = ta.validate_a(v, n)
        if err is not None:
            raise CliError(f"invalid bracket vector {data}: condition {err[0]} at {err[1]}")
        return v
    try:
        v = bb.vector_from_json(data)
    except ValueError as e:
        raise CliError(f"invalid bracket vector {data}: {e}") from e
    w = bb.violation(v, n) if len(v) == n else ("length", len(v))
    if w is not None:
        raise CliError(f"invalid bracket vector {data}: condition {w[0]} at {w[1]}")
    return v


def _parse_s(args, n: int) -> frozenset:
    if args.type != "bds":
        if getattr(args, "s", None):
            raise CliError("--s is only allowed with --type bds")
        return frozenset()
    raw = getattr(args, "s", None) or ""
    try:
        s = frozenset(int(x) for x in raw.split(",") if x.strip())
    except ValueError as e:
        raise CliError(f"bad --s value {raw!r}: {e}") from e
    if any(not 1 <= i <= n for i in s):
        raise CliError(f"--s entries must lie in [1, {n}]")
    return s


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _vec_str(v) -> str:
    return "(" + ",".join("inf" if x == INF else str(x) for x in v) + ")"


def _label_str(lab) -> str:
    i, t = lab
    return f"W{i},{'inf' if t == INF else t}"


def cmd_count(args) -> int:
    s = _parse_s(args, args.n)
    _emit(args, str(vfy.count_elements(args.type, args.n, s)))
    return 0


def cmd_enumerate(args) -> int:
    s = _parse_s(args, args.n)
    if args.type == "a":
        vecs = ta.enumerate_a(args.n)
        rows = [list(v) for v in vecs]
    else:
        vecs = (
            bb.enumerate_vectors(args.n)
            if args.type == "b"
            else list(sh.lattice_elements(args.n, s))
        )
        rows = [bb.vector_to_json(v) for v in vecs]
    if args.format == "csv":
        _emit(args, "\n".join(",".join(str(x) for x in r) for r in rows))
    else:
        _emit(args, "\n".join(json.dumps(r) for r in rows))
    return 0


def cmd_encode(args) -> int:
    data = _parse_json(args.triangulation, "triangulation")
    try:
        if args.type == "a":
            t = ta.TriangulationA.from_json(data)
            _emit(args, json.dumps(list(ta.encode_a(t))))
        else:
            from .tri_b import TriangulationB

            t = TriangulationB.from_json(data)
            _emit(args, json.dumps(bb.vector_to_json(bb.encode(t))))
    except ValueError as e:
        raise CliError(f"invalid triangulation: {e}") from e
    return 0


def cmd_decode(args) -> int:
    v = _parse_vector(args.vector, args.type, args.n)
    if args.type == "a":
        _emit(args, json.dumps(ta.decode_a(v, args.n).to_json()))
    else:
        _emit(args, json.dumps(bb.decode(v, args.n).to_json()))
    return 0


def cmd_meet_join(args, op: str) -> int:
    s = _parse_s(args, args.n)
    a = _parse_vector(args.vector, args.type, args.n)
    b = _parse_vector(args.other, args.type, args.n)
    if args.type == "a":
        r = ta.meet_a(a, b, args.n) if op == "meet" else ta.join_a(a, b, args.n)
        _emit(args, json.dumps(list(r)))
        return 0
    try:
        if args.type == "bds":
            r = q.meet_s(a, b, s, args.n) if op == "meet" else q.join_s(a, b, s, args.n)
        else:
            r = bb.meet(a, b, args.n) if op == "meet" else bb.join(a, b, args.n)
    except ValueError as e:
        raise CliError(str(e)) from e
    _emit(args, json.dumps(bb.vector_to_json(r)))
    return 0


def cmd_covers(args) -> int:
    s = _parse_s(args, args.n)
    a = _parse_vector(args.vector, args.type, args.n)
    if args.other is not None:
        b = _parse_vector(args.other, args.type, args.n)
        try:
            if args.type == "a":
                result = ta.covers_a(a, b, args.n)
            elif args.type == "bds":
                result = q.covers_s(a, b, s, args.n)
            else:
                result = bb.covers(a, b, args.n)
        except ValueError as e:
            raise CliError(str(e)) from e
        _emit(args, json.dumps(result))
        return 0
    if args.type == "a":
        ups = [w for w in ta.enumerate_a(args.n) if ta.covers_a(a, w, args.n)]
        _emit(args, "\n".join(json.dumps(list(w)) for w in ups))
    else:
        try:
            ups = (
                q.upper_covers_s(a, s, args.n)
                if args.type == "bds"
                else bb.upper_covers(a, args.n)
            )
        except ValueError as e:
            raise CliError(str(e)) from e
        _emit(args, "\n".join(json.dumps(bb.vector_to_json(w)) for w in ups))
    return 0


def cmd_psi(args) -> int:
    v = _parse_vector(args.vector, args.type, args.n)
    if args.type == "a":
        p = ta.psi_a(ta.decode_a(v, args.n))
        _emit(args, json.dumps(ta.partition_a_to_json(p)))
    else:
        _emit(args, json.dumps(nc.psi(bb.decode(v, args.n)).to_json()))
    return 0


def cmd_psi_inv(args) -> int:
    if args.type == "a":
        raise CliError("psi-inv is implemented for types b and bds only")
    data = _parse_json(args.partition, "partition")
    try:
        p = nc.NoncrossingPartitionB.from_json(data)
        t = nc.psi_inverse(p)
    except ValueError as e:
        raise CliError(f"invalid partition: {e}") from e
    _emit(
        args,
        json.dumps(
            {"vector": bb.vector_to_json(bb.encode(t)), "triangulation": t.to_json()}
        ),
    )
    return 0


def cmd_mobius(args) -> int:
    s = _parse_s(args, args.n)
    if args.type == "a":
        raise CliError("mobius is implemented for types b and bds only")
    y = _parse_vector(args.vector, args.type, args.n)
    z = _parse_vector(args.other, args.type, args.n)
    if args.type == "bds":
        for v in (y, z):
            if not q.vector_in_tns(v, args.n, s):
                raise CliError(f"{bb.vector_to_json(v)} is not in T_n^S for s={sorted(s)}")
    if not bb.leq(y, z):
        raise CliError("first vector must be below the second")
    mu = sh.mobius(y, z, args.n, s)
    h = sh.interval_homotopy(y, z, args.n, s)
    _emit(
        args,
        json.dumps(
            {
                "interval": [bb.vector_to_json(y), bb.vector_to_json(z)],
                "mobius": mu,
                "homotopy": "contractible" if h[0] == "contractible" else f"sphere({h[1]})",
            }
        ),
    )
    return 0


def cmd_hasse(args) -> int:
    s = _parse_s(args, args.n)
    if args.n > args.max_n_unsafe:
        raise CliError(
            f"n={args.n} exceeds the cap {args.max_n_unsafe}; pass --max-n-unsafe to override"
        )
    if args.type == "a":
        vecs = sorted(ta.enumerate_a(args.n))
        edges = [
            (a, b, None) for a in vecs for b in vecs if ta.covers_a(a, b, args.n)
        ]
    else:
        vecs = sorted(sh.lattice_elements(args.n, s))
        edges = []
        for a in vecs:
            ups = (
                q.upper_covers_s(a, s, args.n)
                if args.type == "bds"
                else bb.upper_covers(a, args.n)
            )
            for b in sorted(ups):
                edges.append((a, b, sh.el_label(a, b, args.n, s)))
    edges.sort(key=lambda e: (e[0], e[1]))
    if args.format == "dot":
        lines = ["digraph hasse {", "  rankdir=BT;"]
        for v in vecs:
            lines.append(f'  "{_vec_str(v)}";')
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
            "nodes": [list(v) if args.type == "a" else bb.vector_to_json(v) for v in vecs],
            "edges": [
                {
                    "from": list(a) if args.type == "a" else bb.vector_to_json(a),
                    "to": list(b) if args.type == "a" else bb.vector_to_json(b),
                    **({"label": _label_str(lab)} if lab is not None else {}),
                }
                for a, b, lab in edges
            ],
        }
        _emit(args, json.dumps(payload))
    return 0


def cmd_verify(args) -> int:
    s = _parse_s(args, args.n)
    if args.suite not in vfy.SUITES:
        raise CliError(f"unknown suite {args.suite!r}; choose from {', '.join(vfy.SUITES)}")
    if args.suite in ("leftmod", "el", "congruence") and args.type == "a":
        raise CliError(f"suite {args.suite} applies to types b and bds only")
    if args.suite == "el" and args.n > args.max_n_unsafe:
        raise CliError(
            f"n={args.n} exceeds the cap {args.max_n_unsafe}; pass --max-n-unsafe to override"
        )
    report = vfy.run_suite(args.suite, args.type, args.n, s)
    _emit(args, json.dumps(report, default=str))
    return 0 if report["passed"] else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    args = build_parser().parse_args(argv)
    if getattr(args, "n", 1) < 1:
        print("error: --n must be at least 1", file=sys.stderr)
        return 1
    handlers = {
        "count": cmd_count,
        "enumerate": cmd_enumerate,
        "encode": cmd_encode,
        "decode": cmd_decode,
        "meet": lambda a: cmd_meet_join(a, "meet"),
        "join": lambda a: cmd_meet_join(a, "join"),
        "covers": cmd_covers,
        "psi": cmd_psi,
        "psi-inv": cmd_psi_inv,
        "mobius": cmd_mobius,
        "hasse": cmd_hasse,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    raise SystemExit(main())
