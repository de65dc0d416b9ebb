#!/usr/bin/env python3
"""Benchmark of the tamari library and CLI.

    python3 perfbench/run.py --workload {verify,frontier,query,cli} \
        --seed N --seconds S --trace {0,1} [--tiny]

Run from the root of a source checkout: the package is imported from
`src/`.  The workload's inputs are generated from --seed during set-up.
Repetitions of the workload's fixed operation list run until the next one
would end after --seconds; every operation is checked for correctness off
the timed path.  Human-readable lines go first; the last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half of
--seconds untraced and half with the package's public functions wrapped
from outside (see tracer.py), reports the per-layer metrics and the tracing
overhead, and writes the spans to perfbench/out/.  See perfbench/README.md
for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# An operation that runs longer than this is stopped and counted as failed.
# The slowest operations of the seed are the frontier suite (~22 s) and the
# top-element psi_inverse at n=12 (~3.6 s).
OP_CAP_S = 60.0
# Tracing wraps every public function and can double an operation's time.
TRACED_CAP_S = 2 * OP_CAP_S
# No operation runs later than this after measurement begins (the traced
# frontier run, untraced then traced, needs 75-110 s as the host's speed
# drifts), so with a set-up of a few seconds a run ends within 180 s even
# when every operation hits the cap.
DEADLINE_S = 145.0
# Set-up (imports, input generation, warm-up) is repeated this many times.
SETUP_ROUNDS = 3
# A percentile is reported as the tail only with this many samples beyond it.
TAIL_BEYOND = 10


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation that exceeded its cap."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TAMARI_SEED"] = str(seed)
    return env


# -- timing one operation ------------------------------------------------------


def run_op(op, cap: float, env: dict, tracer=None, child_trace=None):
    """Run one operation under a wall-clock cap: (latency_s, result, problem)."""
    if cap <= 0:
        return 0.0, None, "not run: the run's deadline had passed"
    if op.argv is not None:
        argv = [sys.executable]
        if child_trace is None:
            argv += ["-m", "tamari"]
        else:
            argv += [str(HERE / "trace_child.py"), str(child_trace)]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv + op.argv, env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=cap)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, None, f"exceeded the {cap:.0f} s cap"
        dt = time.perf_counter() - t0
        return dt, (proc.returncode, proc.stdout), None
    call = op.call if tracer is None else (lambda: tracer.span(f"bench.{op.kind}", op.call))
    signal.setitimer(signal.ITIMER_REAL, cap)
    t0 = time.perf_counter()
    try:
        out = call()
        dt = time.perf_counter() - t0
    except OpTimeout:
        return time.perf_counter() - t0, None, f"exceeded the {cap:.0f} s cap"
    except Exception as e:  # noqa: BLE001 - any library error is a failed operation
        return time.perf_counter() - t0, None, f"raised {e!r}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return dt, out, None


class Tally:
    """Per-operation latencies, per-repetition walls and failures."""

    def __init__(self):
        self.samples: list[tuple[str, float]] = []
        self.rep_walls: list[float] = []
        self.attempted = 0
        self.problems: list[str] = []


def measure(workload, seconds: float, deadline: float, env: dict, tracer=None,
            child_trace=None, merge_child=None) -> Tally:
    """Repeat the workload's operation list for about `seconds` seconds.

    After the first repetition, the run stops before an operation that
    would end after `seconds` if it took as long as the slowest of its kind
    so far, so the last repetition may be partial: its operations count as
    samples, its wall does not."""
    tally = Tally()
    kinds: dict[str, list[float]] = {}
    op_cap = TRACED_CAP_S if tracer is not None or child_trace is not None else OP_CAP_S
    start = time.perf_counter()
    k = 0
    while True:
        workload.before_rep()
        wall = 0.0
        for op in workload.rep_ops(k):
            elapsed = time.perf_counter() - start
            if tally.rep_walls and elapsed + max(kinds.get(op.kind, [0.0])) > seconds:
                return tally
            cap = min(op_cap, deadline - time.perf_counter())
            dt, out, problem = run_op(op, cap, env, tracer, child_trace)
            if merge_child is not None and problem is None:
                merge_child()
            wall += dt
            tally.attempted += 1
            tally.samples.append((op.kind, dt))
            kinds.setdefault(op.kind, []).append(dt)
            if problem is None:
                with tracer.paused() if tracer else nullcontext():
                    problem = op.check(out)
            if problem is not None:
                tally.problems.append(f"{op.kind}: {problem}")
        tally.rep_walls.append(wall)
        k += 1
        if time.perf_counter() > deadline:
            return tally


# -- statistics ------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with
    TAIL_BEYOND samples above it.  With 2 * TAIL_BEYOND samples or fewer
    that percentile would sit below the median, so the median is reported."""
    xs = sorted(values)
    if len(xs) <= 2 * TAIL_BEYOND:
        return statistics.median(xs), 50.0, len(xs) // 2
    k = len(xs) - 1 - TAIL_BEYOND
    return xs[k], 100.0 * (k + 1) / len(xs), TAIL_BEYOND


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def time_child_import(env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import tamari"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


# -- set-up ----------------------------------------------------------------------------


def setup(name: str, seed: int, tiny: bool, env: dict):
    """Build the workload SETUP_ROUNDS times; return it with timings and problems."""
    import workloads

    rounds, imports, problems = [], [], []
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        imports.append(time_child_import(env))
        wl = workloads.BUILDERS[name](seed, tiny)
        wl.before_rep()
        for op in wl.warm:
            _, out, problem = run_op(op, OP_CAP_S, env)
            problem = problem or op.check(out)
            if problem is not None:
                problems.append(f"warm-up {op.kind}: {problem}")
        rounds.append(time.perf_counter() - t0)
    return wl, rounds, imports, problems


# -- reporting ------------------------------------------------------------------------


def end_to_end(wl, tally: Tally, setup_rounds: list[float]) -> dict:
    name = wl.name
    kinds: dict[str, list] = {}
    for kind, dt in tally.samples:
        kinds.setdefault(kind, []).append(dt)
    if wl.plan_is_one_operation:
        # One pass of the plan, from each suite's median over the run.
        wall = sum(statistics.median(ds) for ds in kinds.values())
        lat = [wall]
    else:
        wall = statistics.median(tally.rep_walls)
        lat = [dt for _, dt in tally.samples]
    tail_s, pct, beyond = tail(lat)
    values = {
        "setup_s": statistics.median(setup_rounds),
        "wall_s": wall,
        "p50_ms": 1e3 * statistics.median(lat),
        "tail_ms": 1e3 * tail_s,
        "peak_rss_mb": peak_rss_mb(children=name == "cli"),
    }
    print("# repetition walls: " + ", ".join(f"{w:.4g} s" for w in tally.rep_walls))
    print(f"# {name}: {len(tally.rep_walls)} whole repetitions, {len(tally.samples)} operations; "
          f"tail_ms is p{pct:.1f} with {beyond} of {len(lat)} samples beyond it")
    print("# p50 by operation: " + ", ".join(
        f"{k} {1e3 * statistics.median(ds):.4g} ms ({len(ds)})" for k, ds in kinds.items()))
    return values


def per_layer(wl, snap, untraced: Tally, traced: Tally, imports) -> dict:
    import workloads

    stats = snap["stats"]
    edges = {(p, c): k for p, c, k in snap["edges"]}

    def calls(span):
        return float(stats.get(span, (0,))[0])

    def self_s(span):
        return stats.get(span, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    def pct_ms(span, which):
        ds = snap["durations"].get(span) or [0.0]
        return 1e3 * (statistics.median(ds) if which == "p50" else tail(ds)[0])

    def child_calls(parent, child):
        return float(edges.get((parent, child), 0))

    m = {}
    m["oracle.init.self_s"] = self_s("oracle.init")
    for meth in ("build", "all_meets", "all_joins", "mobius"):
        m[f"oracle.{meth}.self_s"] = self_s(f"oracle.{meth}")
    m["oracle.build.pred_calls"] = sum(  # every traced call made by build but cls(...)
        float(k) for (p, c), k in edges.items() if p == "oracle.build" and c != "oracle.init"
    )
    for fn in ("violation", "leq", "up", "down"):
        m[f"bracket_b.{fn}.calls"] = calls(f"bracket_b.{fn}")
    for fn in ("violation", "meet", "join", "enumerate_vectors", "upper_covers", "covers",
               "decode", "encode"):
        m[f"bracket_b.{fn}.self_s"] = self_s(f"bracket_b.{fn}")
    m["bracket_b.upper_covers.p50_ms"] = pct_ms("bracket_b.upper_covers", "p50")
    m["tri_b.from_red_set.self_s"] = self_s("tri_b.from_red_set")
    m["tri_b.c_i.calls"] = calls("tri_b.c_i")
    m["tri_b.covers_by_flip.self_s"] = self_s("tri_b.covers_by_flip")
    m["polygon.crosses.calls"] = calls("polygon.crosses")
    for fn in ("psi", "psi_inverse", "enumerate_ncb"):
        m[f"noncross.{fn}.self_s"] = self_s(f"noncross.{fn}")
    m["noncross.psi_inverse.p50_ms"] = pct_ms("noncross.psi_inverse", "p50")
    m["noncross.psi_inverse.tail_ms"] = pct_ms("noncross.psi_inverse", "tail")
    m["noncross.psi_per_inverse"] = ratio(
        child_calls("noncross.psi_inverse", "noncross.psi"), calls("noncross.psi_inverse")
    )
    for fn in ("meet_s", "join_s", "upper_covers_s", "covers_s"):
        m[f"quotient_bds.{fn}.self_s"] = self_s(f"quotient_bds.{fn}")
    m["quotient_bds.project.calls"] = calls("quotient_bds.project")
    for fn in ("verify_el", "decreasing_chains", "decreasing_chain_build", "is_left_modular"):
        m[f"shelling.{fn}.self_s"] = self_s(f"shelling.{fn}")
    m["shelling.el_label.calls"] = calls("shelling.el_label")
    m["shelling.lattice_elements.hit_ratio"] = ratio(wl.lru_hits, wl.lru_hits + wl.lru_misses)
    for fn in ("enumerate_a", "meet_a", "join_a"):
        m[f"tamari_a.{fn}.self_s"] = self_s(f"tamari_a.{fn}")
    m["tamari_a.enumerate_a.yield_ratio"] = ratio(
        snap["items"].get("tamari_a.enumerate_a", 0),
        child_calls("tamari_a.enumerate_a", "tamari_a.is_valid_a"),
    )
    for suite in ("lattice", "covers", "bijection", "leftmod", "el", "congruence"):
        m[f"verify.{suite}.self_s"] = self_s(f"verify.suite_{suite}")
    m["cli.import_s"] = statistics.median(imports)
    for kind in workloads.CLI_KINDS:
        ds = [dt for k, dt in untraced.samples if k == kind] if wl.name == "cli" else []
        m[f"cli.{kind}.p50_ms"] = 1e3 * statistics.median(ds or [0.0])
    m["trace.untraced_wall_s"] = statistics.median(untraced.rep_walls)
    m["trace.wall_s"] = statistics.median(traced.rep_walls)
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    m["trace.overhead_frac"] = ratio(m["trace.overhead_s"], m["trace.untraced_wall_s"])
    return m


# -- main --------------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("verify", "frontier", "query", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small sizes, for the self-test")
    args = ap.parse_args(argv)

    if not (SRC / "tamari" / "__init__.py").is_file():
        print(f"error: no tamari package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    os.environ["TAMARI_SEED"] = str(args.seed)  # the sampled triples in suite_lattice
    env = child_env(args.seed)
    signal.signal(signal.SIGALRM, _on_alarm)

    import tamari  # noqa: F401 - the first import is not part of a set-up round

    wl, setup_rounds, imports, problems = setup(args.workload, args.seed, args.tiny, env)
    start = time.perf_counter()
    deadline = start + DEADLINE_S

    if not args.trace:
        tally = measure(wl, args.seconds, deadline, env)
        metrics = end_to_end(wl, tally, setup_rounds)
        kind = "end_to_end"
    else:
        untraced, traced, snap = traced_run(wl, args, deadline, env)
        tally = traced
        tally.attempted += untraced.attempted
        tally.problems += untraced.problems
        metrics = per_layer(wl, snap, untraced, traced, imports)
        kind = "per_layer"
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                    "metrics": metrics, **snap}))
        print(f"# spans and aggregates written to {path.relative_to(ROOT)}")

    attempted = tally.attempted + len(wl.warm) * SETUP_ROUNDS
    problems += tally.problems
    failed = len(problems)
    for p in problems[:20]:
        print(f"# FAILED {p}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit = {m["name"]: m["unit"] for m in spec[kind]}
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit.get(name, '')}")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted} operations, warm-up included)")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit.get(k, "")} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_run(wl, args, deadline: float, env: dict):
    """Half the time untraced, half traced; at least one repetition each."""
    from tracer import Tracer, merge

    untraced = measure(wl, args.seconds / 2, deadline, env)
    wl.before_rep()
    wl.lru_hits = wl.lru_misses = 0  # count the traced repetitions only
    tracer = Tracer()
    snap = tracer.snapshot()
    if wl.name == "cli":
        OUT.mkdir(exist_ok=True)
        child_file = OUT / "child-trace.json"

        def merge_child():
            if child_file.exists():
                data = json.loads(child_file.read_text())
                wl.lru_hits += data.pop("lru_hits")
                wl.lru_misses += data.pop("lru_misses")
                merge(snap, data)
                child_file.unlink()

        traced = measure(wl, args.seconds / 2, deadline, env, child_trace=child_file,
                         merge_child=merge_child)
    else:
        tracer.install()
        try:
            traced = measure(wl, args.seconds / 2, deadline, env, tracer=tracer)
        finally:
            tracer.uninstall()
        wl.before_rep()  # collects the last repetition's cache counts
        snap = tracer.snapshot()
    return untraced, traced, snap


if __name__ == "__main__":
    sys.exit(main())
