#!/usr/bin/env python3
"""Re-measure the rows of ROADMAP.md's baseline table.

    python3 perfbench/baseline.py [--seed N]

Prints one markdown row per ROADMAP row: the layer, the operation and a
median measured on seeded vectors from `gen`.
Rows whose cost is minutes (psi_inverse at n=16) are not re-measured.
The output is pasted into perfbench/README.md; it is not part of a
benchmark run.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import subprocess
import sys
import time
from math import inf as INF
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
from tamari import bracket_b as bb  # noqa: E402
from tamari import noncross as nc  # noqa: E402
from tamari import shelling as sh  # noqa: E402
from tamari import tamari_a as ta  # noqa: E402
from tamari import tri_b, verify  # noqa: E402
from tamari.oracle import FinitePoset  # noqa: E402


def timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def med(fn, inputs) -> float:
    return statistics.median(timed(fn, *a) for a in inputs)


def cli(*argv) -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "tamari", *argv], env=env, check=True,
                   capture_output=True)
    return time.perf_counter() - t0


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    rng = random.Random(ap.parse_args().seed)

    def vecs(n, k):
        return [gen.sample_vector(n, rng) for _ in range(k)]

    rows = []

    def row(layer, op, here):
        rows.append((layer, op, here))

    for n, k in ((6, 200), (100, 20)):
        vs = vecs(n, k + 1)
        pairs = [(a, b, n) for a, b in zip(vs, vs[1:])]
        row("L0", f"`meet` / `join`, n={n}", "%.3g / %.3g ms" % (
            1e3 * med(bb.meet, pairs), 1e3 * med(bb.join, pairs)))
    for n, k in ((6, 50), (100, 5)):
        row("L0", f"`upper_covers`, n={n}", "%.3g ms" % (
            1e3 * med(bb.upper_covers, [(v, n) for v in vecs(n, k)])))
    for n, k in ((6, 50), (100, 10)):
        row("L1", f"`decode`, n={n}", "%.3g ms" % (1e3 * med(bb.decode, [(v, n) for v in vecs(n, k)])))
    for n, k in ((6, 50), (12, 40)):
        ps = [(nc.psi(bb.decode(v, n)),) for v in vecs(n, k)]
        ts = [timed(nc.psi_inverse, *p) for p in ps]
        row("L1", f"`psi_inverse`, random, n={n}",
            "median %.3g ms, mean %.3g ms" % (1e3 * statistics.median(ts), 1e3 * statistics.mean(ts)))
    for n in (8, 12):
        top = nc.psi(bb.decode((INF,) * n, n))
        row("L1", f"`psi_inverse(top)`, n={n}", "%.3g s" % timed(nc.psi_inverse, top))
    for n in (8, 10):
        row("L2", f"`enumerate_vectors`, n={n}", "%.3g s" % timed(bb.enumerate_vectors, n))
    for n in (7, 8):
        row("L2", f"`enumerate_a`, n={n}", "%.3g s" % timed(ta.enumerate_a, n))
    row("L2", "`enumerate_triangulations`, n=7", "%.3g s" % timed(tri_b.enumerate_triangulations, 7))
    elems = bb.enumerate_vectors(6)
    t0 = time.perf_counter()
    po = FinitePoset.build(elems, bb.leq)
    t1 = time.perf_counter()
    po.all_meets()
    t2 = time.perf_counter()
    row("L3", "`FinitePoset.build` / `all_meets`, n=6", "%.3g / %.3g s" % (t1 - t0, t2 - t1))
    for n in (4, 5):
        sh.lattice_elements.cache_clear()
        row("L4", f"`verify_el`, n={n}", "%.3g s" % timed(sh.verify_el, n))
    sh.lattice_elements.cache_clear()
    row("L4", "`suite_lattice(\"b\", 6)` / `suite_bijection(\"b\", 6)`", "%.3g / %.3g s" % (
        timed(verify.suite_lattice, "b", 6), timed(verify.suite_bijection, "b", 6)))
    row("L5", "CLI `count --n 3` / `join --n 3`", "%.3g / %.3g s" % (
        statistics.median(cli("count", "--n", "3") for _ in range(5)),
        statistics.median(cli("join", "--n", "3", "--vector", "[0,1,0]", "--other", "[0,0,1]")
                          for _ in range(5))))
    row("L5", "`tamari count --type a --n 9`", "%.3g s" % cli("count", "--type", "a", "--n", "9"))
    for layer, op, here in rows:
        print(f"| {layer} | {op} | {here} |")


if __name__ == "__main__":
    main()
