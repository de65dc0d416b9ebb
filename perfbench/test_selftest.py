"""Self-test of the benchmark at tiny sizes: schema and correctness only.

    python3 -m pytest perfbench -q

No timing is gated here.  Each workload runs briefly with and without
tracing; the last stdout line must carry exactly the metrics that
BENCHMARK.json declares, and every operation must pass its check.
"""

from __future__ import annotations

import json
import math
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import gen  # noqa: E402


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60 and 2 <= len(SPEC["workloads"]) <= 8
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    for key in ("end_to_end", "per_layer"):
        for m in SPEC[key]:
            assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_declared_metrics(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    elif workload != "cli":
        assert all(v["value"] == 0 for k, v in result["metrics"].items()
                   if k.startswith("cli.") and k != "cli.import_s")


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("query", 0, cwd=tmp_path)
    assert proc.returncode != 0 and "correct" not in proc.stdout


def test_generator_counts_and_validity():
    from tamari import bracket_b

    for n in range(1, 7):
        assert len(gen.all_vectors(n)) == math.comb(2 * n, n)
    rng = random.Random(0)
    for n in (1, 2, 7, 30):
        for _ in range(20):
            v = gen.sample_vector(n, rng)
            assert gen.is_valid(v, n) and bracket_b.is_valid(v, n)
            w = gen.random_cover(v, n, rng)
            assert w is None or bracket_b.covers(v, w, n)
