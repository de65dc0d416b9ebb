#!/usr/bin/env python3
"""Record benchmark runs in BENCH_<label>*.json at the repository root.

    python3 scripts/bench_record.py --label L [--seeds 101 102 ...] [--parent DIR]

For each seed and each workload that BENCHMARK.json declares, it runs
`perfbench/run.py --workload W --seed S --seconds T` in this repository,
with T the declared run_seconds, and keeps the final JSON line of each run
in BENCH_<label>.json.  The file also holds the seeds, `git rev-parse HEAD`,
whether the checkout has uncommitted changes, and a one-line host note.

With --parent DIR (a checkout of the parent commit) it runs both trees, all
workloads of one tree and then of the other for each seed, flipping which
tree goes first from seed to seed, and writes BENCH_<label>_parent.json and
BENCH_<label>_change.json.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def host_note() -> str:
    cpu = platform.processor() or platform.machine()
    return (f"{platform.system()} {platform.release()}, {cpu}, {os.cpu_count()} CPUs, "
            f"Python {platform.python_version()}")


def git(tree: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=tree, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{tree} {workload} seed {seed} exited {out.returncode}: "
                         f"{out.stderr.strip()}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[101])
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit to run as well")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = [(f"{args.label}_parent", args.parent.resolve()), (f"{args.label}_change", ROOT)] \
        if args.parent else [(args.label, ROOT)]
    records = {
        label: {"label": label, "head": git(tree, "rev-parse", "HEAD"),
                "uncommitted_changes": bool(git(tree, "status", "--porcelain")),
                "host": host_note(), "seeds": args.seeds, "runs": []}
        for label, tree in sides
    }
    for turn, seed in enumerate(args.seeds):
        for label, tree in sides if turn % 2 == 0 else sides[::-1]:
            for workload in (w["name"] for w in spec["workloads"]):
                result = run_once(tree, workload, seed, spec["run_seconds"])
                records[label]["runs"].append(
                    {"workload": workload, "seed": seed, "result": result})
                wall = result["metrics"].get("wall_s", {}).get("value")
                print(f"{label} {workload} seed {seed}: wall_s {wall}, "
                      f"failed {result['failed']}", flush=True)
    for label, record in records.items():
        (ROOT / f"BENCH_{label}.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
