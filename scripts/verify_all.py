#!/usr/bin/env python3
"""Run every verification suite across a range of sizes and report.

Exits nonzero if any suite fails.  The congruence suite is expected to
fail on the meet direction for exactly the S that contain some k < n
(checked for n <= 5): that is a documented erratum in the source material
(see README), reported here unfiltered.
"""

import argparse
import itertools
import sys

from tamari import verify as vfy
from tamari.kinds import lattice_kind


def subsets(n):
    for r in range(n + 1):
        yield from (tuple(c) for c in itertools.combinations(range(1, n + 1), r))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=3)
    ap.add_argument("--max-n-counts", type=int, default=6)
    args = ap.parse_args()

    failed = 0
    for n in range(1, args.max_n_counts + 1):
        rep = vfy.triple_count_check(n)
        print(f"counts      n={n}: {'ok' if rep['passed'] else 'FAIL'} ({rep['binomial']})")
        failed += not rep["passed"]

    for n in range(1, args.max_n + 1):
        for kind, slist in (("a", [()]), ("b", [()]), ("bds", list(subsets(n)))):
            for s in slist:
                lattice = lattice_kind(kind, n, s)
                for suite in lattice.suites:
                    rep = vfy.run_suite(suite, kind, n, s)
                    tag = f"{suite:<10} {lattice}"
                    if rep["passed"]:
                        print(f"{tag}: ok ({rep['checked']} checks)")
                    else:
                        failed += 1
                        head = rep["failures"][0] if rep["failures"] else ""
                        print(f"{tag}: FAIL ({len(rep['failures'])} failures; first: {head})")
    print()
    print(f"{failed} suite runs failed" if failed else "all suite runs passed")
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
