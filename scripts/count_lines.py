#!/usr/bin/env python3
"""Print the counted lines of the package and of the tests.

    python3 scripts/count_lines.py [ROOT]

A counted line is a non-blank line that does not start with `#` once its
indentation is stripped; docstrings count.  It prints one line per
`src/tamari/*.py` and `tests/*.py` file, then the totals of `src/tamari`,
`tests/` and both together.  ROOT is the checkout to count (this one by
default), so a parent checkout can be counted the same way.
"""

import sys
from pathlib import Path

DIRS = ("src/tamari", "tests")


def counted(path: Path) -> int:
    lines = (line.strip() for line in path.read_text().splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    totals = {}
    for d in DIRS:
        files = sorted((root / d).glob("*.py"))
        for f in files:
            print(f"{counted(f):6d}  {d}/{f.name}")
        totals[d] = sum(counted(f) for f in files)
    for d, total in totals.items():
        print(f"{total:6d}  {d} total")
    print(f"{sum(totals.values()):6d}  {' + '.join(DIRS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
