"""Rewrite the golden outputs that ``tests/test_golden.py`` compares with.

Runs the golden commands (see that test's docstring) in a temporary
directory and writes what they produced as JSON:

    python3 tools/golden.py                  # rewrites tests/golden/seed1.json
    python3 tools/golden.py --seed 2 --out /tmp/seed2.json

A change that moves outputs on purpose rewrites the file in the same change
and names every field that moved.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from test_golden import GOLDEN, golden_run  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=GOLDEN, help="JSON path (default: "
                        "the golden file)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        result = golden_run(tmp, args.seed)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
