"""bootforge benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload boot --seed 1 --seconds 55 --trace 0

Run from the repository root.  See perfbench/README.md for the workloads,
the metrics and how to read a result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    """Import bootforge from this checkout's src/, never from elsewhere."""
    package = SRC / "bootforge"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import bootforge

    if Path(bootforge.__file__).resolve().parent != package.resolve():
        sys.exit("error: imported bootforge from outside this checkout")
    import harness

    return harness.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
