"""Write ``bench/expected/``: the scan oracle's outputs for seeds 42 and 7.

    python bench/make_expected.py

``bench/run.py`` reads these instead of running the oracle for those two
seeds.  Each file records the parameters it was made with; a workload whose
parameters changed no longer matches and falls back to a fresh oracle run,
so rerun this script after changing ``WORKLOADS``.
"""

from __future__ import annotations

import sys

from run import BENCH, WORKLOADS, BenchError, compute_oracle, oracle_key, preflight, write_expected

SEEDS = (42, 7)


def main() -> int:
    try:
        preflight()
        for seed in SEEDS:
            for name in WORKLOADS:
                key = oracle_key(name, seed, smoke=False)
                path = BENCH / "expected" / f"{name}-s{seed}.json"
                write_expected(path, key, compute_oracle(key))
                print(f"wrote {path.relative_to(BENCH.parent)}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
