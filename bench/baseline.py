"""Reproduce the baseline table of ROADMAP.md with the benchmark's generators.

    python3 bench/baseline.py --out bench/baseline.json

Times library calls in-process, as the table does: ``exhaustive_search`` at
(4, 9) serially and with two jobs and at (3, 7); ``FinInstance`` build plus
``divide`` on random-shape instances of 1e5 and 1e4 labels; and CLI start-up
as the wall time of a fresh ``python -m div2 act r 5``.  Each row is the
median of several repeats; the file records the core count and the Python
version next to the table's figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import run

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from div2.divider import FinInstance, divide  # noqa: E402
from div2.localrules import exhaustive_search  # noqa: E402

# The table in ROADMAP.md, in seconds.
TABLE = {
    "search_4_9_serial_s": 10.8,
    "search_4_9_jobs2_s": 9.2,
    "search_3_7_s": 0.54,
    "build_1e5_s": 0.78,
    "divide_1e5_s": 3.77,
    "build_1e4_s": 0.07,
    "divide_1e4_s": 0.32,
    "cli_startup_s": 0.23,
}


def _search(key: str, w: int, d: int, jobs: int):
    def case() -> dict:
        t0 = time.perf_counter()
        exhaustive_search(w, d, jobs=jobs)
        return {key: time.perf_counter() - t0}
    return case


def _divide(tag: str, inst: dict):
    def case() -> dict:
        t0 = time.perf_counter()
        built = FinInstance.from_json(inst)
        t1 = time.perf_counter()
        divide(built)
        return {f"build_{tag}_s": t1 - t0, f"divide_{tag}_s": time.perf_counter() - t1}
    return case


def _startup():
    env = run.setup_env()
    cmd = [sys.executable, "-m", "div2", "act", "r", "5"]
    subprocess.run(cmd, env=env, check=True, capture_output=True)  # writes the bytecode caches

    def case() -> dict:
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, capture_output=True)
        return {"cli_startup_s": time.perf_counter() - t0}
    return case


def measure(repeats: int) -> dict:
    """Samples per row; the cases take turns, so a change of machine speed
    during the measurement touches every row alike."""
    rng = random.Random("baseline")
    cases = [_search("search_4_9_serial_s", 4, 9, 1), _search("search_4_9_jobs2_s", 4, 9, 2),
             _search("search_3_7_s", 3, 7, 1),
             _divide("1e5", gen.random_instance(rng, 100_000)), _divide("1e4", gen.random_instance(rng, 10_000)),
             _startup()]
    gc.collect()
    gc.freeze()  # the generated inputs stay alive; keep them out of the timed collections
    rows = {}
    for _ in range(repeats):
        for case in cases:
            for key, t in case().items():
                rows.setdefault(key, []).append(t)
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", help="write the result as JSON here")
    args = ap.parse_args()
    rows = measure(args.repeats)
    result = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "repeats": args.repeats,
        "rows": {key: {"median_s": statistics.median(v), "min_s": min(v), "max_s": max(v),
                       "roadmap_s": TABLE[key], "ratio_to_roadmap": statistics.median(v) / TABLE[key]}
                 for key, v in rows.items()},
    }
    for key, row in result["rows"].items():
        print(f"{key:22s} median {row['median_s']:8.3f} s [{row['min_s']:.3f}, {row['max_s']:.3f}] "
              f"(table {row['roadmap_s']:6.2f} s, x{row['ratio_to_roadmap']:.2f})")
    print(f"cores {result['cores']}, python {result['python']}")
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
