"""div2 benchmark: one workload, end-to-end metrics or (with --trace 1) per-layer ones.

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Inputs are generated from the seed into ``bench/.work/`` before any timing,
set-up time is measured in fresh interpreters, and the ops run in a
separate measured process (``worker.py``) so that the generator's memory
does not reach ``peak_rss_mb``.  Human-readable lines come first; the last
stdout line is the JSON result.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170  # every run must end within 180 s
SETUP_LAUNCHES = 9

SETUP_CODE = (
    "import time, speed; chunk = speed.probe(); t = time.perf_counter(); "
    "import div2.cli as c; c.build_parser(); print(time.perf_counter() - t, chunk)"
)

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p99_ms": "ms"}
# The issue-level names each workload reports in its summary lines.
NAMED = {
    "divide-large": (("divide_p50_s", "divide", "s"), ("trace_p50_s", "trace", "s")),
    "search": (("search_serial_s", "search-serial", "s"), ("search_jobs2_s", "search-jobs2", "s"),
               ("search_small_s", "search-small", "s")),
    "cli-mix": (),
}
PER_LAYER_UNITS = {
    "cli.parse_ms": "ms", "cli.load_s": "s", "cli.emit_s": "s", "cli.self_s": "s",
    "divider.validate_s": "s", "divider.walk_s.random": "s", "divider.walk_s.blocked": "s",
    "divider.trace_s.random": "s", "divider.trace_s.blocked": "s", "divider.verify_s": "s",
    "divider.labels.random": "count", "divider.labels.blocked": "count",
    "divider.cycles.random": "count", "divider.cycles.blocked": "count",
    "divider.cycle_len_p50.random": "count", "divider.cycle_len_p50.blocked": "count",
    "divider.cycle_len_max.random": "count", "divider.cycle_len_max.blocked": "count",
    "localrules.enumerate_s": "s", "localrules.equivariance_s": "s", "localrules.probe_s": "s",
    "localrules.overhead_s": "s", "localrules.slice_max_over_mean": "ratio", "localrules.jobs2_excess_s": "s",
    "localrules.rules": "count", "localrules.collisions": "count", "localrules.gaps": "count",
    "localrules.witness_reach_max": "count", "localrules.equivariance_reject_ratio": "ratio",
    "localrules.lemma_ms": "ms", "localrules.parity_ms": "ms", "sequences.parse_ms": "ms",
    "dihedral.act_ms": "ms", "theta.eval_ms": "ms",
    "cli.defect_probes_failed": "count", "bench.absent_spans": "count", "bench.tracing_overhead_frac": "ratio",
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
    return env


def setup_env() -> dict:
    # users run from cached bytecode; keep the caches out of src/
    env = _env()
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(HERE / ".work" / "pycache")
    return env


def _run(cmd: list, timeout: float, env: dict | None = None) -> str:
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, env=env or _env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{Path(cmd[1]).name} timed out") from None
    finally:
        if proc.poll() is None:  # timed out or interrupted: stop the child and its pool
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}: {err.strip()[-2000:]}")
    return out


def setup_seconds(deadline: float) -> tuple:
    """Median time for a fresh interpreter to import div2.cli and build its parser.

    Returns the raw median and the median scaled to the reference speed,
    from a reference chunk timed in the same interpreter just before.
    """
    cmd, env = [sys.executable, "-c", SETUP_CODE], setup_env()
    _run(cmd, deadline - time.monotonic(), env)  # writes the bytecode caches
    raw, scaled = [], []
    for _ in range(SETUP_LAUNCHES):
        took, chunk = (float(v) for v in _run(cmd, deadline - time.monotonic(), env).split()[-2:])
        raw.append(took)
        scaled.append(took * speed.REF_S / chunk)
    return statistics.median(raw), statistics.median(scaled)


def _quantile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def e2e_metrics(res: dict, setup_s: float) -> dict:
    times = [r["n"] for r in res["records"]]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": res["peak_rss_mb"],
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1000 * statistics.median(times),
        "op_p99_ms": 1000 * _quantile(times, 99),
    }


def layer_metrics(res: dict) -> dict:
    out = dict(res["layers"])
    passes = res["passes"]
    for key in ("enumerate_s", "equivariance_s", "probe_s", "rules", "collisions", "gaps",
                "witness_reach_max", "equivariance_reject_ratio"):
        out[f"localrules.{key}"] = passes[key]
    swept = passes["enumerate_s"] + passes["equivariance_s"] + passes["probe_s"]
    serial_wall = out.pop("search_serial_wall")
    out["localrules.overhead_s"] = serial_wall - swept if swept else 0.0
    for shape in ("random", "blocked"):
        props = res["props"].get("shapes", {}).get(shape, {})
        for key in ("labels", "cycles", "cycle_len_p50", "cycle_len_max"):
            out[f"divider.{key}.{shape}"] = props.get(key, 0)
    out["cli.defect_probes_failed"] = len(res["defects"])
    out["bench.absent_spans"] = len(res["absent"]) + len(passes.get("absent", []))
    out["bench.tracing_overhead_frac"] = res["overhead"]
    return out


def summary(workload: str, res: dict, metrics: dict, units: dict) -> list:
    recs = res["records"]
    failed = sum(not r["ok"] for r in recs)
    lines = [f"workload {workload}: {len(recs)} ops in {res['wall']:.1f} s, "
             f"error_rate {failed / len(recs):.4f} ({failed} of {len(recs)} failed); "
             f"python {platform.python_version()}, {os.cpu_count()} cores"]
    for name, cls, unit in NAMED[workload]:
        raw = statistics.median(r["s"] for r in recs if r["cls"] == cls)
        scaled = statistics.median(r["n"] for r in recs if r["cls"] == cls)
        count = sum(r["cls"] == cls for r in recs)
        lines.append(f"  {name} {scaled:.4f} {unit} at reference speed, {raw:.4f} {unit} raw (n={count})")
    if workload == "cli-mix":
        raw = sorted(r["s"] for r in recs)
        lines.append(f"  raw: cli_ops_per_s {len(raw) / sum(raw):.2f} 1/s, "
                     f"cli_p50_ms {1000 * statistics.median(raw):.3f} ms, "
                     f"cli_p99_ms {1000 * _quantile(raw, 99):.3f} ms (n={len(raw)})")
    for name, value in metrics.items():
        lines.append(f"  {name} {value:.6g} {units[name]}")
    props = res["props"]
    for shape, p in props.get("shapes", {}).items():
        lines.append(f"  shape {shape}: {p['labels']} labels, {p['cycles']} cycles, "
                     f"cycle length p50 {p['cycle_len_p50']} max {p['cycle_len_max']} copies")
    if "shares" in props:
        lines.append("  op shares: " + ", ".join(f"{c} {s:.3f}" for c, s in props["shares"].items()))
    for problem in res["failures"][:20]:
        lines.append(f"  FAILED {problem}")
    for problem in res["defects"]:
        lines.append(f"  known defect (untimed probe, not counted as an op): {problem}")
    for name in res.get("absent", []):
        lines.append(f"  absent span target: {name}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.PLANNERS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # so children are stopped on the way out
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "div2" / "cli.py").is_file():
        print(f"error: no div2 package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        plan = gen.make_plan(args.workload, args.seed, work)
        setup_raw, setup_s = (0.0, 0.0) if args.trace else setup_seconds(deadline)
        cmd = [sys.executable, str(HERE / "worker.py"), "--plan", str(plan), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans-out", str(HERE / ".work" / f"spans-{args.workload}-{args.seed}.json")]
        res = json.loads(_run(cmd, deadline - time.monotonic()).splitlines()[-1])
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, units = layer_metrics(res), PER_LAYER_UNITS
    else:
        metrics, units = e2e_metrics(res, setup_s), E2E_UNITS
    for line in summary(args.workload, res, metrics, units):
        print(line)
    if not args.trace:
        print(f"  setup_s raw {setup_raw:.6g} s")
    problems = res.get("passes", {}).get("problems", [])
    for problem in problems:
        print(f"  FAILED search pass: {problem}")
    failed = sum(not r["ok"] for r in res["records"]) + len(problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(res["records"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
