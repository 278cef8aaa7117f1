"""The measured process: runs one workload's ops in a closed loop and checks them.

Started by ``run.py`` with the package's ``src`` on ``PYTHONPATH``.  Each op
is an in-process call of ``div2.cli.main(argv)`` with stdout and stderr
captured; the op's wall time covers only that call, and its output checks
run after it, untimed.  Ops run in whole rounds of the plan (one round is
the plan's op list for the large workloads, one op for cli-mix) for as long
as the next round is expected to fit in ``--seconds``; at least one round
always runs.  The last stdout line is a JSON object with the raw samples.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import gen
import layers
from spans import Tracer
from speed import Sampler


def run_op(main, op: dict):
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(op["argv"])
        except SystemExit as stop:  # argparse rejects bad arguments this way
            code = 0 if stop.code is None else stop.code if isinstance(stop.code, int) else 2
        except Exception as caught:  # a traceback would reach the user: a failed op
            code, exc = None, caught
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue(), exc


def check_op(op: dict, code, stdout: str, stderr: str, exc) -> str | None:
    """Why the op's result is wrong, or None."""
    want = op["expect"]
    if exc is not None:
        return f"uncaught {type(exc).__name__}: {exc}"
    if code != want["code"]:
        return f"exit code {code}, expected {want['code']}"
    if "stdout" in want and stdout != want["stdout"]:
        return f"stdout {stdout[:120]!r}, expected {want['stdout'][:120]!r}"
    if "stdout_prefix" in want and not stdout.startswith(want["stdout_prefix"]):
        return f"stdout {stdout[:120]!r} lacks {want['stdout_prefix']!r}"
    if "stdout_json" in want:
        try:
            got = json.loads(stdout)
        except ValueError:
            return f"stdout is not JSON: {stdout[:120]!r}"
        if got != want["stdout_json"]:
            return f"stdout {got!r}, expected {want['stdout_json']!r}"
    lines = stdout.count("\n")
    if "stdout_lines" in want and lines != want["stdout_lines"]:
        return f"{lines} stdout lines, expected {want['stdout_lines']}"
    if "out_file" in want:
        out_file = Path(want["out_file"])
        try:
            # removed once read, so a later op cannot pass on a stale file
            digest = gen.matching_digest(json.loads(out_file.read_text())["pairs"])
            out_file.unlink()
        except (OSError, ValueError, KeyError, TypeError) as caught:
            return f"--out file unreadable: {caught}"
        if digest != want["out_digest"]:
            return "--out matching differs from the reference walker's"
    if code == 2 and not stderr.startswith(("error:", "usage:")):
        return f"exit 2 without an error message: {stderr[:120]!r}"
    return None


def rounds(plan: dict):
    ops = plan["ops"]
    if plan["workload"] == "cli-mix":
        while True:
            for op in ops:
                yield [op]
    while True:
        yield ops


def closed_loop(main, plan: dict, seconds: float, tracer: Tracer | None):
    """Run whole rounds while the next one is expected to fit; return per-op records.

    Each record has the raw wall time ``s`` and ``n``, the same time scaled
    to the reference speed (see speed.py).
    """
    records = []
    failures = []
    t0 = time.perf_counter()
    last_round = 0.0
    with Sampler() as sampler:
        for batch in rounds(plan):
            if records and time.perf_counter() - t0 + last_round > seconds:
                break
            r0 = time.perf_counter()
            for op in batch:
                if tracer is not None:
                    tracer.tag = op["shape"]
                    root = tracer.begin("cli.main")
                net, span, code, stdout, stderr, exc = sampled_op(main, op, sampler)
                if tracer is not None:
                    tracer.end(root)
                problem = check_op(op, code, stdout, stderr, exc)
                if problem is not None:
                    failures.append(f"{op['cls']} {' '.join(op['argv'])[:160]}: {problem}")
                records.append({"cls": op["cls"], "shape": op["shape"], "s": net, "span": span,
                                "ok": problem is None, "op": op, "root": root if tracer is not None else -1})
            last_round = time.perf_counter() - r0
    for rec in records:
        rec["n"] = rec["s"] * sampler.scale(*rec.pop("span"))
    return records, failures, time.perf_counter() - t0


def sampled_op(main, op: dict, sampler: Sampler):
    """run_op, with the sampler's handler time taken out and the op's clock span."""
    spent = sampler.spent
    start = time.perf_counter()
    elapsed, code, stdout, stderr, exc = run_op(main, op)
    return elapsed - (sampler.spent - spent), (start, start + elapsed), code, stdout, stderr, exc


def tracing_overhead(main, records: list, budget: float) -> float:
    """Traced over untraced scaled time of the traced loop's last ops, minus 1.

    The last ops that fit in ``budget`` seconds (at least one) run again
    without tracing; both passes are warm, and both are scaled to the
    reference speed.
    """
    suffix, spent = [], 0.0
    for rec in reversed(records):
        if suffix and spent + rec["s"] > budget:
            break
        suffix.append(rec)
        spent += rec["s"]
    with Sampler() as sampler:
        reruns = [sampled_op(main, rec["op"], sampler)[:2] for rec in suffix]
    untraced = sum(net * sampler.scale(*span) for net, span in reruns)
    return sum(rec["n"] for rec in suffix) / untraced - 1


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are the search pool's workers
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans-out")
    args = ap.parse_args()
    plan = json.loads(Path(args.plan).read_text())
    import div2.cli as cli

    if plan["workload"] == "cli-mix":
        # one untimed op of each class fills lazily built state first
        seen = set()
        for op in plan["ops"]:
            if op["cls"] not in seen:
                seen.add(op["cls"])
                run_op(cli.main, op)

    # the plan and the warm-up stay alive for the whole run; keep them out of
    # the collections the ops trigger
    gc.collect()
    gc.freeze()
    result = {"workload": plan["workload"], "props": plan["props"]}
    if not args.trace:
        records, failures, wall = closed_loop(cli.main, plan, args.seconds, None)
        result["peak_rss_mb"] = peak_rss_mb()
    else:
        tracer = Tracer()
        modules = {name: importlib.import_module(name) for name in ("div2.cli", "div2.divider", "div2.localrules",
                                                                    "div2.sequences", "div2.dihedral")}
        tracer.install(modules)
        try:
            records, failures, wall = closed_loop(cli.main, plan, args.seconds, tracer)
        finally:
            tracer.uninstall()
        result["overhead"] = tracing_overhead(cli.main, records, args.seconds / 4)
        result["passes"] = layers.search_passes(modules["div2.localrules"], plan)
        result["layers"] = layers.span_metrics(tracer, records, plan)
        result["absent"] = tracer.absent
        if args.spans_out:
            tracer.dump(Path(args.spans_out))
    defects = []
    for op in plan["props"].get("defect_probes", []):
        _, code, stdout, stderr, exc = run_op(cli.main, op)
        problem = check_op(op, code, stdout, stderr, exc)
        if problem is not None:
            defects.append(f"{' '.join(op['argv'])}: {problem}")
    result.update(records=[{k: r[k] for k in ("cls", "shape", "s", "n", "ok")} for r in records],
                  failures=failures, defects=defects, wall=wall)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
