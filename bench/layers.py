"""Per-layer numbers for the traced run: span statistics and the search passes."""

from __future__ import annotations

import statistics
import time

import gen

# span name -> per-layer metric stem and scale (1 for seconds, 1000 for ms)
SPAN_METRICS = {
    "cli.parse": ("cli.parse_ms", 1000),
    "cli.load": ("cli.load_s", 1),
    "cli.emit": ("cli.emit_s", 1),
    "divider.validate": ("divider.validate_s", 1),
    "divider.verify": ("divider.verify_s", 1),
    "localrules.lemma": ("localrules.lemma_ms", 1000),
    "localrules.parity": ("localrules.parity_ms", 1000),
    "sequences.parse": ("sequences.parse_ms", 1000),
    "dihedral.act": ("dihedral.act_ms", 1000),
    "theta.eval": ("theta.eval_ms", 1000),
}
PER_SHAPE = {"divider.walk": "divider.walk_s", "divider.trace": "divider.trace_s"}
SHAPES = ("random", "blocked")

# op classes that run the workload's search serially and with two jobs
SERIAL_CLS = {"search": "search-serial", "cli-mix": "search-j1"}
JOBS2_CLS = {"search": "search-jobs2", "cli-mix": "search-j2"}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def span_metrics(tracer, records: list, plan: dict) -> dict:
    """Each layer's mean time per op that enters it, from the recorded spans.

    A layer's time in an op is the sum of its spans there, skipping spans
    nested in a span of the same name; a layer no op entered reads 0.
    """
    spans = tracer.spans
    by_root = {rec["root"]: rec for rec in records}
    root_of = [0] * len(spans)
    children = {}
    totals = {}  # (root, name) -> seconds
    for i, (name, start, end, parent, _tag) in enumerate(spans):
        root_of[i] = i if parent < 0 else root_of[parent]
        children.setdefault(parent, []).append(i)
        p, nested = parent, False
        while p >= 0:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        if parent >= 0 and not nested:
            key = (root_of[i], name)
            totals[key] = totals.get(key, 0.0) + (end - start)

    out = {}
    for span, (metric, scale) in SPAN_METRICS.items():
        out[metric] = scale * _mean([t for (root, name), t in totals.items() if name == span])
    for span, stem in PER_SHAPE.items():
        for shape in SHAPES:
            out[f"{stem}.{shape}"] = _mean(
                [t for (root, name), t in totals.items() if name == span and by_root[root]["shape"] == shape])
    self_times = []
    for root in by_root:
        start, end = spans[root][1], spans[root][2]
        covered = sum(spans[c][2] - spans[c][1] for c in children.get(root, ()))
        self_times.append(end - start - covered)
    out["cli.self_s"] = _mean(self_times)

    workload = plan["workload"]
    serial, jobs2, ratios = [], [], []
    for root, rec in by_root.items():
        for c in children.get(root, ()):
            if spans[c][0] != "localrules.search":
                continue
            wall = spans[c][2] - spans[c][1]
            if rec["cls"] == SERIAL_CLS.get(workload):
                serial.append(wall)
                slices = [spans[s][2] - spans[s][1] for s in children.get(c, ()) if spans[s][0] == "localrules.slice"]
                if slices:
                    ratios.append(max(slices) / statistics.fmean(slices))
            elif rec["cls"] == JOBS2_CLS.get(workload):
                jobs2.append(wall)
    out["localrules.slice_max_over_mean"] = _median(ratios)
    out["localrules.jobs2_excess_s"] = _median(jobs2) - _median(serial) / 2 if jobs2 and serial else 0.0
    out["search_serial_wall"] = _median(serial)
    return out


def search_passes(localrules, plan: dict) -> dict:
    """Time enumeration, the equivariance check and the probes in separate passes.

    Runs at the workload's serial search scale; the counts are checked
    against the pinned search results and the witness reach bound.
    """
    out = {k: 0.0 for k in ("enumerate_s", "equivariance_s", "probe_s", "rules", "collisions", "gaps",
                           "witness_reach_max", "equivariance_reject_ratio")}
    out["problems"] = []
    scale = plan["props"].get("search")
    if scale is None:
        return out
    names = ("equivariant_rules", "r_equivariance_witness", "bijectivity_witness", "Collision")
    missing = [n for n in names if not hasattr(localrules, n)]
    if missing:
        out["absent"] = [f"div2.localrules.{n}" for n in missing]
        return out
    w, d = scale["w"], scale["d"]
    t0 = time.perf_counter()
    rules = list(localrules.equivariant_rules(w, d))
    t1 = time.perf_counter()
    rejected = sum(localrules.r_equivariance_witness(rule) is not None for rule in rules)
    t2 = time.perf_counter()
    witnesses = [localrules.bijectivity_witness(rule) for rule in rules]
    t3 = time.perf_counter()
    reach = 0
    collisions = gaps = 0
    for wit in witnesses:
        if wit is None:
            continue
        m = wit.chi.threshold
        if isinstance(wit, localrules.Collision):
            collisions += 1
            reach = max(reach, abs(wit.n1 - m), abs(wit.n2 - m))
        else:
            gaps += 1
            reach = max(reach, abs(wit.value - m))
    out.update(enumerate_s=t1 - t0, equivariance_s=t2 - t1, probe_s=t3 - t2, rules=len(rules),
               collisions=collisions, gaps=gaps, witness_reach_max=reach,
               equivariance_reject_ratio=rejected / len(rules))
    if (len(rules), collisions, gaps) != gen.SEARCH_COUNTS[(w, d)]:
        out["problems"].append(f"pass counts {(len(rules), collisions, gaps)} differ from the pinned ones")
    if reach > w + 2 * d + 4:
        out["problems"].append(f"witness reach {reach} exceeds w + 2d + 4 = {w + 2 * d + 4}")
    return out
