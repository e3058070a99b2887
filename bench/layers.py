"""Per-layer metrics derived from one traced pass.

Every metric listed by per_layer_metrics() is printed on every workload; a
layer the workload does not exercise reads 0 (its sample count, where it has
one, is 0 too).  Timings are given as the median and the "tail": the highest
percentile with at least ten samples beyond it (the 11th-largest sample),
or the maximum when there are fewer than twenty samples.
"""

from __future__ import annotations

import math
import statistics
import time

from spans import PROBE
from workloads import CATALOG_POINTS, cell_name

CERTIFICATE_CALLS = (
    "find_bad_triple", "find_2bad_pair", "find_tree_bad",
    "is_bad_triple", "is_2bad_pair", "is_tree_bad",
)


def solver_cells(lc, workloads) -> list[str]:
    """Names of the run_point cells of every workload, in grid order; each
    has its own solver.* metrics."""
    return [cell_name(n, k, sigma, wl.family) for wl in workloads for n, k, sigma, _ in wl.grid(lc)]


def _dist(prefix: str, unit: str) -> list[tuple[str, str]]:
    return [(f"{prefix}.p50", unit), (f"{prefix}.tail", unit), (f"{prefix}.n", "count")]


def per_layer_metrics(cells: list[str]) -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in print order, for the
    solver cells `cells`."""
    out = [
        *_dist("lists.sample_us_per_vertex", "us"),
        *_dist("lists.validate_us_per_vertex", "us"),
        ("lists.sample_share", "ratio"),
        ("graphs.build_s", "s"),
        ("scaling.grid_ms", "ms"),
        *_dist("graphs.components_ms", "ms"),
        ("graphs.components_calls_per_trial", "count"),
        *_dist("graphs.induced_subgraph_us", "us"),
        ("graphs.induced_subgraph_calls_per_uncolorable", "count"),
        *_dist("graphs.girth_ms", "ms"),
    ]
    for cell in cells:
        out += [
            (f"solver.solve_ms.{cell}.p50", "ms"),
            (f"solver.solve_ms.{cell}.p95", "ms"),
            (f"solver.solve_ms.{cell}.max", "ms"),
            (f"solver.nodes.{cell}", "count"),
            (f"solver.timeouts.{cell}", "count"),
            (f"solver.errors.{cell}", "count"),
        ]
    out += [("solver.solve_calls_per_instance", "count"), *_dist("solver.extract_critical_ms", "ms")]
    for call in CERTIFICATE_CALLS:
        out += _dist(f"certificates.{call}_us", "us")
    out += [("certificates.found_ratio", "ratio")]
    out += [(f"bounds.catalog_ms.{label}", "ms") for label, *_ in CATALOG_POINTS]
    out += [
        ("bounds.triple_sum_ms", "ms"),
        ("bounds.pair_sum_ms", "ms"),
        ("bounds.tree_bound_ms", "ms"),
        ("bounds.triple_sum_terms", "count"),
        ("cli.overhead_ms", "ms"),
        ("harness.pool_efficiency", "ratio"),
        ("harness.overhead_share", "ratio"),
        ("harness.write_ms", "ms"),
        ("harness.records_bytes", "bytes"),
        ("corpus.load_ms", "ms"),
        ("corpus.sample_us_per_instance", "us"),
        ("trace.slowdown", "ratio"),
    ]
    return out


def tail_level(n: int) -> float | None:
    """Percentile level of the tail of n samples; None when it is the maximum."""
    return (n - 10) / n if n >= 20 else None


def summarize(values: list[float]) -> tuple[float, float, int]:
    """(median, tail, count); see the module docstring for the tail."""
    if not values:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    tail = ordered[-11] if len(ordered) >= 20 else ordered[-1]
    return statistics.median(ordered), tail, len(ordered)


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class TraceHooks:
    """Probes and checks run around traced calls, each in a probe span so
    neither is billed to the layer it looks at."""

    def __init__(self, lc, tracer, family: str):
        self.lc = lc
        self.tracer = tracer
        self.family = family
        self.validate_us_per_vertex: list[float] = []
        self.found: dict[str, int] = {}
        self.triple_terms = 0
        self.witness_checks = 0
        self.certificate_checks = 0
        self.failures: list[str] = []

    def table(self) -> dict:
        hooks = {
            "lists.sample": (self.before_sample, self.after_sample),
            "solver.solve": (None, self.after_solve),
            "bounds.triple_sum": (None, self.after_triple_sum),
        }
        for call in CERTIFICATE_CALLS:
            after = self.after_finder(call) if call.startswith("find") else self.after_checker(call)
            hooks[f"certificates.{call}"] = (None, after)
        return hooks

    def before_sample(self, args, kwargs):
        g, k, sigma = args[0], args[1], args[2]
        self.tracer.next_op(cell=cell_name(g.n, k, sigma, self.family), n=g.n)

    def after_sample(self, span, args, kwargs, assignment):
        start = time.perf_counter()
        self.lc.lists.ListAssignment(assignment.sigma, assignment.k, assignment.lists)
        elapsed = time.perf_counter() - start
        self.validate_us_per_vertex.append(elapsed * 1e6 / max(1, len(assignment)))

    def after_solve(self, span, args, kwargs, result):
        if result.colorable:
            self.witness_checks += 1
            if not self.lc.solver.verify_coloring(args[0], args[1], result.coloring):
                self.failures.append(f"solve span {span}: COLORABLE witness fails verify_coloring")

    def after_triple_sum(self, span, args, kwargs, report):
        lo, hi = report.params["m_lo"], report.params["m_hi"]
        self.triple_terms += max(0, hi - lo + 1)

    def after_finder(self, call):
        def hook(span, args, kwargs, result):
            if result is not None:
                self.found[call] = self.found.get(call, 0) + 1
        return hook

    def after_checker(self, call):
        def hook(span, args, kwargs, result):
            parent = self.tracer.parent[span]
            if parent >= 0 and self.tracer.name(parent).startswith("certificates.find"):
                return  # a finder trying candidates, not a check of a found certificate
            self.certificate_checks += 1
            if not result[0]:
                self.failures.append(f"{call} span {span}: certificate fails its checker")
        return hook


def derive(tracer, by_name, hooks, parts, untraced, serial, traced, workload,
           cells: list[str]) -> dict[str, float]:
    """Per-layer metric values from the traced pass `traced`, the untraced
    pass at the workload's own worker count `untraced`, and the untraced
    pass at one worker `serial` (the same inputs each time)."""
    def get(name):
        return by_name.get(name, [])

    def ms(idxs):
        return [tracer.duration(i) * 1e3 for i in idxs]

    def us(idxs):
        return [tracer.duration(i) * 1e6 for i in idxs]

    def total(idxs):
        return sum(tracer.duration(i) for i in idxs)

    m: dict[str, float] = {}

    def put_dist(prefix, values):
        m[f"{prefix}.p50"], m[f"{prefix}.tail"], m[f"{prefix}.n"] = summarize(values)

    samples = get("lists.sample")
    put_dist("lists.sample_us_per_vertex", [
        tracer.duration(i) * 1e6 / tracer.op_info[tracer.op[i]]["n"] for i in samples
    ])
    put_dist("lists.validate_us_per_vertex", hooks.validate_us_per_vertex)

    # run_point: time not covered by the sample and solve spans inside it
    children: dict[int, float] = {}
    probes: dict[int, float] = {}
    run_points = set(get("harness.run_point"))
    for i, p in enumerate(tracer.parent):
        if p in run_points:
            bucket = probes if tracer.name(i) == PROBE else children
            bucket[p] = bucket.get(p, 0.0) + tracer.duration(i)
    trial_time = sum(tracer.duration(i) - probes.get(i, 0.0) for i in run_points)
    own_time = sum(tracer.duration(i) - probes.get(i, 0.0) - children.get(i, 0.0) for i in run_points)
    m["lists.sample_share"] = total(samples) / trial_time if trial_time else 0.0
    m["harness.overhead_share"] = own_time / trial_time if trial_time else 0.0

    m["graphs.build_s"] = parts.get("graphs.build", 0.0)
    m["scaling.grid_ms"] = parts.get("scaling.grid", 0.0) * 1e3
    corpus = [i for i in get("corpus.sample") if i not in tracer.errors]
    ops = len(samples) + len(corpus)  # trials, or corpus instances
    put_dist("graphs.components_ms", ms(get("graphs.components")))
    m["graphs.components_calls_per_trial"] = len(get("graphs.components")) / ops if ops else 0.0
    put_dist("graphs.induced_subgraph_us", us(get("graphs.induced_subgraph")))
    report = traced.detail.get("report")
    uncolorable = report["coverage"]["uncolorable"] if report else 0
    m["graphs.induced_subgraph_calls_per_uncolorable"] = (
        len(get("graphs.induced_subgraph")) / uncolorable if uncolorable else 0.0
    )
    put_dist("graphs.girth_ms", ms(get("graphs.girth")))

    solve_by_cell: dict[str, list[float]] = {}
    for i in get("solver.solve"):
        info = tracer.op_info.get(tracer.op[i])
        if info and "cell" in info:
            solve_by_cell.setdefault(info["cell"], []).append(tracer.duration(i) * 1e3)
    traced_cells = {c.name: c for c in traced.cells}
    for name in cells:
        values = solve_by_cell.get(name, [])
        cell = traced_cells.get(name)
        m[f"solver.solve_ms.{name}.p50"] = statistics.median(values) if values else 0.0
        m[f"solver.solve_ms.{name}.p95"] = percentile(values, 0.95)
        m[f"solver.solve_ms.{name}.max"] = max(values, default=0.0)
        m[f"solver.nodes.{name}"] = sum(r.solve_nodes for r in cell.records) if cell else 0
        m[f"solver.timeouts.{name}"] = len(cell.timed_out) if cell else 0
        m[f"solver.errors.{name}"] = cell.trials if cell and cell.error else 0
    instances = report["coverage"]["instances"] if report else 0
    m["solver.solve_calls_per_instance"] = len(get("solver.solve")) / instances if instances else 0.0
    put_dist("solver.extract_critical_ms", ms(get("solver.extract_critical")))

    for call in CERTIFICATE_CALLS:
        put_dist(f"certificates.{call}_us", us(get(f"certificates.{call}")))
    checks = 0
    if report:
        cov = report["coverage"]
        checks = cov["triple_checks"] + cov["pair_checks"] + cov["tree_checks"]
    m["certificates.found_ratio"] = sum(hooks.found.values()) / checks if checks else 0.0

    catalog = get("bounds.catalog")
    calls = traced.detail.get("calls", [])
    for label, *_ in CATALOG_POINTS:
        m[f"bounds.catalog_ms.{label}"] = 0.0
    for (label, wall), i in zip(calls, catalog):
        m[f"bounds.catalog_ms.{label}"] = tracer.duration(i) * 1e3
    m["bounds.triple_sum_ms"] = total(get("bounds.triple_sum")) * 1e3
    m["bounds.pair_sum_ms"] = total(get("bounds.pair_sum")) * 1e3
    m["bounds.tree_bound_ms"] = total(get("bounds.tree_bound")) * 1e3
    m["bounds.triple_sum_terms"] = hooks.triple_terms
    overheads = [(wall - tracer.duration(i)) * 1e3 for (label, wall), i in zip(calls, catalog)]
    m["cli.overhead_ms"] = statistics.median(overheads) if overheads else 0.0

    m["harness.pool_efficiency"] = (
        serial.wall_s / (workload.workers * untraced.wall_s) if workload.workers > 1 else 0.0
    )
    m["harness.write_ms"] = untraced.detail.get("write_s", 0.0) * 1e3
    m["harness.records_bytes"] = untraced.detail.get("records_bytes", 0)
    m["corpus.load_ms"] = parts.get("corpus.load", 0.0) * 1e3
    m["corpus.sample_us_per_instance"] = total(corpus) * 1e6 / len(corpus) if corpus else 0.0
    m["trace.slowdown"] = traced.wall_s / serial.wall_s - 1 if serial.wall_s else 0.0
    return m
