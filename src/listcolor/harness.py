"""Seeded Monte Carlo experiments: single grid points, threshold sweeps, and
the lemma-verification suites.

Determinism contract: every trial's random stream is a pure function of
(config base seed, n, k, sigma, trial index), aggregation is a fold in
trial-index order, and records.csv is sorted by (n, sigma, trial_index) --
so reruns and different worker counts produce byte-identical CSV as long as
no wall-clock timeout fires.  The solver reads the deadline at every search
node and at every DP step, so a timeout can fire in the plain search too.
Past the switch point (a fixed node count, after which an exact frontier DP
runs on the component once) it can fire only while the DP runs (about 8
bytes per state built) or after it gives up, at one step past 16,384
states, as on K_{200,200} at k = 3.  Per-trial wall times are kept
out of the CSV to keep it byte-identical (they live in summary.json as
per-point means).

Worker model: a sweep builds each n's graph once and streams every trial
of every cell of that n, in grid order, through one `_trial_records` stream;
each cell's run_point takes its own trials from it.  With workers > 1 the
stream is one fork Pool per n, of at most one worker per trial, whose
workers inherit the graph and its connected components, computed just
before the fork (the graph is an initializer argument, which fork does not
pickle); each job carries only the trial's seed coordinates, and a worker
that finishes one cell's trials goes on to the next cell's.  A stream closed
early (a cell that raises, Ctrl-C) lets its workers finish the trials they
hold and exit; no worker is killed, so with no timeout that wait has no
bound.  At one worker
the trials run in-process, each as its record is drawn.  Each trial's lists
come from `sample_assignment`, whose draws replay `random.sample` exactly,
so records.csv keeps its stream.  A trial that raises an unexpected
exception is recorded with status "error" instead of ending the sweep.

Graph families and certificate kinds come from one registry each,
graphs.FAMILIES and certificates.CERTIFICATE_KINDS, and the argument rules
from one schema, config.schema.json, against which both
ExperimentConfig.from_dict and run_point check.  Trials and the lemma
suites solve each instance once and hand the result to `certify`; a trial
records the label it finds, unchecked, and the suites check each one.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from . import certificates as certs
from .corpus import DEFAULT_COMBOS, corpus_assignments, small_connected_graphs
from .errors import ConfigError, GuardExceededError, InvalidParameterError, SolveTimeout
from .graphs import FAMILIES, Graph, connected_components, girth
from .lists import SeedSpec, derive_seed, sample_assignment
from .scaling import ScalingExpr, parse_scaling
from .solver import solve

CSV_VERSION = "listcolor-records v1"
CSV_COLUMNS = (
    "n",
    "k",
    "sigma",
    "trial_index",
    "seed",
    "status",
    "colorable",
    "solve_nodes",
    "certificate",
)
_WILSON_Z = 1.959963984540054  # two-sided 95%

_SCHEMA_FILE = Path(__file__).with_name("config.schema.json")
_JSON_TYPES = {"object": dict, "array": (list, tuple), "string": str, "number": (int, float),
               "null": type(None)}


@functools.cache
def _schema() -> dict:
    """Every config rule but the grid rules of ExperimentConfig.grid; see
    docs/formats.md."""
    return json.loads(_SCHEMA_FILE.read_text(encoding="utf-8"))


def _has_type(value, name: str) -> bool:
    """JSON Schema's types: a boolean is no number, an integer has no fraction."""
    if isinstance(value, bool):
        return name == "boolean"
    if name == "integer":
        return isinstance(value, int) or isinstance(value, float) and value.is_integer()
    return isinstance(value, _JSON_TYPES[name])


def _validate(value, schema: dict, where: str) -> None:
    """Raise ConfigError unless `value`, named `where`, meets `schema`, read
    in the subset of JSON Schema that config.schema.json uses."""
    if "$ref" in schema:  # "#/$defs/<name>"
        _validate(value, _schema()["$defs"][schema["$ref"].rpartition("/")[2]], where)
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    if types and not any(_has_type(value, name) for name in types):
        raise ConfigError(f"{where} must be of type {' or '.join(types)}, got {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        raise ConfigError(f"{where} must be one of {schema['enum']}, got {value!r}")
    if "minimum" in schema and _has_type(value, "number") and not value >= schema["minimum"]:
        raise ConfigError(f"{where} must be >= {schema['minimum']}, got {value!r}")
    if isinstance(value, (list, tuple)):
        if len(value) < schema.get("minItems", 0):
            raise ConfigError(f"{where} needs at least {schema['minItems']} entries, got {value}")
        for i, item in enumerate(value):
            _validate(item, schema.get("items", {}), f"{where} item {i}")
    if isinstance(value, dict):
        missing = [key for key in schema.get("required", []) if key not in value]
        if missing:
            raise ConfigError(f"{where} misses keys {missing}")
        properties = schema.get("properties", {})
        unknown = sorted(set(value) - set(properties))
        if unknown and schema.get("additionalProperties", True) is False:
            raise ConfigError(f"{where} has unknown keys {unknown}")
        for key, item in value.items():
            if key in properties:
                _validate(item, properties[key], repr(key))


def _parse(value, where: str) -> ScalingExpr:
    """A config's scaling value, parsed; a refusal names `where`."""
    try:
        return parse_scaling(str(value))
    except (ConfigError, ValueError) as exc:  # str() refuses an int of over 4,300 digits
        raise ConfigError(f"{where}: {exc}") from None


def _evaluate(value: ScalingExpr | int, n: int, where: str) -> int:
    """`value` at n as an integer; a refusal names `where` and n."""
    if not isinstance(value, ScalingExpr):
        return int(value)
    try:
        return value.evaluate_int(n)
    except ConfigError as exc:
        at = f"n={n}" if n < 1e308 else "an n past 1e308"  # str() may refuse a larger int
        raise ConfigError(f"{where} at {at}: {exc}") from None


# ---------------------------------------------------------------------------
# graph families


@dataclass(frozen=True)
class GraphFamily:
    """A named graph builder parameterized by the grid variable n."""

    name: str
    params: dict

    def build(self, n: int) -> Graph:
        return FAMILIES[self.name].generator(*self._args(n))

    def check(self, n: int) -> None:
        """Raise InvalidParameterError where build(n) would, building nothing."""
        FAMILIES[self.name].check_args(*self._args(n))

    def _args(self, n: int) -> list:
        """The generator's arguments at n, scaling expressions evaluated."""
        args = []
        for key in FAMILIES[self.name].arg_names:
            raw = n if key == "n" else self.params.get(key)
            if raw is None or raw == []:
                raise ConfigError(f"family {self.name!r} needs parameter {key!r}")
            where = f"family_params.{key}"
            args.append([_evaluate(p, n, f"{where} item {i}") for i, p in enumerate(raw)]
                        if key == "parts" else _evaluate(raw, n, where))
        return args


# ---------------------------------------------------------------------------
# trial records and points


@dataclass
class TrialRecord:
    n: int
    k: int
    sigma: int
    trial_index: int
    seed: int
    status: str  # "ok" | "timeout" | "error"
    colorable: bool | None
    solve_nodes: int
    certificate: str
    wall_micros: int
    error: str = ""  # exception class name of an "error" trial; not a CSV column

    def csv_row(self) -> list:
        return [
            self.n,
            self.k,
            self.sigma,
            self.trial_index,
            self.seed,
            self.status,
            "" if self.colorable is None else str(self.colorable).lower(),
            self.solve_nodes,
            self.certificate,
        ]


@dataclass
class PointResult:
    n: int
    k: int
    sigma: int
    trials: int
    completed: int
    timeouts: int
    errors: int
    colorable_count: int
    p_hat: float | None
    ci_low: float | None
    ci_high: float | None
    mean_wall_micros: float
    records: list[TrialRecord] = field(repr=False, default_factory=list)

    def summary(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "sigma": self.sigma,
            "trials": self.trials,
            "completed": self.completed,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "colorable": self.colorable_count,
            "p_hat": self.p_hat,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "mean_wall_micros": round(self.mean_wall_micros, 1),
        }


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% score interval for a binomial proportion; stable near 0 and 1."""
    z = _WILSON_Z
    if trials == 0:
        raise InvalidParameterError("interval needs at least one trial")
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _run_trial(g: Graph, job: tuple) -> TrialRecord:
    """One seeded trial on `g`.  `wall_micros` times the solve alone."""
    n, k, sigma, trial_index, point_seed, timeout_s, cert_kinds = job
    seed = SeedSpec(point_seed, trial_index)
    start = time.monotonic()

    def unfinished(status: str, error: str = "") -> TrialRecord:
        wall = int((time.monotonic() - start) * 1e6)
        return TrialRecord(n, k, sigma, trial_index, seed.stream_seed(), status,
                           None, 0, "", wall, error)

    try:
        assignment = sample_assignment(g, k, sigma, seed)
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        start = time.monotonic()
        result = solve(g, assignment, deadline=deadline)
        wall = int((time.monotonic() - start) * 1e6)
        certificate = ""
        if not result.colorable and cert_kinds:
            try:
                found = certs.certify(g, assignment, cert_kinds, result)
                certificate = "none" if found is None else found[0].label
            except GuardExceededError:
                certificate = "guard-exceeded"
    except SolveTimeout:
        return unfinished("timeout")
    except Exception as exc:  # one bad trial must not lose the sweep
        return unfinished("error", type(exc).__name__)
    return TrialRecord(
        n, k, sigma, trial_index, seed.stream_seed(), "ok",
        result.colorable, result.stats.nodes, certificate, wall,
    )


# The graph of the current Pool and its stop flag, set in each Pool worker
# by _init_worker; the in-process stream passes its graph directly and never
# sets them.
_worker_graph: Graph | None = None
_worker_stop = None


def _init_worker(g: Graph, stop) -> None:
    global _worker_graph, _worker_stop
    # Ctrl-C stops the parent, which then lets the workers exit on their own
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_graph, _worker_stop = g, stop


def _run_worker_trial(job: tuple) -> TrialRecord | None:
    if _worker_stop.is_set():  # the stream was closed: skip the jobs left
        return None
    return _run_trial(_worker_graph, job)


def _point_jobs(n, k, sigma, trials, base_seed, timeout_seconds, certificate_kinds) -> list:
    point_seed = derive_seed(base_seed, n, k, sigma)
    return [
        (n, k, sigma, i, point_seed, timeout_seconds, certificate_kinds)
        for i in range(trials)
    ]


def _trial_records(g: Graph, jobs: list, workers: int) -> Iterator[TrialRecord]:
    """The records of `jobs` on `g`, in job order.

    With one worker or one job each trial runs in this process as its record
    is drawn.  Otherwise one fork Pool of min(workers, len(jobs)) workers
    runs them all; its workers inherit `g` with its components.  When the
    stream is exhausted or closed, the workers finish the trials they hold,
    skip the jobs left, and exit before the pool is left: Pool.terminate can
    hang for good if it kills a worker that holds the result queue's lock.
    With timeout_seconds None a held trial has no deadline, so neither has
    this wait; a second Ctrl-C leaves it through Pool.terminate.
    """
    workers = min(workers, len(jobs))
    if workers <= 1:
        for job in jobs:
            yield _run_trial(g, job)
        return
    import multiprocessing

    connected_components(g)  # once, here: the forked workers inherit it
    context = multiprocessing.get_context("fork")
    stop = context.Event()
    with context.Pool(workers, _init_worker, (g, stop)) as pool:
        try:
            yield from pool.imap(
                _run_worker_trial, jobs, chunksize=max(1, len(jobs) // (4 * workers))
            )
        finally:
            stop.set()
            pool.close()
            pool.join()


def run_point(
    g: Graph,
    n: int,
    k: int,
    sigma: int,
    trials: int,
    base_seed: int,
    timeout_seconds: float | None = 5.0,
    certificate_kinds: tuple[str, ...] = (),
    workers: int = 1,
    *,
    _records: Iterator[TrialRecord] | None = None,
) -> PointResult:
    """Estimate the colorability probability at one (n, k, sigma) grid cell.

    `g` is the family's graph at `n`.  The trials run through
    `_trial_records`: with workers > 1 in a fork Pool of at most one
    worker per trial, whose workers inherit the graph at fork; each job
    carries only (n, k, sigma, trial index, point seed, timeout, certificate
    kinds), so no graph is pickled.  `sweep` passes `_records`, the stream
    of all the trials of one n, from which this cell takes its `trials`
    records in trial order.

    Timed-out trials and trials that raised (status "error") are recorded,
    counted separately, and excluded from p_hat (never silently dropped).
    The aggregate is a deterministic fold over trial indices, independent of
    worker scheduling.  The argument rules are those of the config schema's
    keys (`workers=2.0` reads as 2), plus 1 <= k <= sigma; a refusal raises
    InvalidParameterError before any trial.
    """
    as_config = {"trials": trials, "timeout_seconds": timeout_seconds,
                 "certificates": certificate_kinds, "workers": workers}
    try:  # each argument by the rule of its config key
        _validate(as_config, {"properties": _schema()["properties"]}, "run_point")
    except ConfigError as exc:
        raise InvalidParameterError(str(exc)) from None
    trials, workers = int(trials), int(workers)
    if not 1 <= k <= sigma:
        raise InvalidParameterError(f"need 1 <= k <= sigma, got k={k}, sigma={sigma}")
    jobs = _point_jobs(n, k, sigma, trials, base_seed, timeout_seconds, certificate_kinds)
    if _records is None:
        records = list(_trial_records(g, jobs, workers))
    else:
        records = list(itertools.islice(_records, len(jobs)))
    completed = [r for r in records if r.status == "ok"]
    timeouts = sum(1 for r in records if r.status == "timeout")
    colorable = sum(1 for r in completed if r.colorable)
    if completed:
        p_hat = colorable / len(completed)
        ci_low, ci_high = wilson_interval(colorable, len(completed))
    else:
        p_hat = ci_low = ci_high = None
    mean_wall = sum(r.wall_micros for r in records) / len(records)
    return PointResult(
        n, k, sigma, trials, len(completed), timeouts,
        len(records) - len(completed) - timeouts,
        colorable, p_hat, ci_low, ci_high, mean_wall, records,
    )


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class ExperimentConfig:
    """A sweep over an n grid and a sigma-expression grid.

    k, sigma, and family parameters may be scaling expressions in n; they
    must evaluate to positive integers with k(n) <= sigma(n) on the whole
    grid (validated up front)."""

    family: GraphFamily
    n_grid: tuple[int, ...]
    k_expr: ScalingExpr
    sigma_exprs: tuple[ScalingExpr, ...]
    trials: int
    base_seed: int
    timeout_seconds: float | None = 5.0
    certificate_kinds: tuple[str, ...] = ()
    workers: int = 1
    output_dir: str | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Validate `raw` against config.schema.json and the grid rules up
        front, so no sweep fails on its config after it has started."""
        _validate(raw, _schema(), "config")
        params = {
            key: [_parse(p, f"family_params.parts item {i}") for i, p in enumerate(value)]
            if key == "parts" else _parse(value, f"family_params.{key}")
            for key, value in raw.get("family_params", {}).items()
        }
        config = cls(
            family=GraphFamily(raw["family"], params),
            n_grid=tuple(int(n) for n in raw["n_grid"]),
            k_expr=_parse(raw.get("k", 2), "k"),
            sigma_exprs=tuple(_parse(x, f"sigma_grid item {i}")
                              for i, x in enumerate(raw["sigma_grid"])),
            trials=int(raw["trials"]),
            base_seed=int(raw.get("base_seed", 0)),
            timeout_seconds=raw.get("timeout_seconds", 5.0),
            certificate_kinds=tuple(raw.get("certificates", ())),
            workers=int(raw.get("workers", 1)),
            output_dir=raw.get("output_dir"),
        )
        config.grid()  # validates every cell
        return config

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def grid(self) -> list[tuple[int, int, int]]:
        """Evaluated (n, k, sigma) cells, validating positivity, k <= sigma and
        that the family can be built at every n."""
        cells = []
        for n in self.n_grid:
            try:
                self.family.check(n)
            except InvalidParameterError as exc:
                raise ConfigError(
                    f"family {self.family.name!r} cannot be built at n_grid entry {n}: {exc}"
                ) from None
            k = _evaluate(self.k_expr, n, "k")
            if k < 1:
                raise ConfigError(f"k({n}) = {k} is not positive")
            sigmas = [_evaluate(expr, n, f"sigma_grid item {i}")
                      for i, expr in enumerate(self.sigma_exprs)]
            if k > min(sigmas, default=k):  # so every sigma, too, is positive
                raise ConfigError(f"k({n}) = {k} exceeds sigma({n}) = {min(sigmas)}")
            if len(set(sigmas)) != len(sigmas):
                raise ConfigError(f"sigma grid at n={n} contains duplicate values {sigmas}")
            cells.extend((n, k, sigma) for sigma in sigmas)
        return cells


@dataclass
class SweepResult:
    config: ExperimentConfig
    points: list[PointResult]
    crossings: dict[int, float | None]
    trend_violations: dict[int, int]

    def records(self) -> list[TrialRecord]:
        out = []
        for point in self.points:
            out.extend(point.records)
        out.sort(key=lambda r: (r.n, r.sigma, r.trial_index))
        return out

    def records_csv(self) -> str:
        buffer = io.StringIO()
        buffer.write(f"# {CSV_VERSION}: columns fixed as listed below\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for record in self.records():
            writer.writerow(record.csv_row())
        return buffer.getvalue()

    def summary(self) -> dict:
        return {
            "points": [p.summary() for p in self.points],
            "p_half_crossing_by_n": {str(n): x for n, x in self.crossings.items()},
            "trend_violations_by_n": {str(n): v for n, v in self.trend_violations.items()},
        }

    def write(self, out_dir: str | Path) -> tuple[Path, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        records_path = out / "records.csv"
        summary_path = out / "summary.json"
        records_path.write_text(self.records_csv(), encoding="utf-8")
        summary_path.write_text(
            json.dumps(self.summary(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return records_path, summary_path


def p_half_crossing(sigmas: list[int], p_hats: list[float | None]) -> float | None:
    """Sigma where p_hat crosses 1/2, by linear interpolation on the grid."""
    usable = [(s, p) for s, p in zip(sigmas, p_hats) if p is not None]
    for (s0, p0), (s1, p1) in zip(usable, usable[1:]):
        if p0 <= 0.5 <= p1 and p1 > p0:
            return s0 + (0.5 - p0) * (s1 - s0) / (p1 - p0)
        if p0 == p1 == 0.5:
            return float(s0)
    return None


def trend_violation_count(points: list[PointResult]) -> int:
    """Adjacent sigma pairs where p_hat drops by more than two combined
    standard errors (the monotone-trend diagnostic)."""
    violations = 0
    for a, b in zip(points, points[1:]):
        if a.p_hat is None or b.p_hat is None:
            continue
        se = math.sqrt(
            a.p_hat * (1 - a.p_hat) / max(a.completed, 1)
            + b.p_hat * (1 - b.p_hat) / max(b.completed, 1)
        )
        if b.p_hat < a.p_hat - 2 * se:
            violations += 1
    return violations


def sweep(config: ExperimentConfig) -> SweepResult:
    """One run_point per (n, sigma) grid cell, plus crossing and trend
    diagnostics per n.  Each n's graph is built once, and every trial of its
    cells runs through one `_trial_records` stream (one Pool per n when
    workers > 1), closed even when a cell raises."""
    points: list[PointResult] = []
    crossings: dict[int, float | None] = {}
    trends: dict[int, int] = {}
    cells = config.grid()
    run_args = (config.trials, config.base_seed, config.timeout_seconds, config.certificate_kinds)
    for n in config.n_grid:
        g = config.family.build(n)
        row_cells = [(k, sigma) for nn, k, sigma in cells if nn == n]
        jobs = [job for k, sigma in row_cells for job in _point_jobs(n, k, sigma, *run_args)]
        stream = _trial_records(g, jobs, config.workers)
        try:
            row = [
                run_point(g, n, k, sigma, *run_args, config.workers, _records=stream)
                for k, sigma in row_cells
            ]
        finally:
            stream.close()
        row.sort(key=lambda p: p.sigma)
        points.extend(row)
        crossings[n] = p_half_crossing([p.sigma for p in row], [p.p_hat for p in row])
        trends[n] = trend_violation_count(row)
    return SweepResult(config, points, crossings, trends)


# ---------------------------------------------------------------------------
# lemma-verification suites


@dataclass
class CorpusSpec:
    """Which corpus the oracle suites run over."""

    max_vertices: int = 6
    assignments_per_graph: int = 500
    combos: tuple[tuple[int, int], ...] = DEFAULT_COMBOS
    base_seed: int = 0


@dataclass
class LemmaReport:
    instances: int = 0
    uncolorable: int = 0
    triple_checks: int = 0
    pair_checks: int = 0
    tree_checks: int = 0
    even_tree_checks: int = 0
    odd_tree_checks: int = 0
    counterexamples: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "coverage": {
                "instances": self.instances,
                "uncolorable": self.uncolorable,
                "triple_checks": self.triple_checks,
                "pair_checks": self.pair_checks,
                "tree_checks": self.tree_checks,
                "even_tree_checks": self.even_tree_checks,
                "odd_tree_checks": self.odd_tree_checks,
            },
            "counterexamples": self.counterexamples,
        }


def verify_lemmas(spec: CorpusSpec | None = None) -> LemmaReport:
    """Run the three certificate oracle suites over the canonical corpus.

    For every uncolorable sampled instance (solved once) and every kind
    whose `obstacle` is None (proper triples always; pairs at k=2; rooted
    proper trees at k >= 2 and girth above three), `certify` must find a
    bad one and it must re-validate.  Counterexamples (there should be
    none; these are proved implications) are returned as report content,
    not raised.
    """
    spec = spec or CorpusSpec()
    if spec.assignments_per_graph < 1:
        raise InvalidParameterError("need at least one assignment per graph")
    report = LemmaReport()
    graphs = small_connected_graphs(spec.max_vertices)
    for gi, g in enumerate(graphs):
        gv = girth(g)
        for ai, assignment in corpus_assignments(
            g, gi, spec.assignments_per_graph, spec.combos, spec.base_seed
        ):
            report.instances += 1
            result = solve(g, assignment)
            if result.colorable:
                continue
            report.uncolorable += 1
            where = {"graph_index": gi, "assignment_index": ai,
                     "k": assignment.k, "sigma": assignment.sigma}
            for kind in certs.CERTIFICATE_KINDS.values():
                if kind.obstacle(assignment.k, g) is not None:
                    continue
                counter = f"{kind.name}_checks"  # one LemmaReport field per kind
                setattr(report, counter, getattr(report, counter) + 1)
                if kind.name == "tree":
                    if int(gv) % 2:
                        report.odd_tree_checks += 1
                    else:
                        report.even_tree_checks += 1
                found = certs.certify(g, assignment, (kind.name,), result)
                if found is None or not kind.check(g, assignment, found[1])[0]:
                    failure = "not found" if found is None else "failed revalidation"
                    report.counterexamples.append(
                        {**where, "lemma": kind.name, "failure": failure}
                    )
    return report
