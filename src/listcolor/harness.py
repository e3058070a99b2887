"""Seeded Monte Carlo experiments: single grid points, threshold sweeps, and
the lemma-verification suites.

Determinism contract: every trial's random stream is a pure function of
(config base seed, n, k, sigma, trial index), aggregation is a fold in
trial-index order, and records.csv is sorted by (n, sigma, trial_index) --
so reruns and different worker counts produce byte-identical CSV as long as
no wall-clock timeout fires.  Past a fixed node count the solver decides a
component with an exact frontier DP, so a timeout can fire only on a
component whose frontier is too wide for it.  Per-trial wall times are kept
out of the CSV to keep it byte-identical (they live in summary.json as
per-point means).

Worker model: a sweep builds each n's graph once.  With workers > 1,
run_point forks a Pool whose workers inherit that graph at fork time (it is
an initializer argument, which fork does not pickle); each job carries only
the trial's seed coordinates.  A trial that raises an unexpected exception
is recorded with status "error" instead of ending the sweep.

Graph families and certificate kinds come from one registry each,
graphs.FAMILIES and certificates.CERTIFICATE_KINDS; a trial tries only the
requested kinds whose `obstacle` is None for its k and graph.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import certificates as certs
from .corpus import corpus_assignments, default_combos, small_connected_graphs
from .errors import ConfigError, GuardExceededError, InvalidParameterError, SolveTimeout
from .graphs import FAMILIES, Graph, girth
from .lists import ListAssignment, SeedSpec, derive_seed, sample_assignment
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

# What ExperimentConfig.from_dict accepts; docs/config.schema.json must agree
# (tests/test_harness.py checks it).
_REQUIRED_KEYS = ("family", "n_grid", "sigma_grid", "trials")
_CONFIG_KEYS = (
    *_REQUIRED_KEYS,
    "family_params", "k", "base_seed", "timeout_seconds", "certificates", "workers",
    "output_dir",
)


# ---------------------------------------------------------------------------
# graph families


@dataclass(frozen=True)
class GraphFamily:
    """A named graph builder parameterized by the grid variable n."""

    name: str
    params: dict

    def build(self, n: int) -> Graph:
        if self.name not in FAMILIES:
            raise ConfigError(f"unknown graph family {self.name!r}")

        def as_int(raw):
            return raw.evaluate_int(n) if isinstance(raw, ScalingExpr) else int(raw)

        generator, arg_names = FAMILIES[self.name]
        args = []
        for key in arg_names:
            raw = n if key == "n" else self.params.get(key)
            if raw is None or raw == []:
                raise ConfigError(f"family {self.name!r} needs parameter {key!r}")
            args.append([as_int(p) for p in raw] if key == "parts" else as_int(raw))
        return generator(*args)


def _family_params(name: str) -> list[str]:
    """The family_params keys a family needs: its generator's arguments but n."""
    return [key for key in FAMILIES[name][1] if key != "n"]


def _coerce_expr(raw) -> ScalingExpr:
    if isinstance(raw, ScalingExpr):
        return raw
    if isinstance(raw, (int, float)):
        return parse_scaling(str(raw))
    if isinstance(raw, str):
        return parse_scaling(raw)
    raise ConfigError(f"expected a number or expression string, got {raw!r}")


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


def wilson_interval(successes: int, trials: int, z: float = _WILSON_Z) -> tuple[float, float]:
    """Score interval for a binomial proportion; stable near 0 and 1."""
    if trials == 0:
        raise InvalidParameterError("interval needs at least one trial")
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _check_run_args(timeout_seconds, certificate_kinds, workers, error) -> None:
    """The checks run_point and ExperimentConfig share, raising `error`."""
    if timeout_seconds is not None and (
        isinstance(timeout_seconds, bool)
        or not isinstance(timeout_seconds, (int, float))
        or not timeout_seconds >= 0
    ):
        raise error(
            f"timeout_seconds must be a non-negative number or null, got {timeout_seconds!r}"
        )
    unknown = [kind for kind in certificate_kinds if kind not in certs.CERTIFICATE_KINDS]
    if unknown:
        raise error(
            f"unknown certificate kinds {unknown}; known: {', '.join(certs.CERTIFICATE_KINDS)}"
        )
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise error(f"workers must be an integer >= 1, got {workers!r}")


def _detect_certificate(g, assignment, kinds) -> str:
    """Label of the first certificate found, trying the applicable `kinds`
    in order; "guard-exceeded" when a finder hits its guard first."""
    for name in kinds:
        kind = certs.CERTIFICATE_KINDS[name]
        if kind.obstacle(assignment.k, g) is not None:
            continue
        try:
            if kind.find(g, assignment) is not None:
                return kind.label
        except GuardExceededError:
            return "guard-exceeded"
    return "none"


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
            certificate = _detect_certificate(g, assignment, cert_kinds)
    except SolveTimeout:
        return unfinished("timeout")
    except Exception as exc:  # one bad trial must not lose the sweep
        return unfinished("error", type(exc).__name__)
    return TrialRecord(
        n, k, sigma, trial_index, seed.stream_seed(), "ok",
        result.colorable, result.stats.nodes, certificate, wall,
    )


# The graph of the current run_point, set in each Pool worker by
# _init_worker; the serial path passes its graph directly and never sets it.
_worker_graph: Graph | None = None


def _init_worker(g: Graph) -> None:
    global _worker_graph
    _worker_graph = g


def _run_worker_trial(job: tuple) -> TrialRecord:
    return _run_trial(_worker_graph, job)


def run_point(
    family: GraphFamily | Graph,
    n: int,
    k: int,
    sigma: int,
    trials: int,
    base_seed: int,
    timeout_seconds: float | None = 5.0,
    certificate_kinds: tuple[str, ...] = (),
    workers: int = 1,
) -> PointResult:
    """Estimate the colorability probability at one (n, k, sigma) grid cell.

    `family` is built at `n` unless it is already a Graph.  With workers > 1
    the trials run in a fork Pool whose workers inherit the graph at fork;
    each job carries only (n, k, sigma, trial index, point seed, timeout,
    certificate kinds), so no graph is pickled.

    Timed-out trials and trials that raised (status "error") are recorded,
    counted separately, and excluded from p_hat (never silently dropped).
    The aggregate is a deterministic fold over trial indices, independent of
    worker scheduling.
    """
    if trials < 1:
        raise InvalidParameterError("need at least one trial")
    if k > sigma:
        raise InvalidParameterError(f"k={k} exceeds sigma={sigma}")
    _check_run_args(timeout_seconds, certificate_kinds, workers, InvalidParameterError)
    g = family if isinstance(family, Graph) else family.build(n)
    point_seed = derive_seed(base_seed, n, k, sigma)
    jobs = [
        (n, k, sigma, i, point_seed, timeout_seconds, certificate_kinds)
        for i in range(trials)
    ]
    if workers > 1:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(workers, _init_worker, (g,)) as pool:
            records = pool.map(
                _run_worker_trial, jobs, chunksize=max(1, trials // (4 * workers))
            )
    else:
        records = [_run_trial(g, job) for job in jobs]
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
        """Validate `raw` against docs/config.schema.json's rules up front,
        so no sweep fails on its config after it has started."""
        if not isinstance(raw, dict):
            raise ConfigError(f"a config is a JSON object, got {type(raw).__name__}")
        unknown = sorted(set(raw) - set(_CONFIG_KEYS))
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}")
        missing = [key for key in _REQUIRED_KEYS if key not in raw]
        if missing:
            raise ConfigError(f"missing config keys {missing}")
        family_name = raw["family"]
        if not isinstance(family_name, str) or family_name not in FAMILIES:
            raise ConfigError(
                f"unknown graph family {family_name!r}; known: {', '.join(FAMILIES)}"
            )
        try:
            n_grid = tuple(int(x) for x in raw["n_grid"])
            trials = int(raw["trials"])
            base_seed = int(raw.get("base_seed", 0))
            workers = int(raw.get("workers", 1))
            raw_params = dict(raw.get("family_params", {}))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config: {exc}") from None
        if not n_grid:
            raise ConfigError("n_grid must be non-empty")
        if trials < 1:
            raise ConfigError("trials must be >= 1")
        known_params = {key for name in FAMILIES for key in _family_params(name)}
        unknown = sorted(set(raw_params) - known_params)
        if unknown:
            raise ConfigError(f"unknown family_params keys {unknown}")
        missing = [key for key in _family_params(family_name) if key not in raw_params]
        if missing:
            raise ConfigError(f"family {family_name!r} needs family_params {missing}")
        params = {}
        for key, value in raw_params.items():
            if key == "parts":
                if not isinstance(value, list):
                    raise ConfigError(f"'parts' must be a list, got {value!r}")
                params[key] = [_coerce_expr(p) for p in value]
            else:
                params[key] = _coerce_expr(value)
        sigma_raw = raw["sigma_grid"]
        if not sigma_raw:
            raise ConfigError("sigma_grid must be non-empty")
        certificate_kinds = raw.get("certificates", ())
        if not isinstance(certificate_kinds, (list, tuple)):
            raise ConfigError(f"certificates must be a list, got {certificate_kinds!r}")
        timeout_seconds = raw.get("timeout_seconds", 5.0)
        _check_run_args(timeout_seconds, certificate_kinds, workers, ConfigError)
        config = cls(
            family=GraphFamily(family_name, params),
            n_grid=n_grid,
            k_expr=_coerce_expr(raw.get("k", 2)),
            sigma_exprs=tuple(_coerce_expr(x) for x in sigma_raw),
            trials=trials,
            base_seed=base_seed,
            timeout_seconds=timeout_seconds,
            certificate_kinds=tuple(certificate_kinds),
            workers=workers,
            output_dir=raw.get("output_dir"),
        )
        config.grid()  # validates every cell
        return config

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def grid(self) -> list[tuple[int, int, int]]:
        """Evaluated (n, k, sigma) cells, validating positivity and k <= sigma."""
        cells = []
        for n in self.n_grid:
            k = self.k_expr.evaluate_int(n)
            if k < 1:
                raise ConfigError(f"k({n}) = {k} is not positive")
            sigmas = []
            for expr in self.sigma_exprs:
                sigma = expr.evaluate_int(n)
                if sigma < 1:
                    raise ConfigError(f"sigma({n}) = {sigma} is not positive")
                if k > sigma:
                    raise ConfigError(f"k({n}) = {k} exceeds sigma({n}) = {sigma}")
                sigmas.append(sigma)
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
    diagnostics per n.  Each n's graph is built once and shared by its
    cells (and inherited by their Pool workers)."""
    points: list[PointResult] = []
    crossings: dict[int, float | None] = {}
    trends: dict[int, int] = {}
    cells = config.grid()
    for n in config.n_grid:
        g = config.family.build(n)
        row = [
            run_point(
                g,
                n,
                k,
                sigma,
                config.trials,
                config.base_seed,
                config.timeout_seconds,
                config.certificate_kinds,
                config.workers,
            )
            for nn, k, sigma in cells
            if nn == n
        ]
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
    combos: tuple[tuple[int, int], ...] = field(default_factory=default_combos)
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

    For every uncolorable sampled instance and every certificate kind whose
    `obstacle` is None (proper triples always; pairs at k=2; rooted proper
    trees at k >= 2 and girth above three), the finder must find a bad one
    and it must re-validate.  Counterexamples (there should be
    none; these are proved implications) are returned as report content,
    not raised.
    """
    spec = spec or CorpusSpec()
    report = LemmaReport()
    graphs = small_connected_graphs(spec.max_vertices)
    for gi, g in enumerate(graphs):
        gv = girth(g)
        for ai, assignment in corpus_assignments(
            g, gi, spec.assignments_per_graph, spec.combos, spec.base_seed
        ):
            report.instances += 1
            if solve(g, assignment).colorable:
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
                found = certs.find_certificate(g, assignment, kind.name)
                if found is None or not found[1]:
                    failure = "not found" if found is None else "failed revalidation"
                    report.counterexamples.append(
                        {**where, "lemma": kind.name, "failure": failure}
                    )
    return report


# ---------------------------------------------------------------------------
# identical-list clique counting (for the disjoint-clique family)


def identical_list_clique_count(g: Graph, assignment: ListAssignment, k: int) -> int:
    """Number of (k+1)-cliques whose vertices all carry the same list, for
    graphs whose non-trivial components are cliques (the clique_union
    family); grouping by component keeps this linear."""
    from collections import Counter

    from .graphs import connected_components

    total = 0
    for comp in connected_components(g):
        if len(comp) < k + 1:
            continue
        size = len(comp)
        members = set(comp)
        actual = sum(1 for u in comp for w in g.adjacency[u] if w in members) // 2
        if actual != size * (size - 1) // 2:
            raise InvalidParameterError("component is not a clique; counting unsupported")
        tally = Counter(assignment[v] for v in comp)
        for repeats in tally.values():
            total += math.comb(repeats, k + 1)
    return total
