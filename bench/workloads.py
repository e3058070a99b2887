"""The five benchmark workloads.

Each workload drives listcolor only through its public API.  `setup` does
everything before the first measured op; `run_pass` runs one fixed batch of
ops and reports what was attempted, what failed and how long it took; the
benchmark repeats passes until its time is up.  Why each workload exists is
recorded in bench/README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

TIMEOUT_S = 2.0
# A completed trial slower than this share of its timeout is "near" it: on a
# slower machine it could time out instead, so the timed-out set would drift.
NEAR_TIMEOUT_SHARE = 0.5


def pass_base_seed(seed: int, pass_index: int) -> int:
    """Base seed of pass `pass_index` of a run started with `seed`."""
    return seed * 10_000 + pass_index


def cell_name(n: int, k: int, sigma: int, family: str) -> str:
    return f"{family}{n}k{k}s{sigma}"


@dataclass
class Cell:
    """One run_point call: a (graph, n, k, sigma) grid cell."""

    name: str
    n: int
    k: int
    sigma: int
    trials: int
    records: list = field(default_factory=list)
    error: str | None = None
    wall_s: float = 0.0
    charged_s: float = 0.0

    @property
    def timed_out(self) -> list[int]:
        return sorted(r.trial_index for r in self.records if r.status != "ok")

    @property
    def failed(self) -> int:
        return self.trials if self.error else len(self.timed_out)


@dataclass
class PassResult:
    index: int
    base_seed: int
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    charged_s: float = 0.0
    errors: dict = field(default_factory=dict)  # exception class -> failed ops
    cells: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    def add_cell(self, cell: Cell) -> None:
        self.cells.append(cell)
        self.attempted += cell.trials
        self.failed += cell.failed
        self.wall_s += cell.wall_s
        self.charged_s += cell.charged_s
        if cell.error:
            self.errors[cell.error] = self.errors.get(cell.error, 0) + cell.trials


def _report_exception(where: str, exc: BaseException) -> str:
    """Print the failure (the run goes on) and return the class name that
    the failure accounting records."""
    last = traceback.extract_tb(exc.__traceback__)[-1:]
    at = f" at {last[0].filename}:{last[0].lineno}" if last else ""
    print(f"[bench] {where}: {type(exc).__name__}: {exc}{at}", file=sys.stderr)
    return type(exc).__name__


def run_cell(lc, graph, name, n, k, sigma, trials, base_seed, timeout, workers) -> Cell:
    """One run_point call.  A cell whose run_point raises counts all its
    trials as attempted and failed, and is charged trials x timeout seconds,
    so a fix that turns the crash into real work never reads as a slowdown."""
    cell = Cell(name, n, k, sigma, trials)
    start = time.perf_counter()
    try:
        point = lc.harness.run_point(graph, n, k, sigma, trials, base_seed, timeout, (), workers)
    except Exception as exc:  # one failing cell must not lose the run
        cell.wall_s = time.perf_counter() - start
        cell.error = _report_exception(f"run_point {name} base_seed={base_seed}", exc)
        cell.charged_s = trials * timeout
        return cell
    cell.wall_s = cell.charged_s = time.perf_counter() - start
    cell.records = point.records
    return cell


class Workload:
    name = ""
    family = ""  # cell-name prefix of the graph family its cells use
    workers = 1
    timeout: float | None = None
    # Spans the traced run must see on this workload (wrapper guard).
    expected_spans: tuple[str, ...] = ()

    def grid(self, lc) -> list[tuple[int, int, int, int]]:
        """(n, k, sigma, trials) of every run_point cell, validated by
        ExperimentConfig; empty for workloads without cells."""
        return []

    def setup(self, lc) -> dict[str, float]:
        """Build inputs; returns seconds spent per setup part."""
        raise NotImplementedError

    def run_pass(self, lc, pass_index: int, seed: int, workers: int | None = None,
                 between=None) -> PassResult:
        """Run one pass.  Workloads made of several calls call
        `between(partial_result)` after each one, outside the timed part."""
        raise NotImplementedError


class _CellWorkload(Workload):
    """Workloads made of run_point cells over prebuilt graphs."""

    family = "pc"
    timeout = TIMEOUT_S
    # (n, k, sigmas, trials per cell); power_cycle(n, r) graphs are built in setup.
    grids: tuple = ()
    r: int

    def base_seed(self, seed: int, pass_index: int) -> int:
        return pass_base_seed(seed, pass_index)

    def grid(self, lc):
        cells = []
        for n, k, sigmas, trials in self.grids:
            config = lc.harness.ExperimentConfig.from_dict({
                "family": "power_cycle",
                "family_params": {"r": self.r},
                "n_grid": [n],
                "k": k,
                "sigma_grid": list(sigmas),
                "trials": trials,
                "timeout_seconds": self.timeout,
                "workers": self.workers,
            })
            cells.extend((*cell, config.trials) for cell in config.grid())
        return cells

    def setup(self, lc) -> dict[str, float]:
        t0 = time.perf_counter()
        self.graphs = {n: lc.graphs.power_cycle(n, self.r) for n, *_ in self.grids}
        t1 = time.perf_counter()
        self.cells = self.grid(lc)
        t2 = time.perf_counter()
        return {"graphs.build": t1 - t0, "scaling.grid": t2 - t1}

    def run_pass(self, lc, pass_index, seed, workers=None, between=None) -> PassResult:
        base = self.base_seed(seed, pass_index)
        result = PassResult(pass_index, base)
        for n, k, sigma, trials in self.cells:
            result.add_cell(run_cell(
                lc, self.graphs[n], cell_name(n, k, sigma, self.family), n, k, sigma,
                trials, base, self.timeout, workers or self.workers,
            ))
            if between:
                between(result)
        return result


class TailK2(_CellWorkload):
    """power_cycle(200, 2), k=2: the heavy tail of chronological backtracking.

    Trials here finish within about 40 ms or run past 10 s, so each run's
    cost is set by how many trials time out.  Redrawing the trials per seed
    would move ops_per_s by roughly 30% between seeds (a run sees only a few
    timeouts, and their count varies binomially), so the instance set is fixed
    (base seed 0, trials 0..5 of each cell) and --seed does not change it;
    every pass runs the same twelve trials, which also lets one run check
    that the same trials time out each time."""

    name = "tail_k2"
    r = 2
    grids = ((200, 2, (8, 10), 6),)
    expected_spans = ("harness.run_point", "lists.sample", "solver.solve", "graphs.components")

    def base_seed(self, seed, pass_index):
        return 0


class CyclesK3(_CellWorkload):
    """power_cycle(800, 3) at sigma 8, 12, 20 and power_cycle(2000, 3) at 20,
    k=3: the general backtracking search on large connected graphs, where
    2-SAT cannot apply.  The n=2000 cell raises RecursionError at the seed
    commit; it is kept and counted as failed, never shrunk away.

    That cell is charged 4 x 2 s whatever the code does, so the n=800 cells
    carry enough trials (about 10 s of solving) for their solve time to
    outweigh the fixed charge.  They go to sigma 12 and 20, where 1 of about
    550 trials tried timed out; the sigma=8 cell, where about 1% of trials
    time out (2 s each), keeps 4 trials so that the count of timeouts, and
    with it ops_per_s, does not swing between seeds.  Two cells of about 5 s
    rather than one long one leave room for the set-up samples to be spread
    over the run."""

    name = "cycles_k3"
    r = 3
    grids = (
        (800, 3, (8,), 4),
        (800, 3, (12,), 64),
        (800, 3, (20,), 64),
        (2000, 3, (20,), 4),
    )
    expected_spans = ("harness.run_point", "lists.sample", "solver.solve", "graphs.components")


class SweepCliques(Workload):
    """clique_union(20000, 4), k=2, sigma = c * n^(1/4) * 2 across the p=1/2
    crossing, through ExperimentConfig, sweep and SweepResult.write with a
    two-worker Pool: the paper's k=2 threshold law at scale."""

    name = "sweep_cliques"
    family = "cu"
    workers = 2
    n = 20000
    delta = 4
    trials = 4
    sigma_exprs = ("0.75*n^(1/4)*2", "n^(1/4)*2", "1.25*n^(1/4)*2", "1.5*n^(1/4)*2", "2*n^(1/4)*2")
    expected_spans = ("harness.run_point", "lists.sample", "solver.solve", "graphs.components")

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def grid(self, lc):
        self.config = lc.harness.ExperimentConfig.from_dict({
            "family": "clique_union",
            "family_params": {"delta": self.delta},
            "n_grid": [self.n],
            "k": 2,
            "sigma_grid": list(self.sigma_exprs),
            "trials": self.trials,
            "workers": self.workers,
        })
        self.timeout = self.config.timeout_seconds
        return [(*cell, self.trials) for cell in self.config.grid()]

    def setup(self, lc):
        t0 = time.perf_counter()
        self.graph = lc.graphs.clique_union(self.n, self.delta)
        t1 = time.perf_counter()
        self.cells = self.grid(lc)
        t2 = time.perf_counter()
        return {"graphs.build": t1 - t0, "scaling.grid": t2 - t1}

    def run_pass(self, lc, pass_index, seed, workers=None, between=None):
        base = pass_base_seed(seed, pass_index)
        result = PassResult(pass_index, base)
        self.config.base_seed = base
        self.config.workers = workers or self.workers
        out = self.out_dir / self.name
        start = time.perf_counter()
        try:
            sweep = lc.harness.sweep(self.config)
            swept = time.perf_counter()
            records_path, _ = sweep.write(out)
        except Exception as exc:  # a failing sweep is counted, not fatal
            wall = time.perf_counter() - start
            error = _report_exception(f"sweep base_seed={base}", exc)
            trials = self.trials * len(self.cells)
            result.attempted = result.failed = trials
            result.errors[error] = trials
            result.wall_s = wall
            result.charged_s = trials * self.timeout
            return result
        end = time.perf_counter()
        data = records_path.read_bytes()
        result.detail = {
            "write_s": end - swept,
            "records_bytes": len(data),
            "records_sha256": hashlib.sha256(data).hexdigest(),
        }
        by_sigma: dict[int, list] = {}
        for record in sweep.records():
            by_sigma.setdefault(record.sigma, []).append(record)
        for n, k, sigma, trials in self.cells:
            cell = Cell(cell_name(n, k, sigma, self.family), n, k, sigma, trials,
                        records=by_sigma.get(sigma, []))
            result.add_cell(cell)
        result.wall_s = result.charged_s = end - start
        return result


class LemmaCorpus(Workload):
    """verify_lemmas over every connected graph on at most 7 vertices:
    thousands of tiny solves, critical-core extractions and certificate
    searches and checks.  A pass draws 5 assignments per graph (one per
    (k, sigma) combination); four passes hold as many instances (19,920) as
    verify_lemmas(CorpusSpec(7, 20)), and shorter passes give a run several
    passes to take the median of."""

    name = "lemma_corpus"
    max_vertices = 7
    per_graph = 5
    expected_spans = (
        "corpus.sample", "solver.solve", "solver.extract_critical",
        "graphs.induced_subgraph", "graphs.components", "graphs.girth",
        "certificates.find_bad_triple", "certificates.find_2bad_pair",
        "certificates.find_tree_bad", "certificates.is_bad_triple",
        "certificates.is_2bad_pair", "certificates.is_tree_bad",
    )

    def setup(self, lc):
        t0 = time.perf_counter()
        lc.corpus.small_connected_graphs.cache_clear()
        self.instances = len(lc.corpus.small_connected_graphs(self.max_vertices)) * self.per_graph
        return {"corpus.load": time.perf_counter() - t0}

    def run_pass(self, lc, pass_index, seed, workers=None, between=None):
        base = pass_base_seed(seed, pass_index)
        result = PassResult(pass_index, base)
        spec = lc.harness.CorpusSpec(
            max_vertices=self.max_vertices, assignments_per_graph=self.per_graph, base_seed=base
        )
        start = time.perf_counter()
        try:
            report = lc.harness.verify_lemmas(spec)
        except Exception as exc:  # a failing pass is counted, not fatal
            error = _report_exception(f"verify_lemmas base_seed={base}", exc)
            result.attempted = result.failed = self.instances
            result.errors[error] = self.instances
        else:
            result.attempted = report.instances
            result.failed = len(report.counterexamples)
            result.detail = {"report": report.to_json()}
        result.wall_s = result.charged_s = time.perf_counter() - start
        return result


# (label, n, delta, k, sigma, g)
CATALOG_POINTS = (
    ("n1e6d3k3s400g5", 10**6, 3, 3, 400, 5),
    ("n1e5d3k4s2000g6", 10**5, 3, 4, 2000, 6),
    ("n1e5d4k2s500g5", 10**5, 4, 2, 500, 5),
    ("n1e4d4k2s40g6", 10**4, 4, 2, 40, 6),
)


class BoundsCatalog(Workload):
    """`listcolor bound --bound=regimes` in-process at four fixed points:
    two k>=3 points dominated by the triple series, two k=2 points by the
    pair series.  The points are fixed, so --seed does not change them."""

    name = "bounds_catalog"
    expected_spans = ("bounds.catalog", "bounds.triple_sum", "bounds.pair_sum", "bounds.tree_bound")

    def setup(self, lc):
        self.argvs = [
            (label, ["bound", "--bound=regimes", f"--n={n}", f"--delta={d}", f"--k={k}",
                     f"--sigma={s}", f"--g={g}"])
            for label, n, d, k, s, g in CATALOG_POINTS
        ]
        return {}

    def run_pass(self, lc, pass_index, seed, workers=None, between=None):
        result = PassResult(pass_index, 0)
        outputs = {}
        calls = []
        for label, argv in self.argvs:
            buffer = io.StringIO()
            start = time.perf_counter()
            error = None
            try:
                with contextlib.redirect_stdout(buffer):
                    code = lc.cli.cli_main(argv)
                if code != 0:
                    error = f"exit{code}"
            except Exception as exc:  # a failing call is counted, not fatal
                error = _report_exception(f"cli_main {label}", exc)
            wall = time.perf_counter() - start
            calls.append((label, wall))
            result.attempted += 1
            result.wall_s += wall
            if between:
                between(result)
            if error:
                result.failed += 1
                result.errors[error] = result.errors.get(error, 0) + 1
                continue
            reports = [json.loads(line) for line in buffer.getvalue().splitlines() if line]
            outputs[label] = {rep["name"]: rep for rep in reports}
        result.charged_s = result.wall_s
        result.detail = {"outputs": outputs, "calls": calls}
        return result


def make_workloads(out_dir: Path) -> dict[str, Workload]:
    return {
        "sweep_cliques": SweepCliques(out_dir),
        "tail_k2": TailK2(),
        "cycles_k3": CyclesK3(),
        "lemma_corpus": LemmaCorpus(),
        "bounds_catalog": BoundsCatalog(),
    }
