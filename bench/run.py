"""listcolor pipeline benchmark: one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; listcolor is imported from its src/.

--trace 0 repeats passes of the workload for about S seconds with tracing
off and prints the end-to-end metrics: setup_s, ops_per_s, fail_frac and
peak_rss_mb.  --trace 1 runs pass 0 untraced and then traced at one worker,
and prints the per-layer metrics.  Either way the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}, and the exit code
is 1 when any correctness or steadiness check fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from spans import WrapperGuardError

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Set-up is repeated in fresh interpreters and reported as the median of
# SETUP_SAMPLES samples.
SETUP_SAMPLES = 21

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("peak_rss_mb", "MiB"),
)

MODULES = ("harness", "lists", "solver", "graphs", "certificates", "bounds", "cli", "corpus")


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to a wrong answer)."""


def import_listcolor() -> SimpleNamespace:
    """Import listcolor from this checkout's src/ and nowhere else."""
    package = SRC / "listcolor"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no listcolor package under {SRC}: run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"listcolor.{name}") for name in MODULES}
    found = Path(modules["harness"].__file__).resolve()
    if package.resolve() not in found.parents:
        raise BenchError(f"listcolor resolved to {found}, outside {package}")
    return SimpleNamespace(**modules)


def timed_setup(name: str):
    from workloads import make_workloads

    start = time.perf_counter()
    lc = import_listcolor()
    wl = make_workloads(OUT_DIR)[name]
    parts = wl.setup(lc)
    return lc, wl, parts, time.perf_counter() - start


def setup_in_fresh_interpreter(name: str) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if done.returncode != 0:
        raise BenchError(f"set-up in a fresh interpreter failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def children_peak_kib() -> int:
    """Peak RSS of the largest child waited for so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def peak_rss_mb(pool_peak_kib: int) -> float:
    """Peak RSS of this process plus that of its largest Pool worker."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + pool_peak_kib) / 1024


def check_declared(lc) -> list[str]:
    """Fail unless BENCHMARK.json declares exactly the metrics printed here,
    so a changed grid cannot leave a declared solver.* metric reading 0.
    Returns the names of the solver cells, built from the workloads' grids."""
    from layers import per_layer_metrics, solver_cells
    from workloads import make_workloads

    cells = solver_cells(lc, make_workloads(OUT_DIR).values())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for kind, printed in (("end_to_end", list(END_TO_END)), ("per_layer", per_layer_metrics(cells))):
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        if declared != printed:
            raise BenchError(
                f"BENCHMARK.json {kind} differs from the metrics bench/ prints: "
                f"{sorted(set(declared) ^ set(printed))}"
            )
    return cells


def fail_summary(passes) -> tuple[int, int, dict]:
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    by_class: dict[str, int] = {}
    for p in passes:
        for cell in p.cells:
            if cell.timed_out and not cell.error:
                by_class["timeout"] = by_class.get("timeout", 0) + len(cell.timed_out)
        for error, count in p.errors.items():
            by_class[error] = by_class.get(error, 0) + count
    return attempted, failed, by_class


def print_result(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


class SetupSampler:
    """Set-up samples taken in fresh interpreters, spread evenly over the
    measured time of a run.  The machine's speed drifts over seconds, so
    samples taken back to back would all see the same moment of it."""

    def __init__(self, name: str, seconds: float, first_s: float):
        self.name = name
        self.seconds = seconds
        self.samples = [first_s]

    def catch_up(self, measured_s: float) -> None:
        """Take every sample whose turn has come after `measured_s` seconds."""
        while (len(self.samples) < SETUP_SAMPLES
               and measured_s >= len(self.samples) * self.seconds / SETUP_SAMPLES):
            self.samples.append(setup_in_fresh_interpreter(self.name))


def measured_run(args, lc, wl, first_setup_s: float) -> int:
    from checks import Checker

    passes = []
    sampler = SetupSampler(wl.name, args.seconds, first_setup_s)
    pool_peak_kib = 0

    def between(partial) -> None:
        sampler.catch_up(sum(p.wall_s for p in passes) + partial.wall_s)

    while True:
        # Pool workloads run a pass as one call and never call `between`, so
        # no set-up interpreter has ended before their first pass's Pool.
        passes.append(wl.run_pass(lc, len(passes), args.seed, between=between))
        if len(passes) == 1 and wl.workers > 1:
            # Only Pool workers have ended so far; later children are set-up
            # interpreters, which are not part of the program's footprint.
            pool_peak_kib = children_peak_kib()
        measured = sum(p.wall_s for p in passes)
        sampler.catch_up(measured)
        # stop once less than half a mean pass of the budget remains
        if measured + 0.5 * measured / len(passes) >= args.seconds:
            break
    sampler.catch_up(float("inf"))
    setups = sampler.samples
    checker = Checker(lc, wl, SRC, OUT_DIR)
    checker.run(passes)

    attempted, failed, by_class = fail_summary(passes)
    # The median over passes keeps a slow spell of the machine in one pass
    # from moving the run's figure.
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(p.attempted / p.charged_s for p in passes),
        "peak_rss_mb": peak_rss_mb(pool_peak_kib),
    }
    units = dict(END_TO_END)
    print(f"workload {wl.name}  seed {args.seed}  passes {len(passes)}  "
          f"measured {sum(p.wall_s for p in passes):.2f} s  "
          f"(ops/s per pass: {', '.join(f'{p.attempted / p.charged_s:.4g}' for p in passes)})")
    for name, unit in END_TO_END:
        print(f"  {name:<12} {metrics[name]:>14.6g} {unit}")
    print(f"  {'fail_frac':<12} {failed / attempted:>14.6g} ratio  "
          f"({failed} of {attempted} ops failed: {json.dumps(by_class, sort_keys=True)})")
    print(f"  set-up samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
    for result in passes:
        for cell in result.cells:
            if cell.timed_out or cell.error:
                print(f"  base seed {result.base_seed} {cell.name}: timed out {cell.timed_out}"
                      + (f", raised {cell.error} (charged {cell.charged_s:.0f} s)" if cell.error else ""))
    report(checker)
    print_result(not checker.failures, attempted, failed, metrics, units)
    return 1 if checker.failures else 0


def traced_run(args, lc, wl, parts, cells: list[str]) -> int:
    from checks import Checker
    from layers import TraceHooks, derive, per_layer_metrics, tail_level
    from spans import Installed, Tracer, require_spans

    untraced = wl.run_pass(lc, 0, args.seed)
    serial = wl.run_pass(lc, 0, args.seed, workers=1) if wl.workers > 1 else untraced
    tracer = Tracer()
    hooks = TraceHooks(lc, tracer, wl.family)
    modules = {f"listcolor.{name}": getattr(lc, name) for name in MODULES}
    installed = Installed(tracer, modules, hooks.table())
    try:
        traced = wl.run_pass(lc, 0, args.seed, workers=1)
    finally:
        installed.remove()
    by_name = tracer.by_name()
    require_spans(by_name, wl.expected_spans, wl.name)

    checker = Checker(lc, wl, SRC, OUT_DIR)
    checker.run([untraced, traced] if serial is untraced else [untraced, serial, traced])
    checker.failures.extend(f"{wl.name} traced: {f}" for f in hooks.failures)
    if hooks.found and hooks.certificate_checks != sum(hooks.found.values()):
        checker.failures.append(
            f"{wl.name}: {sum(hooks.found.values())} certificates found, "
            f"{hooks.certificate_checks} checked"
        )

    values = derive(tracer, by_name, hooks, parts, untraced, serial, traced, wl, cells)
    per_layer = per_layer_metrics(cells)
    units = dict(per_layer)
    if set(values) != set(units):
        raise BenchError(f"per-layer metrics out of step: {sorted(set(values) ^ set(units))}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.csv"
    tracer.write_csv(spans_path)
    self_times = tracer.self_times()

    attempted, failed, by_class = fail_summary([traced])
    print(f"workload {wl.name}  seed {args.seed}  traced pass 0 at 1 worker: "
          f"{len(tracer.start)} spans written to {spans_path.relative_to(ROOT)}")
    print(f"  untraced {untraced.wall_s:.3f} s at {wl.workers} worker(s), "
          f"{serial.wall_s:.3f} s at 1 worker; traced {traced.wall_s:.3f} s "
          f"(slowdown {values['trace.slowdown']:+.1%})")
    print(f"  failed ops {failed} of {attempted}: {json.dumps(by_class, sort_keys=True)}")
    print(f"  checks: {hooks.witness_checks} witnesses verified, "
          f"{hooks.certificate_checks} certificates re-checked")
    print("  self time by span (s): " + ", ".join(
        f"{name} {t:.4f}" for name, t in sorted(self_times.items(), key=lambda kv: -kv[1])
    ))
    for name, unit in per_layer:
        value = values[name]
        note = ""
        if name.endswith(".tail"):
            count = values[name[: -len("tail")] + "n"]
            level = tail_level(int(count))
            note = f"  (p{level * 100:.4g} of {count})" if level else f"  (max of {count})"
        if value:
            print(f"  {name:<52} {value:>14.6g} {unit}{note}")
    for cell in traced.cells:
        if cell.error:
            print(f"  solver.errors.{cell.name}.{cell.error} = {cell.trials}")
    report(checker)
    print_result(not checker.failures, attempted, failed, values, units)
    return 1 if checker.failures else 0


def report(checker) -> None:
    for note in checker.notes:
        print(f"  note: {note}")
    if checker.failures:
        for failure in checker.failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(f"  checks: {'all passed' if not checker.failures else f'{len(checker.failures)} FAILED'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep_cliques", "tail_k2", "cycles_k3", "lemma_corpus",
                                 "bounds_catalog"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the workload's set-up in this interpreter and exit")
    args = parser.parse_args(argv)
    try:
        lc, wl, parts, setup_s = timed_setup(args.workload)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        cells = check_declared(lc)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        if args.trace:
            return traced_run(args, lc, wl, parts, cells)
        return measured_run(args, lc, wl, setup_s)
    except (BenchError, WrapperGuardError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
