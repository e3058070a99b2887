"""Correctness and steadiness checks run after the measured passes.

Checks append to `Checker.failures`; any failure makes the run exit
non-zero.  Notes (checks skipped for a stated reason, digests reported for
information) go to `Checker.notes` instead.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import oracles
from workloads import NEAR_TIMEOUT_SHARE, BoundsCatalog, LemmaCorpus, SweepCliques, TailK2

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def code_digest(src: Path) -> str:
    """sha256 over the package sources: "same code" for the steadiness guard."""
    h = hashlib.sha256()
    for path in sorted((src / "listcolor").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def load_reference(name: str) -> dict | None:
    path = REFERENCE_DIR / f"{name}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def pass_entry(wl, result) -> dict:
    """What the reference stores for one pass."""
    if isinstance(wl, LemmaCorpus):
        report = result.detail.get("report", {})
        return {"passed": report.get("passed"), "coverage": report.get("coverage")}
    if isinstance(wl, BoundsCatalog):
        return {
            label: {name: _catalog_values(rep) for name, rep in reports.items()}
            for label, reports in result.detail.get("outputs", {}).items()
        }
    return {
        cell.name: {
            "error": cell.error,
            "trials": [[r.trial_index, r.seed, r.status, r.colorable] for r in cell.records],
        }
        for cell in result.cells
    }


def _catalog_values(rep: dict) -> dict:
    values = {"log_value": rep["log_value"]}
    for key in ("threshold", "bound"):
        if isinstance(rep["extras"].get(key), dict):
            values[key] = rep["extras"][key]["log"]
    return values


class Checker:
    def __init__(self, lc, wl, src: Path, out_dir: Path):
        self.lc = lc
        self.wl = wl
        self.digest = code_digest(src)
        self.ledger_path = out_dir / "timeouts.json"
        self.failures: list[str] = []
        self.notes: list[str] = []
        self.reference = load_reference(wl.name)
        self.csv_version = lc.harness.CSV_VERSION
        self.same_stream = bool(self.reference) and self.reference["csv_version"] == self.csv_version
        self.same_code = bool(self.reference) and self.reference["code_digest"] == self.digest

    def fail(self, message: str) -> None:
        self.failures.append(f"{self.wl.name}: {message}")

    def run(self, passes) -> None:
        if self.reference is None:
            self.notes.append("no committed reference outputs found")
        elif not self.same_stream:
            self.notes.append(
                f"CSV_VERSION is {self.csv_version!r}, the reference has "
                f"{self.reference['csv_version']!r}: stream-dependent comparisons skipped"
            )
        if isinstance(self.wl, LemmaCorpus):
            self.check_lemmas(passes)
        elif isinstance(self.wl, BoundsCatalog):
            self.check_catalog(passes)
        else:
            self.check_cells(passes)

    # -- sweep cells ---------------------------------------------------------

    def check_cells(self, passes) -> None:
        wl = self.wl
        limit_us = NEAR_TIMEOUT_SHARE * wl.timeout * 1e6
        for result in passes:
            for cell in result.cells:
                slow = [r for r in cell.records if r.status == "ok" and r.wall_micros > limit_us]
                for r in slow:
                    self.fail(
                        f"{cell.name} trial {r.trial_index} (base seed {result.base_seed}) "
                        f"completed in {r.wall_micros / 1e6:.2f} s, near the {wl.timeout} s "
                        "timeout: the timed-out set is not steady"
                    )
            self.compare_reference(result)
        self.update_ledger(passes)
        self.check_with_oracle(passes[0])
        digests = sorted({p.detail["records_sha256"] for p in passes if "records_sha256" in p.detail})
        if digests:
            self.notes.append(f"records.csv sha256 (information only): {', '.join(d[:16] for d in digests)}")

    def compare_reference(self, result) -> None:
        if not self.reference:
            return
        expected = self.reference["runs"].get(str(result.base_seed))
        if expected is None:
            return
        for cell in result.cells:
            ref = expected.get(cell.name)
            if ref is None:
                continue
            if self.same_code and (cell.timed_out, cell.error) != (
                sorted(t[0] for t in ref["trials"] if t[2] != "ok"), ref["error"]
            ):
                self.fail(
                    f"{cell.name} base seed {result.base_seed}: timed out {cell.timed_out} "
                    f"(error {cell.error}); the reference run of the same code timed out "
                    f"{sorted(t[0] for t in ref['trials'] if t[2] != 'ok')} (error {ref['error']})"
                )
            if not self.same_stream:
                continue
            by_index = {t[0]: t for t in ref["trials"]}
            for r in cell.records:
                t = by_index.get(r.trial_index)
                if t is None:
                    continue
                if r.seed != t[1]:
                    self.fail(f"{cell.name} trial {r.trial_index}: stream seed {r.seed} != reference {t[1]}")
                elif r.status == "ok" and t[2] == "ok" and r.colorable != t[3]:
                    self.fail(
                        f"{cell.name} trial {r.trial_index} base seed {result.base_seed}: "
                        f"colorable={r.colorable}, reference says {t[3]}"
                    )

    def update_ledger(self, passes) -> None:
        """Timed-out trial indices of every cell, kept across passes and runs
        of the same code in this checkout; a pass that times out differently
        from an earlier one with the same base seed fails (every tail_k2 pass
        has base seed 0, so this also compares its passes within a run)."""
        try:
            ledger = json.loads(self.ledger_path.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError):
            ledger = {}
        book = ledger.setdefault(self.digest, {}).setdefault(self.wl.name, {})
        for result in passes:
            entry = book.setdefault(str(result.base_seed), {})
            for cell in result.cells:
                now = [f"error:{cell.error}"] if cell.error else cell.timed_out
                before = entry.setdefault(cell.name, now)
                if before != now:
                    self.fail(
                        f"{cell.name} base seed {result.base_seed}: timed out {now}, "
                        f"an earlier run of the same code timed out {before}"
                    )
        tmp = self.ledger_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.ledger_path)

    def check_with_oracle(self, result) -> None:
        """Regenerate trials from the harness's seed contract and decide them
        without listcolor's solver (k=2: 2-SAT), or check the witness (k=3)."""
        lc, wl = self.lc, self.wl
        for cell in result.cells:
            if cell.error or not cell.records:
                continue
            graph = wl.graph if isinstance(wl, SweepCliques) else wl.graphs[cell.n]
            chosen = cell.records if isinstance(wl, TailK2) else cell.records[:1]
            point_seed = lc.lists.derive_seed(result.base_seed, cell.n, cell.k, cell.sigma)
            for r in chosen:
                spec = lc.lists.SeedSpec(point_seed, r.trial_index)
                if spec.stream_seed() != r.seed:
                    if self.same_stream:
                        self.fail(f"{cell.name} trial {r.trial_index}: the trial stream changed "
                                  "without a CSV_VERSION bump")
                    else:
                        self.notes.append("trial streams changed with CSV_VERSION: oracle skipped")
                    return
                if r.status != "ok":
                    continue
                assignment = lc.lists.sample_assignment(graph, cell.k, cell.sigma, spec)
                if cell.k == 2:
                    truth = oracles.two_list_colorable(graph.adjacency, assignment.lists)
                    if truth != r.colorable:
                        self.fail(f"{cell.name} trial {r.trial_index}: colorable={r.colorable}, "
                                  f"2-SAT says {truth}")
                    continue
                solved = lc.solver.solve(graph, assignment)
                if solved.colorable != r.colorable:
                    self.fail(f"{cell.name} trial {r.trial_index}: re-solve disagrees")
                elif solved.colorable and not oracles.is_proper_list_coloring(
                    graph.adjacency, assignment.lists, solved.coloring
                ):
                    self.fail(f"{cell.name} trial {r.trial_index}: witness is not a proper list colouring")

    # -- lemma corpus --------------------------------------------------------

    def check_lemmas(self, passes) -> None:
        expected_runs = self.reference["runs"] if self.reference else {}
        for result in passes:
            report = result.detail.get("report")
            if report is None:
                self.fail(f"pass {result.index} produced no report ({result.errors})")
                continue
            if not report["passed"]:
                self.fail(f"pass {result.index}: counterexamples {report['counterexamples'][:3]}")
            if report["coverage"]["instances"] != self.wl.instances:
                self.fail(f"pass {result.index}: {report['coverage']['instances']} instances, "
                          f"expected {self.wl.instances}")
            ref = expected_runs.get(str(result.base_seed))
            if ref and self.same_stream and ref["coverage"] != report["coverage"]:
                self.fail(f"base seed {result.base_seed}: coverage {report['coverage']} != "
                          f"reference {ref['coverage']}")

    # -- bounds catalog ------------------------------------------------------

    def check_catalog(self, passes) -> None:
        if not self.reference:
            return
        expected = self.reference["runs"]["0"]
        LogValue = self.lc.bounds.LogValue
        for result in passes:
            got = pass_entry(self.wl, result)
            for label, regimes in expected.items():
                have = got.get(label)
                if have is None:
                    self.fail(f"pass {result.index}: no output for {label}")
                    continue
                if sorted(have) != sorted(regimes):
                    self.fail(f"{label}: regimes {sorted(have)} != reference {sorted(regimes)}")
                    continue
                for name, values in regimes.items():
                    for key, log in values.items():
                        mine = have[name].get(key)
                        if mine is None or not LogValue(mine).approx_eq(LogValue(log)):
                            self.fail(f"{label} {name} {key}: log {mine} != reference {log}")
