"""In-memory spans recorded around calls into listcolor's layers.

The tracer wraps module attributes through which one layer calls another
(for example ``listcolor.harness.solve``), so every span is recorded from the
benchmark's side of the boundary and nothing under ``src/`` changes.  Spans
carry a name, start, end, parent span and op id; they stay in flat arrays
until the run ends and are then written out in one go.
"""

from __future__ import annotations

import csv
import time
from array import array

# (module, attribute, span name).  Each entry is a place where one layer
# calls into another; the wrapper guard refuses to trace if any is missing.
WRAPPED = (
    ("listcolor.harness", "run_point", "harness.run_point"),
    ("listcolor.harness", "sample_assignment", "lists.sample"),
    ("listcolor.harness", "solve", "solver.solve"),
    ("listcolor.harness", "girth", "graphs.girth"),
    ("listcolor.harness", "small_connected_graphs", "corpus.load"),
    ("listcolor.harness", "corpus_assignments", "corpus.sample"),
    ("listcolor.solver", "solve", "solver.solve"),
    ("listcolor.solver", "connected_components", "graphs.components"),
    ("listcolor.solver", "induced_subgraph", "graphs.induced_subgraph"),
    ("listcolor.certificates", "solve", "solver.solve"),
    ("listcolor.certificates", "extract_critical", "solver.extract_critical"),
    ("listcolor.certificates", "girth", "graphs.girth"),
    ("listcolor.certificates", "find_bad_triple", "certificates.find_bad_triple"),
    ("listcolor.certificates", "find_2bad_pair", "certificates.find_2bad_pair"),
    ("listcolor.certificates", "find_tree_bad", "certificates.find_tree_bad"),
    ("listcolor.certificates", "is_bad_triple", "certificates.is_bad_triple"),
    ("listcolor.certificates", "is_2bad_pair", "certificates.is_2bad_pair"),
    ("listcolor.certificates", "is_tree_bad", "certificates.is_tree_bad"),
    ("listcolor.bounds", "girth_regime_bounds", "bounds.catalog"),
    ("listcolor.bounds", "bad_triple_expectation_sum", "bounds.triple_sum"),
    ("listcolor.bounds", "pair_expectation_sum", "bounds.pair_sum"),
    ("listcolor.bounds", "tree_bad_expectation_bound", "bounds.tree_bound"),
)

PROBE = "bench.probe"


class WrapperGuardError(RuntimeError):
    """A wrapped attribute is missing, or an expected span never fired."""


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.errors: dict[int, str] = {}
        self.op_info: dict[int, dict] = {}
        self.current_op = -1
        self._stack: list[int] = []

    def next_op(self, **info) -> int:
        self.current_op += 1
        if info:
            self.op_info[self.current_op] = info
        return self.current_op

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int, error: str | None = None) -> None:
        self.end[idx] = time.perf_counter()
        if error is not None:
            self.errors[idx] = error
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack out of order: closing {idx}, top was {popped}")

    def name(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def by_name(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {name: [] for name in self.names}
        for i, nid in enumerate(self.name_id):
            out[self.names[nid]].append(i)
        return out

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its direct children
        cover (children never overlap: the traced run is single-threaded)."""
        child_total = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_total[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i in range(len(self.start)):
            name = self.names[self.name_id[i]]
            out[name] = out.get(name, 0.0) + (self.end[i] - self.start[i]) - child_total[i]
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(("span", "name", "start_s", "end_s", "parent", "op", "error"))
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                writer.writerow((
                    i, self.names[self.name_id[i]],
                    f"{self.start[i] - t0:.9f}", f"{self.end[i] - t0:.9f}",
                    self.parent[i], self.op[i], self.errors.get(i, ""),
                ))


def _plain_wrapper(tracer, original, span, before, after):
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        idx = tracer.begin(span)
        try:
            result = original(*args, **kwargs)
        except BaseException as exc:
            tracer.finish(idx, type(exc).__name__)
            raise
        tracer.finish(idx)
        if after is not None:
            probe = tracer.begin(PROBE)
            try:
                after(idx, args, kwargs, result)
            finally:
                tracer.finish(probe)
        return result

    return wrapper


def _generator_wrapper(tracer, original, span):
    """Each item drawn from the generator is one op and one span."""

    def wrapper(*args, **kwargs):
        items = original(*args, **kwargs)
        while True:
            tracer.next_op()
            idx = tracer.begin(span)
            try:
                item = next(items)
            except StopIteration:
                tracer.finish(idx, "StopIteration")
                return
            tracer.finish(idx)
            yield item

    return wrapper


class Installed:
    """Wrappers patched onto listcolor's modules; `remove` restores them."""

    def __init__(self, tracer: Tracer, modules: dict, hooks: dict):
        """`hooks` maps a span name to (before, after): `before(args, kwargs)`
        runs ahead of the span, `after(span, args, kwargs, result)` runs after
        it inside a probe span, so checks are not billed to the layer."""
        self._saved = []
        for module_name, attr, span in WRAPPED:
            module = modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                self.remove()
                raise WrapperGuardError(f"wrapped attribute {module_name}.{attr} is missing")
            if attr == "corpus_assignments":
                wrapper = _generator_wrapper(tracer, original, span)
            else:
                before, after = hooks.get(span, (None, None))
                wrapper = _plain_wrapper(tracer, original, span, before, after)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper)

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def require_spans(by_name: dict, expected: tuple[str, ...], workload: str) -> None:
    missing = [name for name in expected if not by_name.get(name)]
    if missing:
        raise WrapperGuardError(
            f"{workload}: expected spans never fired: {', '.join(missing)}"
        )
