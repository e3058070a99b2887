import hashlib
import json
import math
import multiprocessing
import multiprocessing.pool
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listcolor import certificates as certs
from listcolor import graphs, harness
from listcolor.certificates import CERTIFICATE_KINDS, certificate_to_json, certify
from listcolor.cli import _build_parser
from listcolor.corpus import small_connected_graphs
from listcolor.errors import ConfigError, InvalidParameterError
from listcolor.graphs import (
    FAMILIES,
    Graph,
    clique_union,
    complete_multipartite,
    petersen,
    power_cycle,
)
from listcolor.harness import (
    CorpusSpec,
    ExperimentConfig,
    GraphFamily,
    p_half_crossing,
    run_point,
    sweep,
    verify_lemmas,
    wilson_interval,
)
from listcolor.lists import ListAssignment, SeedSpec, sample_assignment
from listcolor.solver import solve
from support import identical_list_clique_count


def small_config(**overrides):
    raw = {
        "family": "clique_union",
        "family_params": {"delta": "2"},
        "n_grid": [12],
        "k": "2",
        "sigma_grid": ["2", "3", "4"],
        "trials": 80,
        "base_seed": 4242,
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


class TestRunPoint:
    def test_forced_lists_make_triangles_uncolorable(self):
        point = run_point(clique_union(15, 2), 15, 2, 2, 300, 9)
        assert point.p_hat == 0.0

    def test_single_triangle_matches_exact_probability(self):
        """A lone triangle with 2-lists from 3 colors fails exactly when all
        three lists coincide, so p_hat targets 8/9."""
        import itertools

        from listcolor.graphs import Graph
        from listcolor.solver import brute_force_colorable

        # exhaustive case analysis over all 27 triples of 2-subsets
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        subsets = list(itertools.combinations(range(1, 4), 2))
        for trio in itertools.product(subsets, repeat=3):
            colorable = brute_force_colorable(g, ListAssignment(3, 2, trio))
            assert colorable == (len(set(trio)) != 1)

        trials = 100_000
        point = run_point(clique_union(3, 2), 3, 2, 3, trials, 31337)
        p = 8 / 9
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(point.p_hat - p) < 3 * se

    def test_zero_trials_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_point(petersen(), 10, 2, 4, 0, 1)

    def test_timeouts_reported_not_dropped(self):
        point = run_point(clique_union(9, 2), 9, 2, 3, 20, 5, timeout_seconds=0.0)
        assert point.timeouts == 20
        assert point.completed == 0
        assert point.p_hat is None
        assert all(r.status == "timeout" for r in point.records)

    def test_certificate_detectors_record_kind(self):
        point = run_point(
            clique_union(9, 2),
            9, 2, 2, 10, 5,
            certificate_kinds=("triple",),
        )
        failures = [r for r in point.records if r.colorable is False]
        assert failures
        assert all(r.certificate == "bad-triple" for r in failures)

    def test_core_guard_is_recorded(self):
        """Every list {1,2} on C13: the 13-vertex core is above the triple
        finder's guard, so each trial records guard-exceeded."""
        point = run_point(power_cycle(13, 1), 13, 2, 2, 3, 0, None, ("triple",))
        assert [r.certificate for r in point.records] == ["guard-exceeded"] * 3

    def test_core_guard_does_not_stop_later_kinds(self):
        """The triple finder's guard is recorded only when no requested kind
        certifies: here the pair does."""
        point = run_point(power_cycle(13, 1), 13, 2, 2, 3, 0, None, ("triple", "pair"))
        assert [r.certificate for r in point.records] == ["2bad-pair"] * 3

    def test_tree_certificate_on_petersen(self):
        point = run_point(petersen(), 10, 2, 2, 3, 0, None, ("tree",))
        assert [(r.colorable, r.certificate) for r in point.records] == [(False, "tree-bad")] * 3

    def test_no_tree_certificate_at_k_one(self):
        """With 1-lists from {1} Petersen is uncolorable, but no rooted
        proper tree exists for k=1: nothing is found."""
        point = run_point(petersen(), 10, 1, 1, 2, 3, None, ("tree",))
        assert [(r.colorable, r.certificate) for r in point.records] == [(False, "none")] * 2

    def test_raising_trial_is_recorded_as_error(self, monkeypatch):
        """A trial whose solve raises becomes one "error" record; the other
        trials of the point still run and the estimate skips it."""
        real_solve = harness.solve
        calls = []

        def flaky_solve(g, assignment, **kwargs):
            calls.append(None)
            if len(calls) == 3:  # trial index 2: trials run in order at workers=1
                raise RuntimeError("injected")
            return real_solve(g, assignment, **kwargs)

        monkeypatch.setattr(harness, "solve", flaky_solve)
        point = run_point(clique_union(9, 2), 9, 2, 3, 10, 5)
        bad = point.records[2]
        assert (bad.status, bad.error, bad.colorable, bad.solve_nodes) == (
            "error", "RuntimeError", None, 0
        )
        assert bad.csv_row()[5:] == ["error", "", 0, ""]
        others = point.records[:2] + point.records[3:]
        assert all(r.status == "ok" and r.error == "" for r in others)
        assert (point.completed, point.timeouts, point.errors) == (9, 0, 1)
        ok = [r for r in point.records if r.status == "ok"]
        assert point.p_hat == sum(r.colorable for r in ok) / 9
        summary = point.summary()
        assert (summary["errors"], summary["timeouts"], summary["completed"]) == (1, 0, 9)

    def test_tree_certificates_on_a_499_cycle(self):
        """Every list is {1, 2}: each trial is uncolorable, and its tree
        spans the whole cycle."""
        point = run_point(power_cycle(499, 1), 499, 2, 2, 3, 0, None, ("tree",))
        assert [(r.status, r.certificate) for r in point.records] == [("ok", "tree-bad")] * 3
        assert point.p_hat == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"workers": 0},
        {"certificate_kinds": ("tripel",)},
        {"certificate_kinds": (["triple"],)},
        {"timeout_seconds": "5"},
        {"timeout_seconds": -1.0},
    ])
    def test_bad_arguments_rejected_before_any_trial(self, kwargs):
        with pytest.raises(InvalidParameterError):
            run_point(clique_union(9, 2), 9, 2, 3, 10, 5, **kwargs)

    def test_k_below_one_rejected_before_any_trial(self, monkeypatch):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "_run_trial", no_trial)
        with pytest.raises(InvalidParameterError, match="k=0"):
            run_point(clique_union(9, 2), 9, 0, 3, 4, 5)

    @pytest.mark.parametrize("key, value", [
        *[("trials", v) for v in (1, 2.0, 0, 2.5, True, "2", None, [2])],
        *[("timeout_seconds", v)
          for v in (0, 1.5, 30.0, math.inf, None, -1, -0.5, math.nan, "5", False, [1])],
        *[("certificates", v)
          for v in ([], ["triple", "tree"], ["tripel"], "triple", [["triple"]], [1], None)],
        *[("workers", v) for v in (1, 2.0, 0, -1, 2.5, True, "2", None, math.nan)],
    ])
    def test_refuses_exactly_what_a_config_refuses(self, key, value):
        """run_point's trials, timeout_seconds, certificate_kinds and workers
        follow the rules of the config keys of the same names."""
        try:
            small_config(**{key: value})
            config_refuses = False
        except ConfigError:
            config_refuses = True
        param = "certificate_kinds" if key == "certificates" else key
        try:
            run_point(clique_union(9, 2), 9, 2, 3,
                      **{"trials": 2, "base_seed": 5, param: value})
            point_refuses = False
        except InvalidParameterError:
            point_refuses = True
        assert point_refuses == config_refuses


def count_girth_computations(monkeypatch) -> list:
    """Wrap harness.girth and certificates.girth; the returned list gets one
    entry per call on a graph that does not hold its girth yet, i.e. per
    call that runs the BFS."""
    computed = []

    def counting(original):
        def wrapper(g):
            if getattr(g, "_girth", None) is None:
                computed.append(g)
            return original(g)
        return wrapper

    monkeypatch.setattr(harness, "girth", counting(harness.girth))
    monkeypatch.setattr(certs, "girth", counting(certs.girth))
    return computed


def count_pools(monkeypatch) -> list:
    """Wrap Pool construction; the returned list gets each Pool's size."""
    sizes = []
    real_init = multiprocessing.pool.Pool.__init__

    def counting_init(self, processes=None, *args, **kwargs):
        sizes.append(processes)
        real_init(self, processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", counting_init)
    return sizes


class TestPoolSize:
    def test_no_more_workers_than_trials(self, monkeypatch):
        sizes = count_pools(monkeypatch)
        one = run_point(petersen(), 10, 2, 3, 1, 0, workers=4)
        assert sizes == [] and one.completed == 1  # one trial runs in-process
        three = run_point(petersen(), 10, 2, 3, 3, 0, workers=4)
        assert sizes == [3] and three.completed == 3
        serial = run_point(petersen(), 10, 2, 3, 3, 0)
        assert [r.csv_row() for r in three.records] == [r.csv_row() for r in serial.records]


class TestGirthOncePerGraph:
    def test_run_point_computes_girth_once(self, monkeypatch):
        computed = count_girth_computations(monkeypatch)
        point = run_point(petersen(), 10, 2, 2, 10, 7, None, ("tree",))
        assert [r.certificate for r in point.records] == ["tree-bad"] * 10
        assert len(computed) <= 1

    def test_verify_lemmas_computes_girth_once_per_graph(self, monkeypatch):
        small_connected_graphs.cache_clear()  # fresh graphs, no girth stored
        computed = count_girth_computations(monkeypatch)
        report = verify_lemmas(CorpusSpec(7, 5))
        assert report.passed and report.tree_checks > 0
        assert len(computed) == len(small_connected_graphs(7)) == 996


class TestWilson:
    def test_contains_proportion(self):
        lo, hi = wilson_interval(80, 100)
        assert lo < 0.8 < hi

    def test_stable_at_extremes(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == pytest.approx(0.0, abs=1e-12) and hi > 0.0
        lo, hi = wilson_interval(50, 50)
        assert lo < 1.0 and hi == pytest.approx(1.0, abs=1e-12)


class TestSweep:
    def test_byte_identical_reruns(self):
        config = small_config()
        assert sweep(config).records_csv() == sweep(config).records_csv()

    def test_byte_identical_across_worker_counts(self):
        kw = {"trials": 40, "n_grid": [12, 15], "certificates": ["triple", "pair"]}
        serial = sweep(small_config(**kw))
        for workers in (2, 3):
            parallel = sweep(small_config(workers=workers, **kw))
            assert serial.records_csv() == parallel.records_csv()
            assert {r.certificate for r in parallel.records()} >= {"bad-triple", ""}

    # sha256 of records_csv() for two small sweeps, recorded before the
    # sampler was rewritten on getrandbits; the sigma grids cover both of
    # random.sample's branches (pool at sigma <= 21, set above).  A change
    # here is a change of the random stream and needs a CSV_VERSION bump.
    GOLDEN_RECORDS = {
        "9c0dc7548a91bd4bdbd862ceec0dc39fc875cc99b84897893f24d4def689b8c7": {
            "family": "clique_union", "family_params": {"delta": "3"}, "n_grid": [40, 60],
            "k": "2", "sigma_grid": ["3", "6", "12", "24", "40"], "trials": 25,
            "base_seed": 2024, "timeout_seconds": None, "certificates": ["triple", "pair"],
        },
        "1b9d322dd94a471124377736aec5e974a1f75df1861063556ecc5d564ba9d4cb": {
            "family": "power_cycle", "family_params": {"r": "3"}, "n_grid": [24],
            "k": "3", "sigma_grid": ["3", "4", "5", "8", "22", "40"], "trials": 25,
            "base_seed": 77, "timeout_seconds": None, "certificates": ["triple", "tree"],
        },
    }

    @pytest.mark.parametrize("digest", sorted(GOLDEN_RECORDS))
    def test_records_csv_digest_is_pinned(self, digest):
        result = sweep(ExperimentConfig.from_dict(self.GOLDEN_RECORDS[digest]))
        assert hashlib.sha256(result.records_csv().encode()).hexdigest() == digest

    # Per-trial certificate labels, one letter per record in records order,
    # of two sweeps that reach the labels the digests above do not: a k=2
    # sweep asking for pairs, and cycles asking for trees (C3 has girth 3,
    # so no tree kind applies there and its uncolorable trials read "none").
    LABEL_CODES = {"": ".", "none": "n", "2bad-pair": "p", "tree-bad": "t",
                   "bad-triple": "b", "guard-exceeded": "g"}
    GOLDEN_LABELS = (
        ({"family": "clique_union", "family_params": {"delta": "2"}, "n_grid": [9], "k": "2",
          "sigma_grid": ["2", "3", "4"], "trials": 12, "base_seed": 31,
          "timeout_seconds": None, "certificates": ["pair"]},
         "pppppppppppp..p.......pp............"),
        ({"family": "power_cycle", "family_params": {"r": "1"}, "n_grid": [3, 7, 8], "k": "2",
          "sigma_grid": ["2", "3"], "trials": 8, "base_seed": 31,
          "timeout_seconds": None, "certificates": ["tree"]},
         "nnnnnnnn........tttttttt........................"),
    )

    @pytest.mark.parametrize("raw, labels", GOLDEN_LABELS, ids=["pair", "tree"])
    def test_certificate_labels_are_pinned(self, raw, labels):
        result = sweep(ExperimentConfig.from_dict(raw))
        assert "".join(self.LABEL_CODES[r.certificate] for r in result.records()) == labels

    def test_pool_ships_no_graph_and_builds_each_n_once(self, monkeypatch):
        def no_pickling(self):
            raise AssertionError("a Graph was pickled")

        built = []
        real_build = GraphFamily.build

        def counting_build(self, n):
            built.append(n)
            return real_build(self, n)

        monkeypatch.setattr(Graph, "__reduce__", no_pickling)
        monkeypatch.setattr(GraphFamily, "build", counting_build)
        result = sweep(small_config(trials=20, n_grid=[12, 15], workers=2))
        assert built == [12, 15]
        assert len(result.records()) == 2 * 3 * 20
        assert all(r.status == "ok" for r in result.records())

    def test_one_pool_per_n(self, monkeypatch):
        sizes = count_pools(monkeypatch)
        result = sweep(small_config(n_grid=[12, 15], workers=2))
        assert sizes == [2, 2]
        assert len(result.points) == 6

    def test_component_bfs_runs_once_per_n_in_the_parent(self, monkeypatch, tmp_path):
        """The parent computes each n's components before the fork; the
        workers inherit them.  Every run appends its pid to a file."""
        log = tmp_path / "bfs-pids"
        real_components_of = graphs.components_of

        def logging_components_of(adjacency, vertices, n):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
            return real_components_of(adjacency, vertices, n)

        monkeypatch.setattr(graphs, "components_of", logging_components_of)
        sweep(small_config(n_grid=[12, 15], workers=2))
        assert log.read_text(encoding="utf-8").split() == [str(os.getpid())] * 2

    def test_no_worker_outlives_a_sweep(self, monkeypatch):
        sweep(small_config(n_grid=[12, 15], workers=2))
        assert multiprocessing.active_children() == []
        real_wilson = harness.wilson_interval
        calls = []

        def failing_second_cell(*args):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("injected")
            return real_wilson(*args)

        monkeypatch.setattr(harness, "wilson_interval", failing_second_cell)
        with pytest.raises(RuntimeError, match="injected"):
            sweep(small_config(workers=2))
        assert multiprocessing.active_children() == []

    def test_a_closed_stream_kills_no_worker(self, monkeypatch):
        """Pool.terminate can hang for good if it kills a worker that holds
        the result queue's lock, so a stream closed after its first record
        lets every worker exit before the pool is left."""
        alive = []
        real_terminate = multiprocessing.pool.Pool.terminate

        def recording_terminate(pool):
            alive.append([p.pid for p in pool._pool if p.exitcode is None])
            real_terminate(pool)

        monkeypatch.setattr(multiprocessing.pool.Pool, "terminate", recording_terminate)
        g = small_config().family.build(12)
        jobs = harness._point_jobs(12, 2, 3, 400, 4242, 5.0, ())
        stream = harness._trial_records(g, jobs, 2)
        assert next(stream).trial_index == 0
        stream.close()
        assert alive == [[]]
        assert multiprocessing.active_children() == []

    def test_records_sorted_and_versioned(self, tmp_path):
        result = sweep(small_config(trials=10))
        records_path, summary_path = result.write(tmp_path)
        lines = records_path.read_text().splitlines()
        assert lines[0].startswith("# listcolor-records v1")
        assert lines[1] == "n,k,sigma,trial_index,seed,status,colorable,solve_nodes,certificate"
        keys = []
        for line in lines[2:]:
            n, k, sigma, idx = line.split(",")[:4]
            keys.append((int(n), int(sigma), int(idx)))
        assert keys == sorted(keys)
        summary = json.loads(summary_path.read_text())
        assert {p["sigma"] for p in summary["points"]} == {2, 3, 4}

    def test_probability_rises_with_sigma(self):
        result = sweep(small_config(trials=150))
        p_hats = [p.p_hat for p in result.points]
        assert p_hats[0] < p_hats[-1]
        assert result.trend_violations == {12: 0}

    def test_empty_sigma_grid_rejected(self):
        with pytest.raises(ConfigError):
            small_config(sigma_grid=[])

    def test_k_above_sigma_rejected(self):
        with pytest.raises(ConfigError):
            small_config(k="5", sigma_grid=["3"])

    def test_duplicate_sigma_values_rejected(self):
        with pytest.raises(ConfigError):
            small_config(sigma_grid=["3", "2+1"])

    def test_expressions_in_n(self):
        config = ExperimentConfig.from_dict(
            {
                "family": "complete_multipartite",
                "family_params": {"parts": ["n", "n"]},
                "n_grid": [4],
                "k": "2",
                "sigma_grid": ["n", "4*n"],
                "trials": 30,
                "base_seed": 1,
            }
        )
        result = sweep(config)
        assert [p.sigma for p in result.points] == [4, 16]
        built = config.family.build(4)
        assert built == complete_multipartite([4, 4])


ROOT = Path(__file__).resolve().parent.parent
SCHEMA_FILE = Path(harness.__file__).with_name("config.schema.json")
SCHEMA = json.loads(SCHEMA_FILE.read_text(encoding="utf-8"))

# The keywords harness._validate reads, and the annotations it may skip.
VALIDATED_KEYWORDS = {
    "$ref", "type", "enum", "minimum", "minItems", "items", "required", "properties",
    "additionalProperties",
}
ANNOTATION_KEYWORDS = {"$schema", "$defs", "title", "description", "default"}


def schema_nodes(schema):
    """Every subschema of `schema`, itself first."""
    yield schema
    children = [*schema.get("properties", {}).values(), *schema.get("$defs", {}).values()]
    if "items" in schema:
        children.append(schema["items"])
    for child in children:
        yield from schema_nodes(child)


SCHEMA_VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)

# JSON values, without NaN or Infinity, which JSON does not have
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=5,
)


def integers(low, high=None):
    """Integers in [low, high], some as floats with no fractional part."""
    ints = st.integers(low, high)
    return ints | ints.filter(lambda i: abs(i) < 2**53).map(float)


# scaling expressions, valid half the time
SCALING = st.one_of(
    integers(1, 40)
    | st.sampled_from(["n", "n/2", "floor: n^(1/4) * 3", "ceil: log(n)", "2.5E-2*n", "1e3"]),
    st.sampled_from(["n^n^n", "(n-20)^0.5", "0^(0-1)", "1" + "0" * 309, "log(n-10)", "2*"])
    | st.integers() | st.floats(-1, 1e20) | st.text(max_size=5),
)
# configs that meet the schema; their scaling expressions need not be valid
SCHEMA_SHAPED_CONFIGS = st.fixed_dictionaries(
    {
        "family": st.sampled_from(list(FAMILIES)),
        "n_grid": st.lists(integers(1, 40) | st.integers(min_value=1), min_size=1, max_size=3),
        "sigma_grid": st.lists(SCALING, min_size=1, max_size=3),
        "trials": integers(1, 40),
    },
    optional={
        "family_params": st.fixed_dictionaries({}, optional={
            "delta": SCALING, "r": SCALING, "parts": st.lists(SCALING, min_size=2, max_size=3),
        }),
        "k": SCALING,
        "base_seed": integers(None),
        "timeout_seconds": st.none() | st.floats(0, 10) | integers(0, 10),
        "certificates": st.lists(st.sampled_from(list(CERTIFICATE_KINDS)), max_size=3),
        "workers": integers(1, 4),
        "output_dir": st.text(max_size=5),
    },
)
_DELETE = object()


@st.composite
def mutated_configs(draw):
    """A schema-shaped config with one or two top-level keys set to any JSON
    value or deleted, one of them perhaps a key the schema does not list."""
    raw = draw(SCHEMA_SHAPED_CONFIGS)
    keys = st.sampled_from([*SCHEMA["properties"], "colour_grid"])
    changes = st.tuples(keys, st.just(_DELETE) | JSON_VALUES)
    for key, value in draw(st.lists(changes, min_size=1, max_size=2)):
        if value is _DELETE:
            raw.pop(key, None)
        else:
            raw[key] = value
    return raw


class TestConfigSchema:
    """The package's config.schema.json states what ExperimentConfig.from_dict
    accepts, apart from the grid rules."""

    def test_loader_reads_the_one_schema(self):
        assert harness._schema() == SCHEMA
        copies = [p for p in ROOT.rglob("*.schema.json") if ".git" not in p.parts]
        assert copies == [SCHEMA_FILE]

    def test_schema_uses_only_the_validated_keywords(self):
        for node in schema_nodes(SCHEMA):
            assert set(node) <= VALIDATED_KEYWORDS | ANNOTATION_KEYWORDS, node
        refs = [node["$ref"] for node in schema_nodes(SCHEMA) if "$ref" in node]
        assert refs and all(ref.startswith("#/$defs/") for ref in refs)

    def test_loading_a_config_imports_no_jsonschema(self):
        script = (
            "import sys\n"
            "from listcolor.harness import ExperimentConfig\n"
            "ExperimentConfig.from_dict("
            "{'family': 'petersen', 'n_grid': [10], 'sigma_grid': [3], 'trials': 1})\n"
            "assert 'jsonschema' not in sys.modules, 'jsonschema was imported'\n"
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, timeout=60, check=False,
        )
        assert done.returncode == 0, done.stderr[-2000:]

    def test_family_names_and_params_match(self):
        assert SCHEMA["properties"]["family"]["enum"] == list(FAMILIES)
        params = {key for family in FAMILIES.values() for key in family.arg_names} - {"n"}
        assert set(SCHEMA["properties"]["family_params"]["properties"]) == params

    def test_certificate_kinds_match(self):
        enum = SCHEMA["properties"]["certificates"]["items"]["enum"]
        assert enum == list(CERTIFICATE_KINDS)

    def test_registries_match_every_surface(self):
        """graphs.FAMILIES and certificates.CERTIFICATE_KINDS are the only
        lists of families and certificate kinds: the CLI choices and the JSON
        labels equal them (the schema enums are checked above)."""
        parser = _build_parser()
        commands = next(a for a in parser._actions if a.dest == "command").choices

        def choices(command, dest):
            return next(a for a in commands[command]._actions if a.dest == dest).choices

        assert choices("gen", "family") == [name.replace("_", "-") for name in FAMILIES]
        assert choices("certify", "kind") == [*CERTIFICATE_KINDS, "auto"]
        c5, forced = power_cycle(5, 1), ListAssignment(2, 2, [(1, 2)] * 5)
        labels = [
            certificate_to_json(certify(c5, forced, (name,), solve(c5, forced))[1])["kind"]
            for name in CERTIFICATE_KINDS
        ]
        assert labels == [kind.label for kind in CERTIFICATE_KINDS.values()]
        assert labels == ["bad-triple", "2bad-pair", "tree-bad"]

    def test_every_schema_key_accepted(self):
        config = small_config(
            timeout_seconds=None, certificates=["triple", "pair", "tree"], workers=2,
            output_dir="out",
        )
        assert config.certificate_kinds == ("triple", "pair", "tree")
        assert config.timeout_seconds is None and config.workers == 2

    @pytest.mark.parametrize("overrides", [
        {"colour_grid": [3]},  # unknown top-level key
        {"family_params": {"delta": "2", "radius": "1"}},  # unknown family_params key
        {"family": "clique-onion"},  # family outside the enum
        {"family_params": {}},  # clique_union without delta
        {"certificates": ["tripel"]},
        {"certificates": "triple"},
        {"workers": 0},
        {"timeout_seconds": "5"},
        {"timeout_seconds": -1},
        {"timeout_seconds": True},
        {"trials": 2.9},  # the schema's integers are not truncated
        {"trials": "3"},
        {"n_grid": [10.5]},
        {"n_grid": ["12"]},
        {"n_grid": 12},
        {"n_grid": [0]},  # the schema's "minimum": 1
        {"n_grid": [-3]},
        {"base_seed": 1.5},
        {"base_seed": "7"},
        {"workers": True},
        {"workers": "2"},
        {"workers": 2.5},
        {"sigma_grid": "34"},  # not read one character at a time
        {"sigma_grid": {"3": 1}},
        {"sigma_grid": 3},
        {"certificates": [["triple"]]},
        {"output_dir": 5},  # not found only when the sweep writes
        {"output_dir": None},
    ])
    def test_rejected_up_front(self, overrides):
        with pytest.raises(ConfigError):
            small_config(**overrides)

    def test_integer_keys_named_and_integral_numbers_kept(self):
        with pytest.raises(ConfigError, match="trials"):
            small_config(trials=2.9)
        with pytest.raises(ConfigError, match="n_grid"):
            small_config(n_grid=[10.5])
        with pytest.raises(ConfigError, match="n_grid"):
            small_config(n_grid=[12, 0])
        config = small_config(trials=3.0, n_grid=[12.0], workers=2.0)
        assert (config.trials, config.n_grid, config.workers) == (3, (12,), 2)
        assert all(type(v) is int for v in (config.trials, *config.n_grid, config.workers))

    @pytest.mark.parametrize("family, family_params, n_grid", [
        ("clique_union", {"delta": "2"}, [12, 2]),
        ("power_cycle", {"r": "3"}, [20, 6]),
        ("complete_multipartite", {"parts": ["n - 10", "3"]}, [12, 10]),
    ])
    def test_n_grid_the_family_cannot_build(self, monkeypatch, family, family_params, n_grid):
        """Rejected by from_dict through the family's argument check, not by
        the sweep once it reaches that n; no graph is built either way."""
        def refuse_to_build(*args):
            raise AssertionError(f"from_dict built {family}{args}")

        monkeypatch.setitem(FAMILIES, family, FAMILIES[family]._replace(generator=refuse_to_build))
        small_config(family=family, family_params=family_params, n_grid=n_grid[:1])
        with pytest.raises(ConfigError, match=f"n_grid entry {n_grid[1]}"):
            small_config(family=family, family_params=family_params, n_grid=n_grid)

    def test_parts_needs_two_entries(self):
        """The schema's "minItems": 2 on parts: one part is rejected by
        from_dict, not by the first GraphFamily.build of the sweep."""
        with pytest.raises(ConfigError, match="'parts' needs at least 2 entries"):
            small_config(family="complete_multipartite", family_params={"parts": [3]})
        config = small_config(family="complete_multipartite", family_params={"parts": [3, 3]})
        assert config.family.build(6).n == 6

    @pytest.mark.parametrize("key", ["family", "n_grid", "sigma_grid", "trials"])
    def test_required_keys_enforced(self, key):
        raw = {"family": "petersen", "n_grid": [10], "sigma_grid": [3], "trials": 1}
        ExperimentConfig.from_dict(raw)
        del raw[key]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("overrides, prefix", [
        ({"k": "n^n^n"}, "k at n=12: offset 1: "),
        ({"k": "n^"}, "k: offset 2: "),
        ({"sigma_grid": ["3", "log(n-12)"]}, "sigma_grid item 1 at n=12: offset 0: "),
        ({"family_params": {"delta": "n^n^n"}}, "family_params.delta at n=12: "),
        ({"family": "complete_multipartite", "family_params": {"parts": ["6", "0^(0-1)"]}},
         "family_params.parts item 1 at n=12: "),
        ({"n_grid": [10**5000]}, "family_params.delta at an n past 1e308: "),
    ])
    def test_refused_scaling_names_its_key_and_n(self, overrides, prefix):
        with pytest.raises(ConfigError) as refused:
            small_config(**overrides)
        assert str(refused.value).startswith(prefix)

    def test_int_too_long_to_print_refused(self):
        """str() refuses an int of over 4,300 digits; JSON cannot carry one,
        a Python caller can."""
        with pytest.raises(ConfigError, match="^sigma_grid item 1: "):
            small_config(sigma_grid=[3, 10**5000])

    def test_nan_timeout_refused(self):
        """json.load reads NaN, and JSON Schema's "minimum" lets it through;
        the loader refuses it."""
        assert SCHEMA_VALIDATOR.is_valid(
            {"family": "petersen", "n_grid": [10], "sigma_grid": [3], "trials": 1,
             "timeout_seconds": math.nan}
        )
        with pytest.raises(ConfigError, match="timeout_seconds"):
            small_config(timeout_seconds=math.nan)

    def test_tuples_read_as_arrays(self):
        """A Python caller may pass a tuple wherever the schema asks for an
        array: the config equals the one built from lists."""
        raw = {"family": "complete_multipartite", "family_params": {"parts": ["2", "n - 2"]},
               "n_grid": [6, 8], "sigma_grid": [3, "n"], "certificates": ["triple"],
               "trials": 2}
        as_tuples = {**raw, "family_params": {"parts": ("2", "n - 2")}, "n_grid": (6, 8),
                     "sigma_grid": (3, "n"), "certificates": ("triple",)}
        lists, tuples = ExperimentConfig.from_dict(raw), ExperimentConfig.from_dict(as_tuples)
        assert tuples == lists
        assert tuples.grid() == lists.grid() == [(6, 2, 3), (6, 2, 6), (8, 2, 3), (8, 2, 8)]
        for key, short in [("n_grid", ()), ("sigma_grid", ()), ("certificates", (1,))]:
            with pytest.raises(ConfigError, match=f"^'{key}'"):
                ExperimentConfig.from_dict({**as_tuples, key: short})
        with pytest.raises(ConfigError, match="^'parts' needs at least 2"):
            ExperimentConfig.from_dict({**as_tuples, "family_params": {"parts": ("2",)}})

    @given(st.one_of(SCHEMA_SHAPED_CONFIGS, mutated_configs(), JSON_VALUES))
    @settings(max_examples=500, deadline=None)
    def test_schema_rules_are_jsonschema_rules(self, raw):
        """from_dict returns or raises ConfigError, within 2 s, and its schema
        check accepts exactly what jsonschema accepts; what it refuses past
        that check falls to the scaling-expression and grid rules."""
        start = time.perf_counter()
        try:
            ExperimentConfig.from_dict(raw)
        except ConfigError:
            pass
        assert time.perf_counter() - start < 2
        try:
            harness._validate(raw, harness._schema(), "config")
            meets_schema = True
        except ConfigError:
            meets_schema = False
        assert meets_schema == SCHEMA_VALIDATOR.is_valid(raw)


class TestCrossing:
    def test_interpolates(self):
        assert p_half_crossing([2, 4], [0.25, 0.75]) == pytest.approx(3.0)

    def test_none_when_always_high(self):
        assert p_half_crossing([2, 4], [0.8, 0.9]) is None

    def test_skips_missing_points(self):
        assert p_half_crossing([2, 3, 4], [0.2, None, 0.8]) == pytest.approx(3.0)


class TestVerifyLemmas:
    @pytest.mark.parametrize("per_graph", [0, -5])
    def test_no_assignments_per_graph_rejected(self, per_graph):
        with pytest.raises(InvalidParameterError, match="at least one assignment"):
            verify_lemmas(CorpusSpec(max_vertices=3, assignments_per_graph=per_graph))

    def test_reduced_corpus_has_no_counterexamples(self):
        report = verify_lemmas(CorpusSpec(max_vertices=5, assignments_per_graph=40))
        assert report.passed
        assert report.uncolorable > 50
        assert report.triple_checks == report.uncolorable
        assert report.pair_checks > 0

    def test_colorable_only_corpus_is_vacuous_with_coverage(self):
        # k = sigma = 3 forces identical full lists; a single edge is then
        # always colorable
        spec = CorpusSpec(max_vertices=2, assignments_per_graph=10, combos=((3, 3),))
        report = verify_lemmas(spec)
        assert report.passed
        assert report.instances == 20
        assert report.uncolorable == 0

    def test_report_is_json_serializable(self):
        report = verify_lemmas(CorpusSpec(max_vertices=4, assignments_per_graph=10))
        doc = json.loads(json.dumps(report.to_json()))
        assert doc["passed"] is True
        assert doc["coverage"]["instances"] == 10 * 10  # ten connected graphs up to n=4

    def test_girth_four_corpus_exercises_even_trees(self):
        # k=2 draws at sigma 3/4 hit the classic non-2-choosable assignments
        # on the bipartite 6-vertex graphs, driving the even-parity branch
        spec = CorpusSpec(
            max_vertices=6, assignments_per_graph=120, combos=((2, 3), (2, 4)),
            base_seed=99,
        )
        report = verify_lemmas(spec)
        assert report.passed
        assert report.even_tree_checks >= 1
        assert report.odd_tree_checks >= 1


class TestIdenticalListCliqueCount:
    def test_matches_direct_enumeration(self):
        import itertools

        g = clique_union(11, 2)
        a = sample_assignment(g, 2, 3, SeedSpec(77))
        direct = sum(
            1
            for trio in itertools.combinations(range(11), 3)
            if all(g.has_edge(u, v) for u, v in itertools.combinations(trio, 2))
            and len({a[v] for v in trio}) == 1
        )
        assert identical_list_clique_count(g, a, 2) == direct

    def test_rejects_non_clique_components(self):
        g = complete_multipartite([2, 2])
        a = sample_assignment(g, 2, 3, SeedSpec(1))
        with pytest.raises(InvalidParameterError):
            identical_list_clique_count(g, a, 2)
