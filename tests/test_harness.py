import json
import math
from pathlib import Path

import pytest

from listcolor import certificates as certs
from listcolor import harness
from listcolor.certificates import CERTIFICATE_KINDS, certificate_to_json, find_certificate
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
    identical_list_clique_count,
    p_half_crossing,
    run_point,
    sweep,
    verify_lemmas,
    wilson_interval,
)
from listcolor.lists import ListAssignment, SeedSpec, sample_assignment


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
        point = run_point(GraphFamily("clique_union", {"delta": 2}), 15, 2, 2, 300, 9)
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
        point = run_point(GraphFamily("clique_union", {"delta": 2}), 3, 2, 3, trials, 31337)
        p = 8 / 9
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(point.p_hat - p) < 3 * se

    def test_zero_trials_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_point(GraphFamily("petersen", {}), 10, 2, 4, 0, 1)

    def test_timeouts_reported_not_dropped(self):
        point = run_point(
            GraphFamily("clique_union", {"delta": 2}), 9, 2, 3, 20, 5, timeout_seconds=0.0
        )
        assert point.timeouts == 20
        assert point.completed == 0
        assert point.p_hat is None
        assert all(r.status == "timeout" for r in point.records)

    def test_certificate_detectors_record_kind(self):
        point = run_point(
            GraphFamily("clique_union", {"delta": 2}),
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
        point = run_point(GraphFamily("clique_union", {"delta": 2}), 9, 2, 3, 10, 5)
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

    @pytest.mark.parametrize("kwargs", [
        {"workers": 0},
        {"certificate_kinds": ("tripel",)},
        {"timeout_seconds": "5"},
        {"timeout_seconds": -1.0},
    ])
    def test_bad_arguments_rejected_before_any_trial(self, kwargs):
        with pytest.raises(InvalidParameterError):
            run_point(GraphFamily("clique_union", {"delta": 2}), 9, 2, 3, 10, 5, **kwargs)


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
        parallel = sweep(small_config(workers=2, **kw))
        assert serial.records_csv() == parallel.records_csv()
        assert {r.certificate for r in parallel.records()} >= {"bad-triple", ""}

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


SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "config.schema.json").read_text()
)


class TestConfigSchema:
    """docs/config.schema.json states what ExperimentConfig.from_dict accepts."""

    def test_top_level_keys_match(self):
        assert set(SCHEMA["properties"]) == set(harness._CONFIG_KEYS)
        assert set(SCHEMA["required"]) == set(harness._REQUIRED_KEYS)

    def test_family_names_and_params_match(self):
        assert SCHEMA["properties"]["family"]["enum"] == list(FAMILIES)
        params = {key for _, keys in FAMILIES.values() for key in keys} - {"n"}
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
            certificate_to_json(find_certificate(c5, forced, name)[0])["kind"]
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
    ])
    def test_rejected_up_front(self, overrides):
        with pytest.raises(ConfigError):
            small_config(**overrides)

    @pytest.mark.parametrize("key", ["family", "n_grid", "sigma_grid", "trials"])
    def test_required_keys_enforced(self, key):
        raw = {"family": "petersen", "n_grid": [10], "sigma_grid": [3], "trials": 1}
        ExperimentConfig.from_dict(raw)
        del raw[key]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)


class TestCrossing:
    def test_interpolates(self):
        assert p_half_crossing([2, 4], [0.25, 0.75]) == pytest.approx(3.0)

    def test_none_when_always_high(self):
        assert p_half_crossing([2, 4], [0.8, 0.9]) is None

    def test_skips_missing_points(self):
        assert p_half_crossing([2, 3, 4], [0.2, None, 0.8]) == pytest.approx(3.0)


class TestVerifyLemmas:
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
