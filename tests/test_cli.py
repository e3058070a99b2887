import json
import re

import pytest

from listcolor.bounds import REGIME_NAMES
from listcolor.cli import _BOUND_SPECS, cli_main
from listcolor.graphs import complete_multipartite, power_cycle, read_graph, write_graph
from listcolor.lists import read_lists


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text(write_graph(power_cycle(5, 1)))
    return path


@pytest.fixture
def forced_lists_file(tmp_path):
    path = tmp_path / "lists.txt"
    path.write_text("sigma=2 k=2\n" + "\n".join(f"{v}: 1 2" for v in range(5)) + "\n")
    return path


def run(capsys, *argv):
    code = cli_main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_petersen_to_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "petersen")
        assert code == 0
        assert read_graph(out).n == 10

    def test_clique_union_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "g.txt"
        code, _, _ = run(
            capsys, "gen", "--family", "clique-union", "--n", 10, "--delta", 2,
            "--out", out_file,
        )
        assert code == 0
        assert read_graph(out_file.read_text()).n == 10

    def test_multipartite_parts(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--family", "complete-multipartite", "--parts", "3,3"
        )
        assert code == 0
        assert len(read_graph(out).edges) == 9

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "power-cycle", "--n", 8)
        assert code == 2
        assert "usage error" in err

    def test_domain_error_exit_one(self, capsys):
        code, _, _ = run(capsys, "gen", "--family", "power-cycle", "--n", 8, "--r", 4)
        assert code == 1


class TestSampleAndSolve:
    def test_sample_round_trip(self, c5_file, capsys):
        code, out, _ = run(
            capsys, "sample", "--graph", c5_file, "--k", 2, "--sigma", 4, "--seed", 5
        )
        assert code == 0
        assignment = read_lists(out, power_cycle(5, 1))
        assert assignment.k == 2 and assignment.sigma == 4

    def test_sample_is_seed_deterministic(self, c5_file, capsys):
        _, out1, _ = run(capsys, "sample", "--graph", c5_file, "--k", 2, "--sigma", 4,
                         "--seed", 5)
        _, out2, _ = run(capsys, "sample", "--graph", c5_file, "--k", 2, "--sigma", 4,
                         "--seed", 5)
        assert out1 == out2

    def test_k_below_one_exits_one(self, c5_file, capsys):
        code, out, err = run(
            capsys, "sample", "--graph", c5_file, "--k", -1, "--sigma", 5
        )
        assert (code, out) == (1, "")
        assert "k must be >= 1" in err

    def test_env_seed_override(self, c5_file, capsys, monkeypatch):
        monkeypatch.setenv("LISTCOLOR_SEED", "12345")
        # parser defaults are built at parse time through _default_seed
        _, with_env, _ = run(capsys, "sample", "--graph", c5_file, "--k", 2, "--sigma", 4)
        monkeypatch.delenv("LISTCOLOR_SEED")
        _, explicit, _ = run(capsys, "sample", "--graph", c5_file, "--k", 2, "--sigma", 4,
                             "--seed", 12345)
        assert with_env == explicit

    def test_solve_uncolorable_exits_zero(self, c5_file, forced_lists_file, capsys):
        code, out, _ = run(capsys, "solve", "--graph", c5_file, "--lists", forced_lists_file)
        assert code == 0
        assert out.strip() == "UNCOLORABLE"

    def test_solve_witness_printed(self, c5_file, tmp_path, capsys):
        lists = tmp_path / "ok.txt"
        lists.write_text("sigma=3 k=2\n0: 1 2\n1: 1 2\n2: 1 2\n3: 1 2\n4: 1 3\n")
        code, out, _ = run(
            capsys, "solve", "--graph", c5_file, "--lists", lists, "--witness"
        )
        assert code == 0
        status, witness = out.strip().splitlines()
        assert status == "COLORABLE"
        assert set(json.loads(witness)) == {"0", "1", "2", "3", "4"}

    def test_solve_stats_line(self, c5_file, forced_lists_file, capsys):
        code, out, _ = run(
            capsys, "solve", "--graph", c5_file, "--lists", forced_lists_file, "--stats"
        )
        assert code == 0
        status, stats = out.strip().splitlines()
        assert status == "UNCOLORABLE"
        assert json.loads(stats) == {
            "nodes": 1, "propagations": 8, "backtracks": 2, "max_depth": 1,
            "dp_states": 0,
        }


# 3-lists from 4 colors on which K4 is colorable
COLORABLE_K4_LISTS = "sigma=4 k=3\n0: 1 2 3\n1: 1 2 4\n2: 1 3 4\n3: 2 3 4\n"


class TestCertify:
    def test_auto_returns_triple(self, c5_file, forced_lists_file, capsys):
        code, out, _ = run(
            capsys, "certify", "--graph", c5_file, "--lists", forced_lists_file
        )
        assert code == 0
        doc = json.loads(out.strip().splitlines()[0])
        assert doc["kind"] == "bad-triple"
        assert doc["rank"][str(doc["root"])] == 0

    def test_specific_kinds(self, c5_file, forced_lists_file, capsys):
        for kind, expected in (("pair", "2bad-pair"), ("tree", "tree-bad")):
            code, out, _ = run(
                capsys, "certify", "--graph", c5_file, "--lists", forced_lists_file,
                "--kind", kind,
            )
            assert code == 0
            assert json.loads(out.strip().splitlines()[-1])["kind"] == expected

    def test_colorable_instance_reports_null_kind(self, c5_file, tmp_path, capsys):
        lists = tmp_path / "ok.txt"
        lists.write_text("sigma=3 k=2\n0: 1 2\n1: 1 2\n2: 1 2\n3: 1 2\n4: 1 3\n")
        code, out, _ = run(capsys, "certify", "--graph", c5_file, "--lists", lists)
        assert code == 0
        doc = json.loads(out.strip())
        assert doc["kind"] is None and doc["colorable"] is True

    def test_pair_needs_two_lists(self, tmp_path, capsys):
        k4 = tmp_path / "k4.txt"
        k4.write_text(write_graph(complete_multipartite([1, 1, 1, 1])))
        lists = tmp_path / "k4-lists.txt"
        lists.write_text("sigma=3 k=3\n" + "\n".join(f"{v}: 1 2 3" for v in range(4)) + "\n")
        code, out, err = run(capsys, "certify", "--graph", k4, "--lists", lists, "--kind", "pair")
        assert (code, out) == (2, "")
        assert "pair certificates need k=2 lists" in err
        lists.write_text(COLORABLE_K4_LISTS)  # the kind is checked before solving
        code, out, err = run(capsys, "certify", "--graph", k4, "--lists", lists, "--kind", "pair")
        assert (code, out) == (2, "")
        assert "pair certificates need k=2 lists" in err

    def test_tree_needs_girth_above_three(self, tmp_path, capsys):
        k4 = tmp_path / "k4.txt"
        k4.write_text(write_graph(complete_multipartite([1, 1, 1, 1])))
        lists = tmp_path / "k4-lists.txt"
        lists.write_text("sigma=3 k=3\n" + "\n".join(f"{v}: 1 2 3" for v in range(4)) + "\n")
        code, out, err = run(capsys, "certify", "--graph", k4, "--lists", lists, "--kind", "tree")
        assert (code, out) == (2, "")
        assert "tree certificates need girth above 3" in err
        lists.write_text(COLORABLE_K4_LISTS)  # the kind is checked before solving
        code, out, err = run(capsys, "certify", "--graph", k4, "--lists", lists, "--kind", "tree")
        assert (code, out) == (2, "")
        assert "tree certificates need girth above 3" in err

    def test_tree_needs_two_lists(self, c5_file, tmp_path, capsys):
        lists = tmp_path / "ones.txt"
        lists.write_text("sigma=1 k=1\n" + "\n".join(f"{v}: 1" for v in range(5)) + "\n")
        code, out, err = run(capsys, "certify", "--graph", c5_file, "--lists", lists,
                             "--kind", "tree")
        assert (code, out) == (2, "")
        assert "tree certificates need k >= 2 lists" in err

    @pytest.fixture
    def c13_files(self, tmp_path):
        """C13 with every list {1,2}: its 13-vertex critical core is above
        the triple finder's guard of 12."""
        c13 = tmp_path / "c13.txt"
        c13.write_text(write_graph(power_cycle(13, 1)))
        lists = tmp_path / "c13-lists.txt"
        lists.write_text("sigma=2 k=2\n" + "\n".join(f"{v}: 1 2" for v in range(13)) + "\n")
        return c13, lists

    def test_auto_goes_past_the_core_guard(self, c13_files, capsys):
        """Auto mode tries the triple first, hits its guard, and goes on to
        the pair."""
        c13, lists = c13_files
        code, out, err = run(capsys, "certify", "--graph", c13, "--lists", lists)
        assert (code, err) == (0, "")
        assert json.loads(out)["kind"] == "2bad-pair"

    def test_triple_stops_at_the_core_guard(self, c13_files, capsys):
        c13, lists = c13_files
        code, out, err = run(capsys, "certify", "--graph", c13, "--lists", lists,
                             "--kind", "triple")
        assert (code, out) == (1, "")
        assert "critical core has 13 vertices, above the guard 12" in err


class TestBound:
    def test_exact_expectation_example(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--bound=eq:expect", "--n=60", "--delta=4", "--k=2",
            "--sigma=6",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(0.53333, abs=1e-5)

    def test_lem_bad_flags(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--bound=lem:bad", "--m=4", "--delta=3", "--k=2", "--sigma=5"
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(8.1)

    def test_tree_size_bound(self, capsys):
        code, out, _ = run(capsys, "bound", "--bound=eq:Qk", "--k=3", "--g=5")
        assert code == 0
        assert json.loads(out)["value"] == 10

    def test_regime_reports(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--bound=regimes", "--n=100000", "--delta=4", "--k=2",
            "--sigma=500", "--g=5",
        )
        assert code == 0
        names = {json.loads(line)["name"] for line in out.strip().splitlines()}
        assert {"th:main1", "th:main2", "prop2", "prop3"} <= names

    def test_missing_parameter_usage_error(self, capsys):
        code, _, err = run(capsys, "bound", "--bound=lem:bad", "--m=4")
        assert code == 2 and "needs" in err

    def test_unknown_bound_name(self, capsys):
        code, _, err = run(capsys, "bound", "--bound=eq:nope", "--n=4")
        assert code == 2 and "unknown bound" in err

    def test_every_name_in_help_is_accepted(self, capsys):
        code, out, _ = run(capsys, "bound", "--help")
        assert code == 0
        text = " ".join(out.split())
        formulas, regimes, everything = re.search(
            r"quantity name: a formula \((.*?)\), a threshold regime \((.*?)\), or '(\w+)'",
            text,
        ).groups()
        names = [*formulas.split(", "), *regimes.split(", "), everything]
        assert set(names) == {*_BOUND_SPECS, *REGIME_NAMES, "regimes"}
        for name in names:
            # no numeric flags: each known name asks for its first missing one
            code, _, err = run(capsys, "bound", f"--bound={name}")
            assert code == 2 and f"--bound={name} needs --" in err, name


class TestSweepCommand:
    def test_sweep_writes_outputs(self, tmp_path, capsys):
        config = {
            "family": "clique_union",
            "family_params": {"delta": "2"},
            "n_grid": [9],
            "k": "2",
            "sigma_grid": ["2", "3"],
            "trials": 20,
            "base_seed": 7,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        code, out, _ = run(capsys, "sweep", "--config", cfg_path, "--out", tmp_path / "run")
        assert code == 0
        assert (tmp_path / "run" / "records.csv").exists()
        assert (tmp_path / "run" / "summary.json").exists()

    def test_zero_workers_is_a_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(
            {"family": "petersen", "n_grid": [10], "sigma_grid": [3], "trials": 1}
        ))
        code, _, err = run(capsys, "sweep", "--config", cfg_path, "--workers", 0,
                           "--out", tmp_path / "run")
        assert code == 2 and "--workers" in err
        assert not (tmp_path / "run").exists()

    def test_missing_config_exits_one(self, capsys):
        code, _, err = run(capsys, "sweep", "--config", "missing.json")
        assert code == 1 and "missing.json" in err

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"family": "clique_union"}))
        code, _, _ = run(capsys, "sweep", "--config", bad)
        assert code == 1


class TestVerifyLemmasCommand:
    @pytest.mark.parametrize("per_graph", [0, -5])
    def test_per_graph_below_one_is_a_usage_error(self, per_graph, capsys):
        code, out, err = run(capsys, "verify-lemmas", "--max-vertices", 3,
                             "--per-graph", per_graph)
        assert (code, out) == (2, "")
        assert "--per-graph" in err

    def test_small_run_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify-lemmas", "--max-vertices", 4, "--per-graph", 15, "--seed", 3
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["counterexamples"] == []


class TestUsage:
    def test_unknown_flag_exits_two(self, c5_file, capsys):
        assert cli_main(["solve", "--graph", str(c5_file), "--nope"]) == 2

    def test_unknown_subcommand_exits_two(self):
        assert cli_main(["frobnicate"]) == 2

    def test_help_exits_zero(self):
        assert cli_main(["--help"]) == 0
