"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <id>: PASS/FAIL` line (visible with
`pytest -s` or `-rA`); the assertions make pytest -v show the same verdicts
per criterion.  The corpus is the canonical atlas enumeration of all 996
connected graphs on at most 7 vertices; the fused scan behind criteria 1-4
runs once per session.
"""

import math
import time

import pytest

from listcolor import certificates as certs
from listcolor.bounds import (
    chebyshev_lower_bound,
    expected_identical_cliques_exact,
    pair_probability_bound,
    pi_bound_clique_union,
)
from listcolor.certificates import (
    OrderedSeq,
    ProperPair,
    find_2bad_pair,
    find_bad_triple,
    find_tree_bad,
    is_2bad_pair,
    is_bad_triple,
    proper_tree_size,
)
from listcolor.corpus import corpus_assignments, small_connected_graphs
from listcolor.graphs import Graph, clique_union, girth, petersen
from listcolor.harness import ExperimentConfig, sweep
from listcolor.lists import SeedSpec, derive_seed, sample_assignment
from listcolor.solver import brute_force_colorable, solve
from support import (
    build_proper_trees,
    count_nonconsecutive,
    count_proper_triples_by_m,
    enumerate_proper_triples,
    identical_list_clique_count,
)

CORPUS_COMBOS = ((2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5))
ASSIGNMENTS_PER_GRAPH = 200
CORPUS_SEED = 20240817


def _report(criterion: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion:02d}: {verdict} - {detail}")


@pytest.fixture(scope="session")
def corpus_scan():
    """One fused pass over the corpus: solver-vs-oracle agreement plus the
    three certificate implications on every uncolorable instance."""
    graphs = small_connected_graphs(7)
    assert len(graphs) == 996
    scan = {
        "instances": 0,
        "uncolorable": 0,
        "mismatches": [],
        "triple_failures": [],
        "pair_failures": [],
        "pair_checked": 0,
        "tree_failures": [],
        "tree_checked": 0,
        "seconds": 0.0,
    }
    started = time.monotonic()
    for gi, g in enumerate(graphs):
        gv = girth(g)
        for ai, assignment in corpus_assignments(
            g, gi, ASSIGNMENTS_PER_GRAPH, CORPUS_COMBOS, CORPUS_SEED
        ):
            scan["instances"] += 1
            colorable = solve(g, assignment).colorable
            if colorable != brute_force_colorable(g, assignment):
                scan["mismatches"].append((gi, ai))
            if colorable:
                continue
            scan["uncolorable"] += 1

            triple = find_bad_triple(g, assignment)
            if triple is None or not is_bad_triple(g, assignment, triple)[0]:
                scan["triple_failures"].append((gi, ai))

            if assignment.k == 2:
                scan["pair_checked"] += 1
                pair = find_2bad_pair(g, assignment)
                if pair is None or not is_2bad_pair(g, assignment, pair)[0]:
                    scan["pair_failures"].append((gi, ai))

            if gv != math.inf and gv > 3:
                scan["tree_checked"] += 1
                tree = find_tree_bad(g, assignment)
                if tree is None or not certs.is_tree_bad(tree, assignment)[0]:
                    scan["tree_failures"].append((gi, ai))
    scan["seconds"] = time.monotonic() - started
    return scan


def test_criterion_01_solver_matches_oracle(corpus_scan):
    ok = not corpus_scan["mismatches"] and corpus_scan["instances"] == 996 * 200
    _report(
        1,
        ok,
        f"{corpus_scan['instances']} instances, {len(corpus_scan['mismatches'])} "
        f"disagreements, corpus pass took {corpus_scan['seconds']:.0f}s",
    )
    assert corpus_scan["instances"] == 996 * 200
    assert corpus_scan["mismatches"] == []
    assert corpus_scan["seconds"] < 600


def test_criterion_02_bad_triples_on_every_uncolorable(corpus_scan):
    ok = not corpus_scan["triple_failures"]
    _report(
        2,
        ok,
        f"{corpus_scan['uncolorable']} uncolorable instances, "
        f"{len(corpus_scan['triple_failures'])} certificate failures",
    )
    assert corpus_scan["uncolorable"] > 0
    assert corpus_scan["triple_failures"] == []


def test_criterion_03_pairs_on_every_uncolorable_k2(corpus_scan):
    ok = not corpus_scan["pair_failures"]
    _report(
        3,
        ok,
        f"{corpus_scan['pair_checked']} k=2 instances, "
        f"{len(corpus_scan['pair_failures'])} failures",
    )
    assert corpus_scan["pair_checked"] > 0
    assert corpus_scan["pair_failures"] == []


def test_criterion_04_trees_on_every_uncolorable_girth_gt3(corpus_scan):
    ok = not corpus_scan["tree_failures"]
    _report(
        4,
        ok,
        f"{corpus_scan['tree_checked']} girth>3 instances, "
        f"{len(corpus_scan['tree_failures'])} failures",
    )
    assert corpus_scan["tree_checked"] > 0
    assert corpus_scan["tree_failures"] == []


def test_criterion_05_triple_counts_within_bound():
    violations = []
    total = 0
    for g in small_connected_graphs(7):
        delta = g.max_degree()
        for m, count in count_proper_triples_by_m(g, g.n).items():
            total += count
            if count > g.n * delta ** (m - 1) * math.factorial(m - 1):
                violations.append((g, m))
    _report(5, not violations, f"{total} triples across 996 graphs, "
                               f"{len(violations)} bound violations")
    assert violations == []


def test_criterion_06_exact_expectation_monte_carlo():
    g = clique_union(60, 4)
    expected = expected_identical_cliques_exact(60, 4, 2, 6).value.to_float()
    assert expected == pytest.approx(8 / 15, rel=1e-12)
    trials = 100_000
    started = time.monotonic()
    total = 0
    total_sq = 0
    for i in range(trials):
        assignment = sample_assignment(g, 2, 6, SeedSpec(derive_seed(6060, i)))
        count = identical_list_clique_count(g, assignment, 2)
        total += count
        total_sq += count * count
    elapsed = time.monotonic() - started
    mean = total / trials
    variance = total_sq / trials - mean * mean
    se = math.sqrt(variance / trials)
    ok = abs(mean - expected) <= 3 * se and elapsed < 120
    _report(
        6,
        ok,
        f"mean {mean:.4f} vs exact {expected:.4f} (3se = {3 * se:.4f}), {elapsed:.0f}s",
    )
    assert abs(mean - expected) <= 3 * se
    assert elapsed < 120


def _pick_probe_triples():
    """20 fixed proper triples, five per size 2..5, drawn from low-degree
    corpus graphs; deterministic by construction (each graph donates at most
    one triple per size)."""
    per_size = {2: [], 3: [], 4: [], 5: []}
    graphs = small_connected_graphs(7)
    for gi in range(0, len(graphs), 17):
        g = graphs[gi]
        if g.n < 5 or g.max_degree() > 4:
            continue
        donated = set()
        for triple in enumerate_proper_triples(g, 5):
            bucket = per_size.get(triple.size)
            if bucket is None or triple.size in donated or len(bucket) >= 5:
                continue
            bucket.append((g, triple))
            donated.add(triple.size)
            if len(donated) == len(per_size):
                break
        if all(len(b) >= 5 for b in per_size.values()):
            break
    return [pair for bucket in per_size.values() for pair in bucket][:20]


def test_criterion_07_badness_frequency_below_bound():
    from listcolor.bounds import bad_triple_probability_bound

    probes = _pick_probe_triples()
    assert len(probes) == 20
    trials = 100_000
    violations = []
    rows = []
    for pi, (g, triple) in enumerate(probes):
        bound = bad_triple_probability_bound(
            triple.size, g.max_degree(), 2, 5
        ).value.to_float()
        hits = 0
        for t in range(trials):
            assignment = sample_assignment(g, 2, 5, SeedSpec(derive_seed(7007, pi, t)))
            if is_bad_triple(g, assignment, triple)[0]:
                hits += 1
        freq = hits / trials
        rows.append((triple.size, freq, bound))
        if freq > bound:
            violations.append((pi, freq, bound))
    nonvacuous = sum(1 for _, _, b in rows if b <= 1)
    _report(
        7,
        not violations,
        f"20 triples x {trials} trials, {nonvacuous} non-vacuous bounds, "
        f"{len(violations)} violations",
    )
    assert violations == []


def test_criterion_08_pair_frequency_below_bound():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    pair = ProperPair(
        OrderedSeq("cycle", (0, 1, 2), 0), OrderedSeq("cycle", (0, 2, 1), 0)
    )
    pair.validate(g)
    assert count_nonconsecutive(pair) == 0
    bound = pair_probability_bound(3, 0, 5).value.to_float()
    assert bound == pytest.approx(0.02)
    trials = 100_000
    hits = sum(
        1
        for t in range(trials)
        if is_2bad_pair(g, sample_assignment(g, 2, 5, SeedSpec(derive_seed(8008, t))), pair)[0]
    )
    freq = hits / trials
    se = math.sqrt(bound * (1 - bound) / trials)
    ok = freq <= bound + 3 * se
    _report(8, ok, f"frequency {freq:.5f} vs bound {bound:.5f} + 3se {3 * se:.5f}")
    assert freq <= bound + 3 * se


def test_criterion_09_second_moment_lower_bound():
    n, delta, k, sigma = 1125, 4, 2, 6
    g = clique_union(n, delta)
    e_value = expected_identical_cliques_exact(n, delta, k, sigma).value.to_float()
    assert e_value == pytest.approx(10.0, rel=1e-9)
    pi_value = pi_bound_clique_union(n, delta, k, sigma).value.to_float()
    bound = chebyshev_lower_bound(e_value, pi_value).value.to_float()
    trials = 2000
    positive = 0
    for t in range(trials):
        assignment = sample_assignment(g, k, sigma, SeedSpec(derive_seed(9009, t)))
        if identical_list_clique_count(g, assignment, k) > 0:
            positive += 1
    p_hat = positive / trials
    se = math.sqrt(max(p_hat * (1 - p_hat), 1e-9) / trials)
    ok = p_hat >= bound - 3 * se
    _report(9, ok, f"P[X>0] = {p_hat:.4f} vs lower bound {bound:.4f} (E={e_value:.1f}, "
                   f"Pi={pi_value:.4f})")
    assert p_hat >= bound - 3 * se


def test_criterion_10_threshold_trends():
    started = time.monotonic()
    rising = sweep(
        ExperimentConfig.from_dict(
            {
                "family": "clique_union",
                "family_params": {"delta": "4"},
                "n_grid": [200],
                "k": "2",
                "sigma_grid": ["4", "5", "6", "7", "8", "9", "10", "12"],
                "trials": 400,
                "base_seed": 101010,
            }
        )
    )
    crossing = rising.crossings[200]
    trend_ok = rising.trend_violations[200] == 0

    bipartite = sweep(
        ExperimentConfig.from_dict(
            {
                "family": "complete_multipartite",
                "family_params": {"parts": ["n", "n"]},
                "n_grid": [30],
                "k": "2",
                "sigma_grid": ["n", "4*n"],
                "trials": 300,
                "base_seed": 161616,
            }
        )
    )
    low, high = bipartite.points[0], bipartite.points[1]
    assert (low.sigma, high.sigma) == (30, 120)
    elapsed = time.monotonic() - started
    ok = (
        trend_ok
        and crossing is not None
        and low.p_hat < 0.2
        and high.p_hat > 0.8
        and elapsed < 900
    )
    _report(
        10,
        ok,
        f"crossing at sigma ~ {crossing and round(crossing, 2)}, trend violations "
        f"{rising.trend_violations[200]}, bipartite p({low.sigma})={low.p_hat:.3f} "
        f"p({high.sigma})={high.p_hat:.3f}, {elapsed:.0f}s",
    )
    assert trend_ok
    assert crossing is not None
    assert low.p_hat < 0.2
    assert high.p_hat > 0.8
    assert elapsed < 900


def test_criterion_11_tree_size_checks():
    sizes = (proper_tree_size(3, 5), proper_tree_size(3, 4), proper_tree_size(4, 6))
    g = petersen()
    tree_counts = []
    all_ten = True
    for root in range(g.n):
        trees = list(build_proper_trees(g, 3, root, 5))
        tree_counts.append(len(trees))
        all_ten &= all(t.size == 10 for t in trees)
    ok = sizes == (10, 6, 26) and all(c >= 1 for c in tree_counts) and all_ten
    _report(11, ok, f"sizes {sizes}, petersen trees per root {tree_counts}")
    assert sizes == (10, 6, 26)
    assert all(c >= 1 for c in tree_counts)
    assert all_ten


def test_criterion_12_sweep_determinism(tmp_path):
    raw = {
        "family": "clique_union",
        "family_params": {"delta": "2"},
        "n_grid": [30, 45],
        "k": "2",
        "sigma_grid": ["3", "4", "6"],
        "trials": 60,
        "base_seed": 121212,
    }
    first = sweep(ExperimentConfig.from_dict(raw))
    second = sweep(ExperimentConfig.from_dict(raw))
    path_a, _ = first.write(tmp_path / "a")
    path_b, _ = second.write(tmp_path / "b")
    identical = path_a.read_bytes() == path_b.read_bytes()
    _report(12, identical, f"records.csv byte-identical across reruns: {identical}")
    assert identical
