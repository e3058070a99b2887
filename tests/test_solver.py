import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listcolor import solver
from listcolor.certificates import find_bad_triple
from listcolor.corpus import corpus_assignments, small_connected_graphs
from listcolor.errors import CertificateError, GuardExceededError
from listcolor.graphs import (
    Graph,
    complete_multipartite,
    connected_components,
    induced_subgraph,
    power_cycle,
)
from listcolor.lists import ListAssignment, SeedSpec, derive_seed, sample_assignment
from listcolor.solver import (
    COLORABLE,
    UNCOLORABLE,
    brute_force_colorable,
    extract_critical,
    solve,
    verify_coloring,
)

from conftest import uniform_lists


class TestSolve:
    def test_odd_cycle_two_colors(self, c5):
        result = solve(c5, uniform_lists(5, (1, 2)))
        assert result.status == UNCOLORABLE
        assert result.coloring is None

    def test_even_cycle_two_colors(self, c4):
        result = solve(c4, uniform_lists(4, (1, 2)))
        assert result.status == COLORABLE
        assert verify_coloring(c4, uniform_lists(4, (1, 2)), result.coloring)

    def test_triangle_distinct_pairs(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        a = ListAssignment(3, 2, [(1, 2), (2, 3), (1, 3)])
        result = solve(g, a)
        assert result.colorable
        assert verify_coloring(g, a, result.coloring)

    def test_empty_graph(self):
        result = solve(Graph(0), ListAssignment(2, 1, []))
        assert result.colorable and result.coloring == {}

    def test_witnesses_always_verify(self):
        for gi, g in enumerate(small_connected_graphs(5)):
            for _, a in corpus_assignments(g, gi, 20, ((2, 3), (3, 4)), base_seed=7):
                result = solve(g, a)
                if result.colorable:
                    assert verify_coloring(g, a, result.coloring)

    def test_stats_are_populated(self, c5):
        # one branching vertex; both of its colors propagate to a conflict
        stats = solve(c5, uniform_lists(5, (1, 2))).stats
        assert (stats.nodes, stats.backtracks, stats.max_depth) == (1, 2, 1)
        assert stats.propagations > 0


class TestIterativeSearch:
    @pytest.mark.parametrize("n,r,k,sigma", [(5000, 3, 3, 20), (5000, 2, 2, 40)])
    def test_deep_search_has_no_recursion_limit(self, n, r, k, sigma):
        g = power_cycle(n, r)
        a = sample_assignment(g, k, sigma, SeedSpec(1, 0))
        result = solve(g, a)
        assert result.status == COLORABLE
        assert verify_coloring(g, a, result.coloring)
        assert result.stats.max_depth > 1000

    def test_search_order_is_pinned(self):
        # node counts of the recursive minimum-scan search this one replaced
        g = power_cycle(800, 3)
        point_seed = derive_seed(10000, 800, 3, 12)
        nodes = [
            solve(g, sample_assignment(g, 3, 12, SeedSpec(point_seed, t))).stats.nodes
            for t in range(4)
        ]
        assert nodes == [757, 739, 760, 751]


def force_switch(mp):
    """Switch from search to the frontier DP after the first node."""
    mp.setattr(solver, "_SWITCH_BASE", 0)
    mp.setattr(solver, "_SWITCH_PER_VERTEX", 0)


class TestFrontierFallback:
    # heavy-tail trials that the search alone does not decide in minutes:
    # power_cycle(200, 2) at k=2 (base seed 0), power_cycle(800, 3) at k=3
    @pytest.mark.parametrize("n,r,sigma,base_seed,trial", [
        (200, 2, 8, 0, 0),
        (200, 2, 8, 0, 5),
        (200, 2, 10, 0, 5),
        (800, 3, 8, 100004, 3),
        (800, 3, 8, 100008, 0),
    ])
    def test_heavy_tail_trials_are_decided(self, n, r, sigma, base_seed, trial):
        g = power_cycle(n, r)
        spec = SeedSpec(derive_seed(base_seed, n, r, sigma), trial)
        result = solve(g, sample_assignment(g, r, sigma, spec))
        assert result.status == UNCOLORABLE
        assert result.stats.dp_states > 0
        assert result.stats.nodes == solver._SWITCH_BASE + solver._SWITCH_PER_VERTEX * n + 1

    def test_dp_witnesses_verify(self, monkeypatch):
        force_switch(monkeypatch)
        g = power_cycle(60, 2)
        decided = set()
        for t in range(12):
            a = sample_assignment(g, 2, 5, SeedSpec(11, t))
            result = solve(g, a)
            assert result.stats.dp_states > 0
            if result.colorable:
                assert verify_coloring(g, a, result.coloring)
            decided.add(result.status)
        assert decided == {COLORABLE, UNCOLORABLE}

    def test_wide_frontier_keeps_searching(self, monkeypatch):
        # K_{8,8} in ascending order has a frontier of 8 vertices: 3^8 > 4096
        g = complete_multipartite([8, 8])
        a = sample_assignment(g, 3, 4, SeedSpec(5, 0))
        plain = solve(g, a)
        force_switch(monkeypatch)
        forced = solve(g, a)
        assert forced.stats.nodes > 1 and forced.stats.dp_states == 0
        assert (forced.status, forced.coloring, forced.stats) == (
            plain.status, plain.coloring, plain.stats
        )

    def test_frontier_width_of_a_power_cycle(self):
        g = power_cycle(50, 3)
        assert solver._frontier_width(range(50), g.adjacency) == 6


@st.composite
def small_instances(draw):
    n = draw(st.integers(1, 7))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [e for e in pairs if draw(st.booleans())]
    k = draw(st.sampled_from((2, 3)))
    sigma = draw(st.integers(k, k + 2))
    lists = [
        tuple(sorted(draw(st.lists(st.integers(1, sigma), min_size=k, max_size=k, unique=True))))
        for _ in range(n)
    ]
    return Graph(n, edges), ListAssignment(sigma, k, lists)


@given(small_instances())
@settings(max_examples=300, deadline=None)
def test_solver_agrees_with_brute_force(instance):
    g, a = instance
    result = solve(g, a)
    assert result.colorable == brute_force_colorable(g, a)
    if result.colorable:
        assert verify_coloring(g, a, result.coloring)


@given(small_instances())
@settings(max_examples=300, deadline=None)
def test_frontier_dp_agrees_with_brute_force(instance):
    g, a = instance
    with pytest.MonkeyPatch.context() as mp:
        force_switch(mp)
        result = solve(g, a)
    assert result.colorable == brute_force_colorable(g, a)
    if result.colorable:
        assert verify_coloring(g, a, result.coloring)
    if result.stats.nodes:
        assert result.stats.dp_states > 0


class TestVerifyColoring:
    def test_monochromatic_edge_fails(self, c4):
        a = uniform_lists(4, (1, 2))
        assert not verify_coloring(c4, a, {0: 1, 1: 1, 2: 1, 3: 2})

    def test_color_outside_list_fails(self, c4):
        a = uniform_lists(4, (1, 2))
        assert not verify_coloring(c4, a, {0: 3, 1: 2, 2: 1, 3: 2})

    def test_partial_coloring_rejected(self, c4):
        with pytest.raises(Exception):
            verify_coloring(c4, uniform_lists(4, (1, 2)), {0: 1})


class TestBruteForceOracle:
    def test_identical_lists_on_small_clique(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert not brute_force_colorable(g, uniform_lists(3, (1, 2), sigma=5))

    def test_empty_graph_is_colorable(self):
        assert brute_force_colorable(Graph(0), ListAssignment(2, 1, []))

    def test_guard_on_huge_product(self):
        g = Graph(30)
        with pytest.raises(GuardExceededError):
            brute_force_colorable(g, uniform_lists(30, (1, 2, 3), sigma=3), guard=10**4)

    def test_agrees_with_solver_on_small_corpus(self):
        # a fast slice; the full 7-vertex equivalence lives in the
        # acceptance suite
        combos = ((2, 3), (2, 4), (3, 3), (3, 5))
        for gi, g in enumerate(small_connected_graphs(5)):
            for _, a in corpus_assignments(g, gi, 40, combos, base_seed=99):
                assert solve(g, a).colorable == brute_force_colorable(g, a)


class TestExtractCritical:
    def test_k4_with_pendant(self):
        edges = list(itertools.combinations(range(4), 2)) + [(3, 4)]
        g = Graph(5, edges)
        a = uniform_lists(5, (1, 2, 3))
        vs, sub = extract_critical(g, a)
        assert vs == (0, 1, 2, 3)
        assert len(sub.edges) == 6

    def test_c5_is_its_own_core(self, c5):
        vs, _ = extract_critical(c5, uniform_lists(5, (1, 2)))
        assert vs == (0, 1, 2, 3, 4)

    def test_two_bad_triangles_yield_one(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        a = uniform_lists(6, (1, 2))
        vs, sub = extract_critical(g, a)
        assert vs in ((0, 1, 2), (3, 4, 5))
        assert len(connected_components(sub)) == 1

    def test_rejects_colorable_instance(self, c4):
        with pytest.raises(CertificateError):
            extract_critical(c4, uniform_lists(4, (1, 2)))

    def test_solves_a_connected_instance_whole_once(self, c5, monkeypatch):
        sizes = []

        def counting_solve(g, assignment, deadline=None):
            sizes.append(g.n)
            return solve(g, assignment, deadline)

        monkeypatch.setattr(solver, "solve", counting_solve)
        extract_critical(c5, uniform_lists(5, (1, 2)))
        assert sizes.count(5) == 1

    def test_find_bad_triple_solves_each_vertex_set_once(self, monkeypatch):
        shapes = []

        def counting_solve(g, assignment, deadline=None):
            shapes.append((g.n, len(g.edges)))
            return solve(g, assignment, deadline)

        monkeypatch.setattr(solver, "solve", counting_solve)
        # K4 plus a pendant vertex: the whole graph and its K4 core are the
        # only vertex sets of their shapes
        edges = list(itertools.combinations(range(4), 2)) + [(3, 4)]
        assert find_bad_triple(Graph(5, edges), uniform_lists(5, (1, 2, 3))) is not None
        assert shapes.count((5, 7)) == 1
        assert shapes.count((4, 6)) == 1

    def test_core_satisfies_criticality(self):
        combos = ((2, 3), (3, 3))
        hits = 0
        for gi, g in enumerate(small_connected_graphs(6)):
            if gi % 7:
                continue
            for _, a in corpus_assignments(g, gi, 30, combos, base_seed=3):
                if solve(g, a).colorable:
                    continue
                hits += 1
                vs, sub = extract_critical(g, a)
                sub_lists = a.restrict(vs)
                assert not solve(sub, sub_lists).colorable
                assert len(connected_components(sub)) == 1
                for drop in range(sub.n):
                    rest = [v for v in range(sub.n) if v != drop]
                    smaller, _ = induced_subgraph(sub, rest)
                    smaller_lists = ListAssignment(
                        a.sigma, a.k, [sub_lists[v] for v in rest]
                    )
                    assert solve(smaller, smaller_lists).colorable
        assert hits > 10


@given(st.integers(0, 2**32), st.integers(4, 6))
@settings(max_examples=40, deadline=None)
def test_enlarging_a_list_never_breaks_colorability(seed, n):
    """Monotonicity: adding a color to one list cannot flip a colorable
    instance to uncolorable."""
    graphs = small_connected_graphs(6)
    g = graphs[seed % len(graphs)]
    a = sample_assignment(g, 2, 4, SeedSpec(seed))
    if not solve(g, a).colorable:
        return
    v = seed % g.n
    extra = next((c for c in range(1, 5) if c not in a[v]), None)
    if extra is None:
        return
    grown = list(map(list, a.lists))
    grown[v].append(extra)
    bigger = [sorted(lst) for lst in grown]
    # heterogeneous sizes are outside ListAssignment's contract; check via
    # the exhaustive scan instead
    found = any(
        all(combo[x] != combo[y] for x, y in g.edges)
        for combo in itertools.product(*bigger)
    )
    assert found
