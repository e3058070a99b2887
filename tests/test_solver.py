import hashlib
import itertools
import tracemalloc
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listcolor import solver
from listcolor.certificates import find_bad_triple, is_bad_triple
from listcolor.certificates import CERTIFICATE_KINDS, certify
from listcolor.corpus import corpus_assignments, default_combos, small_connected_graphs
from listcolor.errors import CertificateError, GuardExceededError, SolveTimeout
from listcolor.graphs import (
    Graph,
    clique_union,
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

    def test_memory_does_not_grow_with_sigma(self):
        # the search state is indexed by list positions, never by color value
        g = power_cycle(20000, 2)
        peaks = []
        for sigma in (50, 10**9):
            a = sample_assignment(g, 3, sigma, SeedSpec(3, 0))
            tracemalloc.start()
            try:
                assert solve(g, a).colorable
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_counts_reached_survive_a_timeout(self):
        g = power_cycle(800, 3)
        a = sample_assignment(g, 3, 12, SeedSpec(derive_seed(10000, 800, 3, 12), 0))
        stats = solver.SolveStats(nodes=5, max_depth=7)
        with pytest.raises(SolveTimeout):
            solver._solve_component(range(g.n), g.adjacency, a, stats, deadline=0.0)
        assert (stats.nodes, stats.max_depth) == (6, 7)


def witness_digest(results):
    """sha256 over each result's sorted witness items (None if uncolorable)."""
    lines = [repr(sorted(r.coloring.items()) if r.colorable else None) for r in results]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestSearchIsPinned:
    """Every SolveStats count and every witness of fixed seeded instances,
    so a change to the search's bookkeeping cannot change the search."""

    # (graph, k, sigma, base seed, trials) -> SolveStats as (nodes,
    # propagations, backtracks, max_depth, dp_states) per trial, then the
    # witness digest; a cell's lists come from derive_seed(base, n, k, sigma)
    CELLS = {
        "pc800k3s8": (
            lambda: power_cycle(800, 3), 3, 8, 10000, range(4),
            [(604, 196, 0, 604, 0), (627, 178, 2, 627, 0),
             (600, 225, 11, 596, 0), (627, 175, 1, 627, 0)],
            "e3989dad27a5d195550827accd0929c115ba46d35bc4d36f88e27839ab8dd2a1",
        ),
        "pc800k3s12": (
            lambda: power_cycle(800, 3), 3, 12, 10000, range(4),
            [(757, 43, 0, 757, 0), (739, 61, 0, 739, 0),
             (760, 40, 0, 760, 0), (751, 49, 0, 751, 0)],
            "fc2dbba5826407fade16b7f4cbfc14d850a2cf5bee816db6189389955d554fd2",
        ),
        "pc800k3s20": (
            lambda: power_cycle(800, 3), 3, 20, 10000, range(4),
            [(792, 8, 0, 792, 0), (794, 6, 0, 794, 0),
             (791, 9, 0, 791, 0), (793, 7, 0, 793, 0)],
            "a3436dd963570799eedc2d0e57ed7ee13ff72774f744b86111ffd1a0647463d6",
        ),
        "pc800k3s8-dp": (
            lambda: power_cycle(800, 3), 3, 8, 100004, [3],
            [(4201, 11183, 8656, 110, 31127)],
            "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
        ),
        "pc200k2s8": (
            lambda: power_cycle(200, 2), 2, 8, 0, range(6),
            [(1801, 4194, 3564, 28, 509), (100, 128, 5, 100, 0), (81, 121, 1, 81, 0),
             (94, 106, 0, 94, 0), (101, 102, 1, 101, 0), (1801, 3897, 3493, 61, 926)],
            "0af0151eb0370ad2a8338ac73550169eb76fe1fc469acc93e97dbbdb62ed42a7",
        ),
        "pc200k2s10": (
            lambda: power_cycle(200, 2), 2, 10, 0, range(6),
            [(119, 81, 0, 119, 0), (123, 77, 0, 123, 0), (122, 82, 2, 122, 0),
             (113, 87, 0, 113, 0), (120, 83, 1, 120, 0), (1801, 4906, 3402, 104, 2028)],
            "3a9e611d7c49e2f512c0d2e9046f5989dcd943ea350cc47513fa5e5d4011d783",
        ),
        "cu20000k2s24": (
            lambda: clique_union(20000, 4), 2, 24, 0, range(2),
            [(16411, 3402, 21, 5, 0), (16569, 3457, 10, 5, 0)],
            "559834b2ce37c81d02fa441605bbd1d74028e859fe93365359433a6565a12f74",
        ),
        "km555k3s4": (
            lambda: complete_multipartite([5, 5, 5]), 3, 4, 0, range(8),
            [(4, 11, 0, 4, 0), (3, 12, 0, 3, 0), (6, 49, 6, 4, 0), (6, 30, 3, 5, 0),
             (7, 46, 6, 5, 0), (4, 39, 9, 2, 0), (10, 15, 1, 10, 0), (7, 49, 6, 5, 0)],
            "2430524bcaeaea5b7417bd015fb67baa6bc6259f32931841074ad863cca92515",
        ),
    }

    @pytest.mark.parametrize("name", list(CELLS))
    def test_cell_stats_and_witnesses(self, name):
        build, k, sigma, base_seed, trials, stats, digest = self.CELLS[name]
        g = build()
        point_seed = derive_seed(base_seed, g.n, k, sigma)
        results = [
            solve(g, sample_assignment(g, k, sigma, SeedSpec(point_seed, t))) for t in trials
        ]
        assert [astuple(r.stats) for r in results] == stats
        assert witness_digest(results) == digest

    # 200 corpus instances: every 5th connected graph on at most 7 vertices,
    # (k, sigma) cycling through default_combos(), lists at base seed 15.
    # A line is "gi k sigma stats witness".
    CORPUS_SHA256 = (200, "09aea7548d3979129907535a5653285d16999a0e4ae27b25a1ce64211d72f88e")

    def test_corpus_stats_and_witnesses(self):
        combos = default_combos()
        lines = []
        for gi, g in enumerate(small_connected_graphs(7)):
            if gi % 5:
                continue
            k, sigma = combos[(gi // 5) % len(combos)]
            r = solve(g, sample_assignment(g, k, sigma, SeedSpec(derive_seed(15, gi))))
            lines.append(f"{gi} {k} {sigma} {astuple(r.stats)} {witness_digest([r])}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (len(lines), digest) == self.CORPUS_SHA256


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

    @staticmethod
    def record_searches(monkeypatch):
        """Vertex sets that `_solve_component` searches, in call order."""
        searched = []
        original = solver._solve_component

        def recording(comp, adjacency, assignment, stats, deadline):
            searched.append(tuple(comp))
            return original(comp, adjacency, assignment, stats, deadline)

        monkeypatch.setattr(solver, "_solve_component", recording)
        return searched

    def test_solves_a_connected_instance_whole_once(self, c5, monkeypatch):
        searched = self.record_searches(monkeypatch)
        extract_critical(c5, uniform_lists(5, (1, 2)))
        assert searched.count((0, 1, 2, 3, 4)) == 1

    def test_find_bad_triple_solves_each_vertex_set_once(self, monkeypatch):
        searched = self.record_searches(monkeypatch)
        # K4 plus a pendant vertex: the whole graph, then its K4 core
        edges = list(itertools.combinations(range(4), 2)) + [(3, 4)]
        assert find_bad_triple(Graph(5, edges), uniform_lists(5, (1, 2, 3))) is not None
        assert searched.count((0, 1, 2, 3, 4)) == 1
        assert searched.count((0, 1, 2, 3)) == 1
        assert len(searched) == len(set(searched))

    def test_no_vertex_set_is_searched_twice(self, monkeypatch):
        searched = self.record_searches(monkeypatch)
        calls = 0
        for gi, g in enumerate(small_connected_graphs(6)):
            for _, a in corpus_assignments(g, gi, 5, default_combos(), base_seed=9):
                if brute_force_colorable(g, a):
                    continue
                searched.clear()
                extract_critical(g, a)
                calls += 1
                assert len(searched) == len(set(searched)), (gi, searched)
        assert calls > 100

    # sha256 over every uncolorable instance of a fixed slice: the connected
    # graphs on at most 6 vertices, then disjoint unions of two of them (the
    # first uncolorable component is the one kept), 10 assignments each over
    # default_combos() at base seed 5.  A line is "gi ai core core-edges".
    CORES_SHA256 = (575, "c6ca46b687b59bda4cdde3541cae1516606ef5fc751fc7a298e1efa580032f69")

    def test_cores_digest_is_pinned(self):
        connected = small_connected_graphs(6)
        graphs = list(connected)
        for i in range(20):
            a, b = connected[(7 * i) % len(connected)], connected[(11 * i + 5) % len(connected)]
            graphs.append(Graph(a.n + b.n, [*a.edges, *((u + a.n, v + a.n) for u, v in b.edges)]))
        lines = []
        for gi, g in enumerate(graphs):
            for ai, a in corpus_assignments(g, gi, 10, default_combos(), base_seed=5):
                if solve(g, a).colorable:
                    continue
                vs, sub = extract_critical(g, a)
                lines.append(f"{gi} {ai} {vs} {sorted(sub.edges)}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (len(lines), digest) == self.CORES_SHA256

    def test_solved_result_names_its_first_uncolorable_component(self):
        g = Graph(6, [(0, 1), (2, 3), (3, 4), (2, 4)])  # an edge, a triangle, vertex 5
        a = uniform_lists(6, (1, 2))
        assert solve(g, a).component == (2, 3, 4)
        assert solve(g, uniform_lists(6, (1, 2, 3))).component is None

    def test_certify_does_not_search_the_solved_instance_again(self, c5, monkeypatch):
        searched = self.record_searches(monkeypatch)
        a = uniform_lists(5, (1, 2))
        kind, _ = certify(c5, a, CERTIFICATE_KINDS, solve(c5, a))
        assert kind.name == "triple"
        assert searched.count((0, 1, 2, 3, 4)) == 1

    def test_solved_result_gives_the_same_cores(self):
        # the slice of test_cores_digest_is_pinned
        connected = small_connected_graphs(6)
        graphs = list(connected)
        for i in range(20):
            a, b = connected[(7 * i) % len(connected)], connected[(11 * i + 5) % len(connected)]
            graphs.append(Graph(a.n + b.n, [*a.edges, *((u + a.n, v + a.n) for u, v in b.edges)]))
        cores = 0
        for gi, g in enumerate(graphs):
            for _, a in corpus_assignments(g, gi, 10, default_combos(), base_seed=5):
                solved = solve(g, a)
                if solved.colorable:
                    continue
                assert extract_critical(g, a, solved) == extract_critical(g, a)
                cores += 1
        assert cores == self.CORES_SHA256[0]

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


@given(small_instances())
@settings(max_examples=300, deadline=None)
def test_critical_core_is_critical_by_the_oracle(instance):
    """On uncolorable instances (disconnected ones too), the core is
    connected and uncolorable, and every single deletion leaves it
    colorable, all judged by the exhaustive oracle; the bad triple found on
    the instance passes its checker."""
    g, a = instance
    if brute_force_colorable(g, a):
        return
    vs, sub = extract_critical(g, a)
    lists = a.restrict(vs)
    assert len(connected_components(sub)) == 1
    assert not brute_force_colorable(sub, lists)
    for drop in range(sub.n):
        rest = [v for v in range(sub.n) if v != drop]
        smaller, _ = induced_subgraph(sub, rest)
        assert brute_force_colorable(smaller, lists.restrict(rest))
    triple = find_bad_triple(g, a)
    assert triple is not None and is_bad_triple(g, a, triple)[0]


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
