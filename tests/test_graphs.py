import itertools
import math
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listcolor.errors import GraphParseError, InvalidParameterError
from listcolor.graphs import (
    FAMILIES,
    Graph,
    clique_union,
    complete_multipartite,
    connected_components,
    girth,
    induced_subgraph,
    petersen,
    power_cycle,
    read_graph,
    write_graph,
)

from conftest import exhaustive_girth


def test_graph_rejects_self_loop():
    with pytest.raises(InvalidParameterError):
        Graph(3, [(1, 1)])


def test_graph_adjacency_symmetric_and_sorted():
    g = Graph(4, [(2, 0), (0, 1), (3, 1)])
    for u in range(4):
        for v in g.adjacency[u]:
            assert u in g.adjacency[v]
        assert list(g.adjacency[u]) == sorted(g.adjacency[u])


def test_has_edge_is_false_outside_the_vertex_range():
    g = power_cycle(5, 1)  # 4 ~ 0 closes the cycle, so -1 must not wrap to 4
    assert g.has_edge(0, 4) and g.has_edge(4, 0)
    for u, v in [(-1, 0), (0, -1), (-1, 3), (-5, 1), (5, 0), (0, 5), (6, 7), (2, 2)]:
        assert not g.has_edge(u, v), (u, v)
    assert not Graph(0).has_edge(0, 0)


def test_handshake_on_generated_graphs():
    for g in [power_cycle(8, 2), clique_union(10, 2), complete_multipartite([2, 2, 2]), petersen()]:
        assert sum(map(len, g.adjacency)) == 2 * len(g.edges)


class TestPowerCycle:
    def test_plain_cycle(self):
        g = power_cycle(8, 1)
        assert len(g.edges) == 8
        assert all(len(g.adjacency[v]) == 2 for v in range(g.n))

    def test_square_of_c8(self):
        g = power_cycle(8, 2)
        # oracle: count pairs at circular distance <= 2 directly
        expected = {
            (i, j)
            for i in range(8)
            for j in range(8)
            if i < j and min((i - j) % 8, (j - i) % 8) <= 2
        }
        assert g.edges == frozenset(expected)
        assert len(g.edges) == 16
        assert all(len(g.adjacency[v]) == 4 for v in range(g.n))

    def test_c5_squared_is_complete(self):
        g = power_cycle(5, 2)
        assert len(g.edges) == 10

    @pytest.mark.parametrize("n,r", [(8, 4), (8, 5), (6, 3), (2, 1)])
    def test_rejects_degenerate_range(self, n, r):
        with pytest.raises(InvalidParameterError):
            power_cycle(n, r)

    def test_regularity(self):
        for n, r in [(7, 2), (9, 3), (12, 5)]:
            g = power_cycle(n, r)
            assert all(len(g.adjacency[v]) == 2 * r for v in range(g.n))


class TestCliqueUnion:
    def test_three_triangles_plus_isolated(self):
        g = clique_union(10, 2)
        comps = connected_components(g)
        sizes = sorted(len(c) for c in comps)
        assert sizes == [1, 3, 3, 3]

    def test_three_k4(self):
        g = clique_union(12, 3)
        assert len(g.edges) == 18
        assert len(connected_components(g)) == 3

    def test_single_block_k7(self):
        g = clique_union(7, 6)
        assert len(g.edges) == 21

    def test_blocks_are_cliques(self):
        g = clique_union(23, 4)
        nontrivial = [c for c in connected_components(g) if len(c) > 1]
        assert len(nontrivial) == 23 // 5
        for comp in nontrivial:
            assert len(comp) == 5
            assert all(g.has_edge(u, v) for u, v in itertools.combinations(comp, 2))

    def test_rejects_oversized_block(self):
        with pytest.raises(InvalidParameterError):
            clique_union(4, 6)


class TestCompleteMultipartite:
    def test_k33(self):
        assert len(complete_multipartite([3, 3]).edges) == 9

    def test_triangle(self):
        assert complete_multipartite([1, 1, 1]).edges == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_octahedron_edge_count(self):
        assert len(complete_multipartite([2, 2, 2]).edges) == 12

    def test_rejects_single_part(self):
        with pytest.raises(InvalidParameterError):
            complete_multipartite([4])


def test_petersen_shape():
    g = petersen()
    assert g.n == 10
    assert len(g.edges) == 15
    assert g.max_degree() == 3
    assert girth(g) == 5
    assert exhaustive_girth(g) == 5


class TestGirth:
    def test_c6(self):
        assert girth(power_cycle(6, 1)) == 6

    def test_path_is_acyclic(self):
        assert girth(Graph(4, [(0, 1), (1, 2), (2, 3)])) == math.inf

    def test_agrees_with_exhaustive_enumeration_small(self):
        # every graph on 5 vertices
        for bits in range(1 << 10):
            pairs = list(itertools.combinations(range(5), 2))
            edges = [pairs[i] for i in range(10) if bits >> i & 1]
            g = Graph(5, edges)
            assert girth(g) == exhaustive_girth(g), edges

    def test_agrees_with_exhaustive_enumeration_on_every_family(self):
        for name, args, g in family_graphs():
            if g.n <= 10:  # the enumeration grows as (n-1)!
                assert girth(g) == exhaustive_girth(g), (name, args)

    @given(st.integers(6, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_exhaustive_enumeration_random(self, n, data):
        pairs = list(itertools.combinations(range(n), 2))
        chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
        g = Graph(n, chosen)
        assert girth(g) == exhaustive_girth(g)


class TestInducedSubgraph:
    def test_k4_to_k3(self):
        g = Graph(4, list(itertools.combinations(range(4), 2)))
        sub, mapping = induced_subgraph(g, [0, 1, 2])
        assert sub.n == 3 and len(sub.edges) == 3
        assert mapping == {0: 0, 1: 1, 2: 2}

    def test_c5_nonadjacent_pick_keeps_one_edge(self):
        g = power_cycle(5, 1)
        sub, mapping = induced_subgraph(g, [0, 1, 3])
        assert len(sub.edges) == 1
        assert sub.has_edge(mapping[0], mapping[1])

    def test_edge_count_matches_membership_scan(self):
        g = petersen()
        for vs in itertools.combinations(range(10), 4):
            sub, _ = induced_subgraph(g, vs)
            expected = sum(1 for u, v in itertools.combinations(vs, 2) if g.has_edge(u, v))
            assert len(sub.edges) == expected

    def test_monotone_under_intersection(self):
        g = petersen()
        a, b = {0, 1, 2, 5, 6}, {1, 2, 3, 6, 8}
        sub_ab, map_ab = induced_subgraph(g, a & b)
        sub_a, map_a = induced_subgraph(g, a)
        back_ab = {v: k for k, v in map_ab.items()}
        edges_ab = {(back_ab[u], back_ab[v]) for u, v in sub_ab.edges}
        back_a = {v: k for k, v in map_a.items()}
        edges_a = {(back_a[u], back_a[v]) for u, v in sub_a.edges}
        assert edges_ab <= edges_a


# small argument grids, one per entry of FAMILIES
FAMILY_GRIDS = {
    "clique_union": [(n, d) for n in (2, 5, 7, 12) for d in (1, 2, 3, 6) if n >= d + 1],
    "power_cycle": [(n, r) for n in (3, 4, 7, 10) for r in range(1, n) if r < n / 2],
    "complete_multipartite": [([1, 1],), ([2, 3],), ([1, 2, 3],), ([3, 1, 3, 2],)],
    "petersen": [()],
}


def family_graphs():
    assert FAMILY_GRIDS.keys() == FAMILIES.keys()
    for name, family in FAMILIES.items():
        for args in FAMILY_GRIDS[name]:
            yield name, args, family.generator(*args)


class TestTrustedConstruction:
    """Generators and induced_subgraph build adjacency without the public
    constructor's checks; these pin what they build to what it builds."""

    def test_generators_match_the_public_constructor(self):
        for name, args, g in family_graphs():
            rebuilt = Graph(g.n, g.edges)
            assert rebuilt == g and hash(rebuilt) == hash(g), (name, args)
            assert rebuilt.adjacency == g.adjacency, (name, args)
            assert all(type(v) is int for a in g.adjacency for v in a), (name, args)

    def test_induced_subgraph_matches_an_edge_filter(self):
        g = petersen()
        for size in range(11):
            for vs in itertools.combinations(range(10), size):
                sub, old_to_new = induced_subgraph(g, vs)
                expected = Graph(size, [
                    (old_to_new[u], old_to_new[v])
                    for u, v in g.edges if u in old_to_new and v in old_to_new
                ])
                assert sub == expected and sub.adjacency == expected.adjacency, vs

    def test_pickle_round_trips_compare_equal(self):
        graphs = [g for _, _, g in family_graphs()]
        graphs.append(induced_subgraph(petersen(), [0, 2, 5, 7, 8])[0])
        for g in graphs:
            copy = pickle.loads(pickle.dumps(g))
            assert copy == g and copy.adjacency == g.adjacency and copy.edges == g.edges

    def test_constructor_tolerates_duplicates(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1), (2, 1)])
        assert g.adjacency == ((1,), (0, 2), (1,))
        assert g.edges == frozenset({(0, 1), (1, 2)})

    @pytest.mark.parametrize("edge", [(0, 3), (-1, 0), (2, -3)])
    def test_constructor_rejects_out_of_range_ids(self, edge):
        with pytest.raises(InvalidParameterError, match="out of range"):
            Graph(3, [edge])


def test_clique_union_retains_less_than_half_of_an_edge_set_graph():
    # A graph that also kept its edges as a frozenset of tuples retained
    # 8.18 MiB here (Python 3.11); the adjacency alone needs about 2.1 MiB.
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = clique_union(20000, 4)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert g.n == 20000
    assert retained < 8.18 / 2 * 2**20


class TestComponentsKeptInGraph:
    def test_repeated_call_returns_equal_lists(self):
        g = clique_union(10, 2)
        first = connected_components(g)
        assert connected_components(g) == first == [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9,)]

    def test_changing_a_result_does_not_change_the_next(self):
        g = clique_union(10, 2)
        comps = connected_components(g)
        comps.pop()
        comps[0] = (99,)
        assert connected_components(g) == [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9,)]

    def test_pickled_copy_computes_its_own(self):
        g = clique_union(10, 2)
        comps = connected_components(g)
        copy = pickle.loads(pickle.dumps(g))
        assert copy._components is None
        assert connected_components(copy) == comps

    def test_induced_subgraph_computes_its_own(self):
        g = power_cycle(8, 1)
        assert connected_components(g) == [tuple(range(8))]
        sub, _ = induced_subgraph(g, [0, 1, 3, 4, 6])
        assert sub._components is None
        assert connected_components(sub) == [(0, 1), (2, 3), (4,)]


class TestGraphIO:
    def test_read_path(self):
        g = read_graph("n=3\n0 1\n1 2\n")
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_round_trip_is_canonical(self):
        text = "n=4\n# comment\n2 0\n\n1 0\n3 2\n"
        assert write_graph(read_graph(text)) == "n=4\n0 1\n0 2\n2 3\n"

    def test_round_trip_generated(self):
        for g in [petersen(), clique_union(9, 2), power_cycle(7, 3)]:
            assert read_graph(write_graph(g)) == g

    def test_self_loop_reports_line(self):
        with pytest.raises(GraphParseError, match="line 2"):
            read_graph("n=2\n0 0\n")

    def test_duplicate_edge_reports_line(self):
        with pytest.raises(GraphParseError, match="line 3"):
            read_graph("n=3\n0 1\n1 0\n")

    def test_out_of_range_vertex(self):
        with pytest.raises(GraphParseError, match="out of range"):
            read_graph("n=2\n0 5\n")

    def test_missing_header(self):
        with pytest.raises(GraphParseError):
            read_graph("0 1\n")
