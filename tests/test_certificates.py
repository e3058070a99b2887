import hashlib
import itertools
import json
import math

import pytest

from listcolor import certificates as certs
from listcolor.certificates import (
    CYCLE,
    EVEN,
    LOLLIPOP,
    ODD,
    OrderedSeq,
    ProperPair,
    ProperTriple,
    RootedProperTree,
    alternating_chain,
    certificate_to_json,
    find_2bad_pair,
    find_bad_triple,
    find_tree_bad,
    is_2bad_pair,
    is_bad_triple,
    is_tree_bad,
    proper_tree_size,
)
from listcolor.corpus import DEFAULT_COMBOS, corpus_assignments, small_connected_graphs
from listcolor.errors import (
    CertificateError,
    GuardExceededError,
    InvalidParameterError,
    ListColorError,
)
from listcolor.graphs import (
    INFINITE_GIRTH,
    Graph,
    complete_multipartite,
    girth,
    petersen,
    power_cycle,
)
from listcolor.lists import ListAssignment, SeedSpec, derive_seed, sample_assignment
from listcolor.solver import brute_force_colorable, extract_critical, solve

from conftest import uniform_lists
from support import (
    AlternatingPath,
    build_proper_trees,
    count_nonconsecutive,
    count_proper_triples_by_m,
    enumerate_proper_triples,
    find_alternating_paths,
    free_color_vertices,
    induced_rank,
    is_L_alternating,
    projective_plane_incidence,
    reference_tree_bad,
)


def exhaustive_alt_distances(g, assignment, coloring, origin):
    """Enumerate every simple path from the origin, keep those where each
    step's color lies in the previous vertex's list, and record minimum
    lengths."""
    best = {origin: 0}

    def extend(path):
        last = path[-1]
        for w in g.adjacency[last]:
            if w in path:
                continue
            if coloring[w] in assignment[last]:
                d = len(path)
                if d < best.get(w, math.inf):
                    best[w] = d
                extend(path + (w,))

    extend((origin,))
    return best


class TestAlternatingPaths:
    def test_path_of_three_reachable_stepwise(self):
        g = Graph(3, [(0, 1), (1, 2)])
        a = ListAssignment(3, 2, [(1, 2), (1, 3), (1, 3)])
        phi = {1: 1, 2: 3}
        assert find_alternating_paths(g, a, phi, 0) == {0: 0, 1: 1, 2: 2}

    def test_blocked_first_step(self):
        g = Graph(3, [(0, 1), (1, 2)])
        a = ListAssignment(4, 2, [(2, 3), (1, 4), (1, 4)])
        phi = {1: 1, 2: 4}
        assert find_alternating_paths(g, a, phi, 0) == {0: 0}

    def test_invalid_coloring_rejected(self):
        g = Graph(3, [(0, 1), (1, 2)])
        a = uniform_lists(3, (1, 2))
        with pytest.raises(CertificateError):
            find_alternating_paths(g, a, {1: 1, 2: 1}, 0)  # monochromatic edge
        with pytest.raises(CertificateError):
            find_alternating_paths(g, a, {1: 1}, 0)  # not total

    def test_agrees_with_exhaustive_path_enumeration(self):
        checked = 0
        for gi, g in enumerate(small_connected_graphs(6)):
            if gi % 5:
                continue
            for _, a in corpus_assignments(g, gi, 12, ((2, 3), (3, 4)), base_seed=41):
                origin = gi % g.n
                from listcolor.graphs import induced_subgraph

                rest = [v for v in range(g.n) if v != origin]
                sub, _ = induced_subgraph(g, rest)
                result = solve(sub, ListAssignment(a.sigma, a.k, [a[v] for v in rest]))
                if not result.colorable:
                    continue
                phi = {rest[v]: c for v, c in result.coloring.items()}
                assert find_alternating_paths(g, a, phi, origin) == exhaustive_alt_distances(
                    g, a, phi, origin
                )
                checked += 1
        assert checked > 50

    def test_alternating_path_type_validates(self):
        g = Graph(3, [(0, 1), (1, 2)])
        a = ListAssignment(3, 2, [(1, 2), (1, 3), (1, 3)])
        phi = {1: 1, 2: 3}
        AlternatingPath((0, 1, 2), (1, 3)).validate(g, a, phi)
        AlternatingPath((0,), ()).validate(g, a, phi)  # length 0 allowed
        with pytest.raises(CertificateError):
            AlternatingPath((0, 2), (3,)).validate(g, a, phi)  # not adjacent


class TestInducedRank:
    def test_path_ranks(self):
        g = Graph(3, [(0, 1), (1, 2)])
        a = ListAssignment(3, 2, [(1, 2), (1, 3), (1, 3)])
        assert induced_rank(g, a, {1: 1, 2: 3}, 0) == {0: 0, 1: 1, 2: 2}

    def test_star_all_rank_one(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        a = uniform_lists(4, (1, 2), sigma=3)
        rank = induced_rank(g, a, {1: 1, 2: 2, 3: 1}, 0)
        assert rank == {0: 0, 1: 1, 2: 1, 3: 1}

    def test_unreachable_vertex_is_an_error(self):
        g = Graph(3, [(0, 1), (1, 2)])
        a = ListAssignment(4, 2, [(2, 3), (1, 4), (1, 4)])
        with pytest.raises(CertificateError, match="unreachable"):
            induced_rank(g, a, {1: 1, 2: 4}, 0)

    def test_rank_ladder_property_on_random_instances(self):
        """Every positive-rank vertex must have a neighbor ranked one less."""
        from listcolor.graphs import induced_subgraph

        checked = 0
        for gi, g in enumerate(small_connected_graphs(6)):
            for ai, a in corpus_assignments(g, gi, 10, ((2, 4), (3, 4)), base_seed=17):
                origin = (gi + ai) % g.n
                rest = [v for v in range(g.n) if v != origin]
                sub, _ = induced_subgraph(g, rest)
                result = solve(sub, ListAssignment(a.sigma, a.k, [a[v] for v in rest]))
                if not result.colorable:
                    continue
                phi = {rest[v]: c for v, c in result.coloring.items()}
                if len(find_alternating_paths(g, a, phi, origin)) != g.n:
                    continue
                rank = induced_rank(g, a, phi, origin)
                triple = ProperTriple(tuple(range(g.n)), origin, rank)
                triple.validate(g)  # includes the s-1 neighbor condition
                checked += 1
        assert checked >= 500


class TestBadTriples:
    def test_identical_list_triangle_is_bad(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        a = uniform_lists(3, (1, 2), sigma=3)
        triple = ProperTriple((0, 1, 2), 0, {0: 0, 1: 1, 2: 1})
        ok, witness = is_bad_triple(g, a, triple)
        assert ok
        assert set(witness) == {1, 2} and witness[1] != witness[2]

    def test_colorable_core_is_never_bad(self):
        g = Graph(3, [(0, 1), (1, 2)])
        a = uniform_lists(3, (1, 2), sigma=3)
        triple = ProperTriple((0, 1, 2), 0, {0: 0, 1: 1, 2: 2})
        assert is_bad_triple(g, a, triple) == (False, None)

    def test_rank_not_induced_by_any_coloring_fails(self, c5):
        a = uniform_lists(5, (1, 2))
        # vertex 3 is forced to distance 2 by the always-usable step 4 -> 3
        skewed = ProperTriple((0, 1, 2, 3, 4), 0, {0: 0, 1: 1, 2: 2, 3: 3, 4: 1})
        skewed.validate(c5)
        assert is_bad_triple(c5, a, skewed) == (False, None)

    def test_improper_triple_is_a_contract_error(self, c5):
        a = uniform_lists(5, (1, 2))
        with pytest.raises(CertificateError):
            is_bad_triple(c5, a, ProperTriple((0, 1, 2), 0, {0: 0, 1: 2, 2: 2}))

    def test_find_on_odd_cycle(self, c5):
        a = uniform_lists(5, (1, 2))
        triple = find_bad_triple(c5, a)
        assert triple is not None
        assert is_bad_triple(c5, a, triple)[0]

    def test_find_on_colorable_instance_returns_none(self, c4):
        assert find_bad_triple(c4, uniform_lists(4, (1, 2))) is None

    def test_identical_list_clique_gives_minimal_core(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        a = uniform_lists(3, (1, 2), sigma=4)
        triple = find_bad_triple(g, a)
        assert triple.size == 3


class TestTripleEnumeration:
    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        triples = list(enumerate_proper_triples(g, 2))
        assert len(triples) == 4  # two singletons, two rooted edges
        two = [t for t in triples if t.size == 2]
        assert {(t.root, t.rank[1 - t.root]) for t in two} == {(0, 1), (1, 1)}

    def test_size_one_yields_every_root(self):
        g = petersen()
        assert sum(1 for t in enumerate_proper_triples(g, 1)) == 10

    def test_k3_counts_under_bound(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        counts = count_proper_triples_by_m(g, 3)
        for m, count in counts.items():
            assert count <= 3 * 3 ** (m - 1) * math.factorial(m - 1)
        assert counts[3] <= 54

    def test_all_enumerated_triples_are_proper_and_unique(self):
        g = power_cycle(6, 2)
        seen = set()
        for t in enumerate_proper_triples(g, 4):
            t.validate(g)
            key = (t.root, tuple(sorted(t.rank.items())))
            assert key not in seen
            seen.add(key)

    def test_counts_match_enumeration(self):
        for g in [petersen(), power_cycle(7, 2), Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])]:
            counts = count_proper_triples_by_m(g, 4)
            by_m = {}
            for t in enumerate_proper_triples(g, 4):
                by_m[t.size] = by_m.get(t.size, 0) + 1
            assert {m: c for m, c in counts.items() if c} == by_m


class TestOrderedSequences:
    def test_triangle_chain(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        a = uniform_lists(3, (1, 2), sigma=3)
        seq = OrderedSeq(CYCLE, (0, 1, 2), 0)
        ok, chain = is_L_alternating(seq, a, first_color=1)
        assert ok and chain == (1, 2)

    def test_closing_mismatch(self):
        a = ListAssignment(3, 2, [(1, 2), (1, 2), (1, 3)])
        seq = OrderedSeq(CYCLE, (0, 1, 2), 0)
        assert is_L_alternating(seq, a) == (False, None)

    def test_degenerate_sequences_rejected_structurally(self):
        with pytest.raises(CertificateError):
            OrderedSeq(CYCLE, (0, 1), 0)
        with pytest.raises(CertificateError):
            OrderedSeq(LOLLIPOP, (0, 1, 2, 3), 2)  # closes into its predecessor
        with pytest.raises(CertificateError):
            OrderedSeq(CYCLE, (0, 1, 1), 0)

    def test_lollipop_chain(self):
        # path 0-1-2-3 plus chord 3-1
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
        a = ListAssignment(3, 2, [(1, 2), (1, 2), (2, 3), (1, 3)])
        seq = OrderedSeq(LOLLIPOP, (0, 1, 2, 3), 1)
        ok, chain = is_L_alternating(seq, a, first_color=1)
        # chain 1,2,3; closing needs L(3) == {3, chain[1]=2}? it is {1,3}
        assert not ok
        b = ListAssignment(3, 2, [(1, 2), (1, 2), (2, 3), (2, 3)])
        ok, chain = is_L_alternating(seq, b, first_color=1)
        assert ok and chain == (1, 2, 3)

    def test_requires_two_lists(self):
        a = uniform_lists(3, (1, 2, 3))
        with pytest.raises(InvalidParameterError):
            alternating_chain(OrderedSeq(CYCLE, (0, 1, 2), 0), a)


class TestTwoBadPairs:
    def test_odd_cycle_pair_found_and_valid(self, c5):
        a = uniform_lists(5, (1, 2))
        pair = find_2bad_pair(c5, a)
        assert pair is not None
        ok, chains = is_2bad_pair(c5, a, pair)
        assert ok
        assert {chains[0][0], chains[1][0]} == {1, 2}
        assert pair.h1.second_vertex != pair.h2.second_vertex

    def test_colorable_instances_have_no_pair(self):
        checked = 0
        for gi, g in enumerate(small_connected_graphs(5)):
            for _, a in corpus_assignments(g, gi, 25, ((2, 3),), base_seed=13):
                pair = find_2bad_pair(g, a)
                if solve(g, a).colorable:
                    assert pair is None or not is_2bad_pair(g, a, pair)[0]
                    checked += 1
        assert checked > 100

    def test_identical_list_triangle_pair(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        a = uniform_lists(3, (1, 2), sigma=3)
        pair = find_2bad_pair(g, a)
        assert pair is not None and is_2bad_pair(g, a, pair)[0]
        assert set(pair.h1.vertices) | set(pair.h2.vertices) == {0, 1, 2}

    def test_wrong_list_size_rejected(self, c5):
        with pytest.raises(InvalidParameterError):
            find_2bad_pair(c5, uniform_lists(5, (1, 2, 3)))

    def test_long_odd_cycle_has_no_depth_limit(self):
        # every chain runs around the whole cycle: 5000 states deep
        n = 5001
        g = power_cycle(n, 1)
        a = uniform_lists(n, (1, 2))
        pair = find_2bad_pair(g, a)
        assert pair is not None and is_2bad_pair(g, a, pair)[0]
        assert pair.h1.kind == pair.h2.kind == CYCLE
        assert len(pair.h1.vertices) == len(pair.h2.vertices) == n

    def test_budget_is_spent_once_per_visited_state(self, monkeypatch):
        # an odd cycle visits n - 1 states in each of the four chains of
        # vertex 0; the second instance backtracks through 846 states
        n = 21
        g, a = power_cycle(n, 1), uniform_lists(n, (1, 2))
        monkeypatch.setattr(certs, "_MAX_STEPS", 4 * (n - 1))
        assert find_2bad_pair(g, a) is not None
        monkeypatch.setattr(certs, "_MAX_STEPS", 4 * (n - 1) - 1)
        with pytest.raises(GuardExceededError):
            find_2bad_pair(g, a)
        g = power_cycle(9, 2)
        a = ListAssignment(3, 2, [(1, 2), (2, 3), (1, 3)] * 3)
        monkeypatch.setattr(certs, "_MAX_STEPS", 846)
        assert find_2bad_pair(g, a) is None
        monkeypatch.setattr(certs, "_MAX_STEPS", 845)
        with pytest.raises(GuardExceededError):
            find_2bad_pair(g, a)


class TestNonconsecutiveCount:
    def test_disjoint_except_first(self):
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
        pair = ProperPair(
            OrderedSeq(CYCLE, (0, 1, 2), 0), OrderedSeq(CYCLE, (0, 3, 4), 0)
        )
        pair.validate(g)
        assert count_nonconsecutive(pair) == 0

    def test_retraced_edges_are_consecutive(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        pair = ProperPair(
            OrderedSeq(CYCLE, (0, 1, 2), 0), OrderedSeq(CYCLE, (0, 2, 1), 0)
        )
        pair.validate(g)
        assert count_nonconsecutive(pair) == 0

    def test_chord_entry_counts_once(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (2, 4), (0, 2)])
        h1 = OrderedSeq(CYCLE, (0, 1, 2, 3), 0)
        h2 = OrderedSeq(CYCLE, (0, 4, 2), 0)
        pair = ProperPair(h1, h2)
        pair.validate(g)
        # vertex 2 is shared and its predecessor 4 along h2 is not an h1 edge
        assert count_nonconsecutive(pair) == 1


class TestProperTreeSize:
    def test_reference_values(self):
        assert proper_tree_size(3, 5) == 10
        assert proper_tree_size(3, 4) == 6
        assert proper_tree_size(4, 6) == 26

    def test_matches_closed_form(self):
        for k in range(3, 7):
            for g in range(4, 12):
                q = proper_tree_size(k, g)
                if g % 2:
                    assert q == 1 + k * ((k - 1) ** ((g - 1) // 2) - 1) // (k - 2)
                else:
                    assert q == 2 * ((k - 1) ** (g // 2) - 1) // (k - 2)

    def test_degenerate_girth_three(self):
        assert proper_tree_size(4, 3) == 5  # a clique on k+1 vertices

    def test_two_lists_give_cycle_length(self):
        for g in range(3, 10):
            assert proper_tree_size(2, g) == g

    def test_petersen_realizes_the_minimum_order(self):
        # 3-regular with girth 5 on exactly proper_tree_size(3, 5) vertices
        assert petersen().n == proper_tree_size(3, 5)


# Trees that break a graph-free shape rule, with a graph they could sit in.
MALFORMED_TREES = [
    # the root has a parent, and 2 is not a vertex of the tree
    (RootedProperTree(ODD, 5, 3, 6, None, {1: 2, 3: 2, 7: 2, 0: 1, 6: 1, 4: 3, 8: 3,
                                           5: 7, 9: 7}), petersen()),
    (RootedProperTree(ODD, 5, 2, 0, 1, {1: 0, 4: 0, 2: 1, 3: 4}), power_cycle(5, 1)),
    (RootedProperTree(EVEN, 6, 2, 0, None, {1: 0, 5: 0, 2: 1, 4: 5, 3: 2}), power_cycle(6, 1)),
    (RootedProperTree(EVEN, 6, 2, 0, 0, {1: 0, 5: 0, 2: 1, 4: 5, 3: 2}), power_cycle(6, 1)),
    (RootedProperTree(EVEN, 6, 2, 0, 2, {1: 0, 5: 0, 2: 1, 4: 5, 3: 2}), power_cycle(6, 1)),
    (RootedProperTree(ODD, 6, 2, 0, None, {1: 0, 5: 0, 2: 1, 4: 5, 3: 2}), power_cycle(6, 1)),
    (RootedProperTree(EVEN, 5, 2, 0, 1, {1: 0, 4: 0, 2: 1, 3: 4}), power_cycle(5, 1)),
    (RootedProperTree(ODD, 5, 1, 0, None, {1: 0, 4: 0, 2: 1, 3: 4}), power_cycle(5, 1)),
    (RootedProperTree(EVEN, 2, 2, 0, 1, {1: 0}), power_cycle(5, 1)),
    (RootedProperTree(ODD, 5, 2, 0, None, {1: 0, 4: 0, 2: 1, 3: 9}), power_cycle(5, 1)),
    # 2 and 3 point at each other, away from the root
    (RootedProperTree(ODD, 5, 2, 0, None, {1: 0, 4: 0, 2: 3, 3: 2}), power_cycle(5, 1)),
    # 5 sits at side depth 1 with no child, 3 at side depth 2 with one
    (RootedProperTree(EVEN, 6, 2, 0, 1, {1: 0, 5: 0, 2: 1, 3: 2, 4: 3}), power_cycle(6, 1)),
    (RootedProperTree(ODD, 5, 3, 0, None, {1: 0, 4: 0, 5: 0, 2: 1, 6: 1, 3: 4, 9: 4,
                                           7: 5}), petersen()),
]
MALFORMED_TREE_IDS = [
    "root-has-parent", "odd-with-semiroot", "even-without-semiroot", "semiroot-is-root",
    "semiroot-off-root", "parity-against-girth", "parity-against-odd-girth", "k-below-2",
    "girth-below-3", "parent-outside-tree", "parent-cycle", "wrong-child-counts",
    "vertex-missing",
]


def tree_graphs():
    """Every corpus graph of finite girth above 3, then Petersen, Heawood,
    the cube, K_{3,3}, K_{4,4}, K_{3,4}, PG(2,3) and C5..C9."""
    fano = [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 0), (5, 6, 1), (6, 0, 2)]
    heawood = Graph(14, [(p, 7 + i) for i, line in enumerate(fano) for p in line])
    cube = Graph(8, [(v, v ^ b) for v in range(8) for b in (1, 2, 4) if v < v ^ b])
    corpus = [g for g in small_connected_graphs(7) if 3 < girth(g) < INFINITE_GIRTH]
    return corpus + [petersen(), heawood, cube, complete_multipartite([3, 3]),
                     complete_multipartite([4, 4]), complete_multipartite([3, 4]),
                     projective_plane_incidence(3)] + [power_cycle(n, 1) for n in range(5, 10)]


class TestProperTrees:
    def test_petersen_trees_have_ten_vertices(self):
        g = petersen()
        for root in range(10):
            trees = list(build_proper_trees(g, 3, root, 5))
            assert trees, root
            for tree in trees:
                assert tree.size == 10
                assert tree.parity == ODD
                tree.validate(g)

    def test_c5_tree_is_the_whole_cycle(self, c5):
        trees = list(build_proper_trees(c5, 2, 0, 5))
        assert len(trees) == 1
        assert trees[0].vertices == (0, 1, 2, 3, 4)
        assert trees[0].size == proper_tree_size(2, 5)

    def test_k33_even_trees(self):
        g = complete_multipartite([3, 3])
        trees = list(build_proper_trees(g, 3, 0, 4))
        assert trees
        for tree in trees:
            assert tree.parity == EVEN
            assert tree.size == 6
            assert tree.semiroot in g.adjacency[0]
            tree.validate(g)

    def test_every_built_tree_validates(self):
        fano = [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 0), (5, 6, 1), (6, 0, 2)]
        heawood = Graph(14, [(p, 7 + i) for i, line in enumerate(fano) for p in line])
        cube = Graph(8, [(v, v ^ b) for v in range(8) for b in (1, 2, 4) if v < v ^ b])
        graphs = [petersen(), heawood, cube, complete_multipartite([3, 3]),
                  complete_multipartite([4, 4])] + [power_cycle(n, 1) for n in range(5, 9)]
        built = 0
        for g in graphs:
            for k in range(2, min(len(nb) for nb in g.adjacency) + 1):
                for root in range(g.n):
                    for tree in build_proper_trees(g, k, root):
                        tree.validate(g)
                        built += 1
        assert built == 1702

    @pytest.mark.parametrize("tree, g", MALFORMED_TREES, ids=MALFORMED_TREE_IDS)
    def test_malformed_trees_raise_certificate_errors(self, tree, g):
        with pytest.raises(CertificateError):
            tree.validate(g)

    @pytest.mark.parametrize("tree, g", MALFORMED_TREES, ids=MALFORMED_TREE_IDS)
    def test_is_tree_bad_rejects_malformed_trees(self, tree, g):
        """is_tree_bad reads no graph but checks the shape first; unchecked,
        the root-has-parent tree raises KeyError: 2 in the scan and the
        parent-cycle tree gets a verdict."""
        with pytest.raises(CertificateError):
            is_tree_bad(tree, uniform_lists(g.n, (1, 2, 3)))

    def test_odd_cycle_tree_badness(self, c5):
        a = uniform_lists(5, (1, 2))
        tree = next(build_proper_trees(c5, 2, 0, 5))
        ok, phi = is_tree_bad(tree, a)
        assert ok
        # the root's neighbors must carry both of its colors
        assert {phi[1], phi[4]} == {1, 2}

    def test_list_starved_children_fail(self, c5):
        # vertex 1's children cannot realize the color its list demands
        a = ListAssignment(4, 2, [(1, 2), (1, 2), (3, 4), (1, 2), (1, 2)])
        tree = next(build_proper_trees(c5, 2, 0, 5))
        ok, _ = is_tree_bad(tree, a)
        assert not ok

    def test_find_tree_bad_on_odd_cycle(self, c5):
        a = uniform_lists(5, (1, 2))
        tree = find_tree_bad(c5, a)
        assert tree is not None and tree.parity == ODD
        assert is_tree_bad(tree, a)[0]

    def test_trees_need_girth_above_three(self, k4):
        """The finder refuses what the tree kind's obstacle refuses, with the
        same message."""
        with pytest.raises(InvalidParameterError, match="tree certificates need girth above 3"):
            find_tree_bad(k4, uniform_lists(4, (1, 2, 3)))

    def test_trees_need_two_lists(self):
        """k=1 has no rooted proper tree: proper_tree_size rejects it, and so
        do the finder and the kind's applicability rule."""
        g, a = petersen(), ListAssignment(1, 1, [(1,)] * 10)
        with pytest.raises(InvalidParameterError):
            find_tree_bad(g, a)
        assert certs.CERTIFICATE_KINDS["tree"].obstacle(1, g) == (
            "tree certificates need k >= 2 lists"
        )
        assert certs.CERTIFICATE_KINDS["tree"].obstacle(2, g) is None

    def test_k33_crafted_assignment_yields_even_tree(self):
        g = complete_multipartite([3, 3])
        a = ListAssignment(3, 2, [(1, 2), (1, 3), (2, 3), (1, 2), (1, 3), (2, 3)])
        assert not brute_force_colorable(g, a)
        tree = find_tree_bad(g, a)
        assert tree is not None and tree.parity == EVEN
        assert tree.size == 4
        assert is_tree_bad(tree, a)[0]

    def test_returned_trees_always_revalidate(self):
        # soundness on colorable instances: anything returned must check out
        g = complete_multipartite([3, 3])
        for gi, a in corpus_assignments(g, 0, 60, ((2, 3), (2, 4)), base_seed=5):
            tree = find_tree_bad(g, a)
            if tree is not None:
                assert is_tree_bad(tree, a)[0]
                tree.validate(g)

    def test_tree_search_keeps_the_enumeration_order(self, monkeypatch):
        # no tree search spends a step of the guard
        monkeypatch.setattr(certs, "_MAX_STEPS", 1)
        # Petersen at k = 2 has 12 rooted trees at each of its 10 roots, and
        # none of the 120 is tree-bad for these lists
        g = petersen()
        a = ListAssignment(5, 2, [(2, 4), (1, 5), (4, 5), (2, 3), (3, 5),
                                  (3, 4), (2, 3), (2, 5), (1, 5), (1, 5)])
        trees = [tree for root in range(g.n) for tree in build_proper_trees(g, 2, root)]
        assert len(trees) == 120
        assert not any(reference_tree_bad(tree, a)[0] for tree in trees)
        assert find_tree_bad(g, a) is None
        # on K_{3,3} the 14th tree built is the first tree-bad one; the 13th
        # leaves its semiroot's color 4 free, which girth 4 does not allow
        g = complete_multipartite([3, 3])
        a = ListAssignment(4, 2, [(1, 3), (2, 3), (2, 4), (2, 4), (2, 3), (2, 4)])
        trees = [tree for root in range(g.n) for tree in build_proper_trees(g, 2, root)]
        assert [reference_tree_bad(tree, a)[0] for tree in trees[:14]] == [False] * 13 + [True]
        assert find_tree_bad(g, a) == trees[13]

    def test_finder_returns_the_first_bad_tree_of_the_reference(self):
        """find_tree_bad gives the first tree of the reference enumeration,
        roots ascending, that reference_tree_bad finds bad, or None when no
        tree is; seeded lists at k = 2 and 3 on every graph of tree_graphs()."""
        found = checked = 0
        for gi, g in enumerate(tree_graphs()):
            for k in (2, 3):
                sigma = k + 1 + gi % 2
                a = sample_assignment(g, k, sigma, SeedSpec(derive_seed(41, gi, k)))
                first = next((tree for root in range(g.n)
                              for tree in build_proper_trees(g, k, root)
                              if reference_tree_bad(tree, a)[0]), None)
                assert find_tree_bad(g, a) == first, (gi, k, a.lists)
                checked += 1
                found += first is not None
        assert 0 < found < checked

    def test_finder_decides_a_499_cycle(self):
        """The tree spans the whole cycle, 498 levels deep: neither the
        finder nor the check recurses along it."""
        n = 499
        g, a = power_cycle(n, 1), ListAssignment(2, 2, [(1, 2)] * n)
        tree = find_tree_bad(g, a)
        assert (tree.root, tree.size, tree.parity) == (0, n, ODD)
        ok, phi = is_tree_bad(tree, a)
        assert ok and len(phi) == n - 1

    def test_projective_plane_trees_need_no_budget(self, monkeypatch):
        """PG(2,5) at k = 3, sigma = 8: a tree found past root 0 without a
        step of a one-step guard, and the tree kind's check accepts it."""
        monkeypatch.setattr(certs, "_MAX_STEPS", 1)
        g = projective_plane_incidence(5)
        a = sample_assignment(g, 3, 8, SeedSpec(derive_seed(7, 0)))
        tree = find_tree_bad(g, a)
        assert tree is not None and tree.root > 0
        assert tree.size == proper_tree_size(3, 6)
        assert certs.CERTIFICATE_KINDS["tree"].check(g, a, tree)[0]

    def test_tree_check_needs_no_budget(self, monkeypatch):
        # a one-step budget changes neither verdict, nor list b's witness
        g = petersen()
        tree = next(build_proper_trees(g, 3, 0, 5))
        a = ListAssignment(4, 3, [(2, 3, 4), (1, 3, 4), (1, 3, 4), (1, 2, 4), (1, 3, 4),
                                  (1, 3, 4), (1, 3, 4), (1, 2, 4), (2, 3, 4), (1, 3, 4)])
        b = ListAssignment(4, 3, [(2, 3, 4), (1, 2, 3), (1, 2, 3), (2, 3, 4), (1, 3, 4),
                                  (2, 3, 4), (1, 2, 3), (1, 3, 4), (1, 3, 4), (1, 2, 3)])
        monkeypatch.setattr(certs, "_MAX_STEPS", 1)
        assert is_tree_bad(tree, a) == (False, None)
        assert is_tree_bad(tree, b) == (
            True, {1: 3, 2: 1, 3: 3, 4: 4, 5: 2, 6: 2, 7: 3, 8: 4, 9: 1}
        )

    def test_lists_longer_than_the_trees_k_are_never_bad(self, c5):
        # a k = 2 tree with 3-lists: no vertex with children can carry its
        # colors one per child
        tree = next(build_proper_trees(c5, 2, 0, 5))
        a = uniform_lists(5, (1, 2, 3))
        assert is_tree_bad(tree, a) == reference_tree_bad(tree, a) == (False, None)

    def test_lists_shorter_than_the_trees_k_are_never_bad(self):
        # 2-lists on a k = 3 tree: the root's three children cannot carry
        # its two colors one each
        tree = next(build_proper_trees(petersen(), 3, 0, 5))
        a = uniform_lists(10, (1, 2))
        assert is_tree_bad(tree, a) == reference_tree_bad(tree, a) == (False, None)

    def test_girth_four_semiroot_is_constrained(self):
        # a colorable instance: the semiroot 3 has children, so its list
        # {2, 4} may keep no color free, and with 0 colored 1 it keeps 4
        g = complete_multipartite([3, 3])
        a = ListAssignment(4, 2, [(1, 3), (2, 3), (2, 4), (2, 4), (2, 3), (2, 4)])
        tree = RootedProperTree(EVEN, 4, 2, 1, 3, {3: 1, 4: 1, 0: 3})
        tree.validate(g)
        assert is_tree_bad(tree, a) == (False, None)

    def test_verdicts_and_witnesses_match_the_reference(self):
        # the trees of test_every_built_tree_validates, two seeded list
        # assignments each at the tree's k and sigma up to 6
        fano = [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 0), (5, 6, 1), (6, 0, 2)]
        heawood = Graph(14, [(p, 7 + i) for i, line in enumerate(fano) for p in line])
        cube = Graph(8, [(v, v ^ b) for v in range(8) for b in (1, 2, 4) if v < v ^ b])
        graphs = [petersen(), heawood, cube, complete_multipartite([3, 3]),
                  complete_multipartite([4, 4])] + [power_cycle(n, 1) for n in range(5, 9)]
        checked = bad = 0
        for g in graphs:
            for k in range(2, min(len(nb) for nb in g.adjacency) + 1):
                for root in range(g.n):
                    for tree in build_proper_trees(g, k, root):
                        for _ in range(2):
                            sigma = k + 1 + checked % (6 - k)
                            a = sample_assignment(g, k, sigma, SeedSpec(derive_seed(77, checked)))
                            verdict = is_tree_bad(tree, a)
                            assert verdict == reference_tree_bad(tree, a), (tree, a.lists)
                            checked += 1
                            bad += verdict[0]
        assert checked == 2 * 1702
        assert 0 < bad < checked

    def test_26_vertex_trees_are_decided_without_a_budget(self, monkeypatch):
        """PG(2,3) at k = 4: the tree spans all 26 vertices, and no check of
        it spends a step of the 1000-step budget."""
        monkeypatch.setattr(certs, "_MAX_STEPS", 1000)
        g = projective_plane_incidence(3)
        tree = next(build_proper_trees(g, 4, 0))
        assert tree.size == g.n == 26
        leaves = {v for v, kids in tree.children().items() if not kids}
        verdicts = []
        for sigma in (5, 6):
            for i in range(20):
                a = sample_assignment(g, 4, sigma, SeedSpec(derive_seed(31, sigma, i)))
                ok, phi = is_tree_bad(tree, a)
                if ok:
                    assert free_color_vertices(tree, a, phi) == leaves
                verdicts.append(ok)
        assert verdicts.count(True) == 28


class TestLemmaImplicationsSmall:
    """Reduced oracle suites; the full-corpus versions are acceptance
    criteria 2-4."""

    def test_uncolorable_implies_bad_triple(self):
        hits = 0
        for gi, g in enumerate(small_connected_graphs(5)):
            for _, a in corpus_assignments(g, gi, 30, ((2, 3), (3, 3)), base_seed=23):
                if solve(g, a).colorable:
                    continue
                hits += 1
                triple = find_bad_triple(g, a)
                assert triple is not None
                assert is_bad_triple(g, a, triple)[0]
        assert hits > 50

    def test_uncolorable_k2_implies_pair(self):
        hits = 0
        for gi, g in enumerate(small_connected_graphs(5)):
            for _, a in corpus_assignments(g, gi, 30, ((2, 3), (2, 4)), base_seed=29):
                if solve(g, a).colorable:
                    continue
                hits += 1
                pair = find_2bad_pair(g, a)
                assert pair is not None
                ok, chains = is_2bad_pair(g, a, pair)
                assert ok and chains is not None
        assert hits > 30

    def test_tree_certificates_on_ten_vertex_girth_four_and_five(self):
        from listcolor.lists import SeedSpec, derive_seed, sample_assignment

        cases = [
            (petersen(), ((2, 2), (2, 3))),
            (complete_multipartite([3, 4]), ((2, 3), (2, 4))),
        ]
        validated = 0
        for g, combos in cases:
            for i in range(250):
                k, sigma = combos[i % len(combos)]
                a = sample_assignment(g, k, sigma, SeedSpec(derive_seed(4242, i)))
                if solve(g, a).colorable:
                    continue
                tree = find_tree_bad(g, a)
                assert tree is not None
                assert is_tree_bad(tree, a)[0]
                validated += 1
        assert validated > 50

    def test_uncolorable_large_girth_implies_tree(self):
        cases = [
            (power_cycle(5, 1), uniform_lists(5, (1, 2))),
            (power_cycle(7, 1), uniform_lists(7, (1, 2))),
            (
                complete_multipartite([3, 3]),
                ListAssignment(3, 2, [(1, 2), (1, 3), (2, 3), (1, 2), (1, 3), (2, 3)]),
            ),
        ]
        for g, a in cases:
            assert not solve(g, a).colorable
            assert girth(g) > 3
            tree = find_tree_bad(g, a)
            assert tree is not None and is_tree_bad(tree, a)[0]


class TestCertificatesArePinned:
    # sha256 over the atlas corpus (996 graphs, 10 assignments each over
    # DEFAULT_COMBOS at base seed 5): for every uncolorable instance and
    # every kind that can apply, one line "gi ai kind doc", where doc is the
    # JSON of the certificate `certify` finds with its checker's witness,
    # "none" when nothing is found, or the class of the listcolor error
    # raised.
    CERTIFICATES_SHA256 = (8002, "3ab2f15ff50535b57e61a21f54f4e010fdf849bf54fc054347062525e8854bcd")

    def test_certificates_digest_is_pinned(self):
        lines = []
        for gi, g in enumerate(small_connected_graphs(7)):
            for ai, a in corpus_assignments(g, gi, 10, DEFAULT_COMBOS, 5):
                solved = solve(g, a)
                if solved.colorable:
                    continue
                for kind in certs.CERTIFICATE_KINDS.values():
                    if kind.obstacle(a.k, g) is not None:
                        continue
                    try:
                        found = certs.certify(g, a, (kind.name,), solved)
                        if found is None:
                            doc = "none"
                        else:
                            _, witness = kind.check(g, a, found[1])
                            doc = json.dumps(certificate_to_json(found[1], witness), sort_keys=True)
                    except ListColorError as exc:
                        doc = type(exc).__name__
                    lines.append(f"{gi} {ai} {kind.name} {doc}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (len(lines), digest) == self.CERTIFICATES_SHA256


class TestCertificateJson:
    def test_triple_document(self, c5):
        a = uniform_lists(5, (1, 2))
        triple = find_bad_triple(c5, a)
        _, witness = is_bad_triple(c5, a, triple)
        doc = certificate_to_json(triple, witness)
        assert doc["kind"] == "bad-triple"
        assert doc["rank"][str(triple.root)] == 0
        assert len(doc["witness_coloring"]) == 4

    def test_pair_document(self, c5):
        a = uniform_lists(5, (1, 2))
        pair = find_2bad_pair(c5, a)
        doc = certificate_to_json(pair)
        assert doc["kind"] == "2bad-pair"
        assert len(doc["sequences"]) == 2
        assert {s["shape"] for s in doc["sequences"]} <= {"cycle", "lollipop"}

    def test_tree_document(self, c5):
        a = uniform_lists(5, (1, 2))
        tree = find_tree_bad(c5, a)
        doc = certificate_to_json(tree)
        assert doc["kind"] == "tree-bad"
        assert doc["parity"] == "odd"
        assert len(doc["edges"]) == tree.size - 1


@pytest.mark.parametrize("name", sorted(certs.CERTIFICATE_KINDS))
def test_kind_check_rejects_a_graph_without_a_certificate_edge(c5, name):
    """Every kind's checker validates against the graph: the certificate found
    on C5 with lists {1, 2} uses the edge 0-1, which the path lacks."""
    kind = certs.CERTIFICATE_KINDS[name]
    a = uniform_lists(5, (1, 2))
    cert = kind.find(c5, a, solve(c5, a))
    assert kind.check(c5, a, cert)[0]
    path = Graph(5, [e for e in c5.edges if e != (0, 1)])
    with pytest.raises(CertificateError):
        kind.check(path, a, cert)


def _check_found_triple(g, assignment):
    """is_bad_triple on the triple found with g's own 2-lists."""
    return is_bad_triple(g, assignment, find_bad_triple(g, uniform_lists(g.n, (1, 2))))


def _check_found_pair(g, assignment):
    """is_2bad_pair on the pair found with g's own 2-lists."""
    return is_2bad_pair(g, assignment, find_2bad_pair(g, uniform_lists(g.n, (1, 2))))


class TestAssignmentLength:
    """Every finder and checker that reads lists by vertex id rejects an
    assignment with more or fewer lists than vertices, as `solve` does."""

    @pytest.mark.parametrize("finder", [
        extract_critical, find_bad_triple, find_2bad_pair, find_tree_bad,
        _check_found_triple, _check_found_pair,
    ], ids=["extract_critical", "find_bad_triple", "find_2bad_pair", "find_tree_bad",
            "is_bad_triple", "is_2bad_pair"])
    @pytest.mark.parametrize("count", [4, 6])
    def test_wrong_list_count_is_rejected(self, c5, finder, count):
        with pytest.raises(InvalidParameterError, match="a list for every vertex"):
            finder(c5, uniform_lists(count, (1, 2)))
