import itertools
import math

import pytest

from listcolor import certificates as certs
from listcolor.certificates import (
    CYCLE,
    EVEN,
    LOLLIPOP,
    ODD,
    AlternatingPath,
    OrderedSeq,
    ProperPair,
    ProperTriple,
    alternating_chain,
    build_proper_trees,
    certificate_to_json,
    count_nonconsecutive,
    count_proper_triples_by_m,
    enumerate_proper_triples,
    find_2bad_pair,
    find_alternating_paths,
    find_bad_triple,
    find_tree_bad,
    induced_rank,
    is_2bad_pair,
    is_bad_triple,
    is_L_alternating,
    is_tree_bad,
    proper_tree_size,
)
from listcolor.corpus import corpus_assignments, small_connected_graphs
from listcolor.errors import CertificateError, GuardExceededError, InvalidParameterError
from listcolor.graphs import Graph, complete_multipartite, girth, petersen, power_cycle
from listcolor.lists import ListAssignment
from listcolor.solver import brute_force_colorable, solve

from conftest import uniform_lists


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
                result = solve(sub, a.restrict(rest))
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
                result = solve(sub, a.restrict(rest))
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
        assert pair.vertex_count == 3

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

    def test_budget_is_spent_once_per_visited_state(self):
        # an odd cycle visits n - 1 states in each of the four chains of
        # vertex 0; the second instance backtracks through 846 states
        n = 21
        g, a = power_cycle(n, 1), uniform_lists(n, (1, 2))
        assert find_2bad_pair(g, a, max_nodes=4 * (n - 1)) is not None
        with pytest.raises(GuardExceededError):
            find_2bad_pair(g, a, max_nodes=4 * (n - 1) - 1)
        g = power_cycle(9, 2)
        a = ListAssignment(3, 2, [(1, 2), (2, 3), (1, 3)] * 3)
        assert find_2bad_pair(g, a, max_nodes=846) is None
        with pytest.raises(GuardExceededError):
            find_2bad_pair(g, a, max_nodes=845)


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
