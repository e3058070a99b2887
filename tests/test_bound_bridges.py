"""Bridges between the analytic bounds and exhaustive / Monte Carlo ground
truth on desk-scale instances."""

import itertools
import math
from collections import Counter

from listcolor.bounds import (
    expected_identical_cliques_exact,
    pair_count_bound,
    pair_expectation_sum,
    tree_bad_expectation_bound,
)
from listcolor.certificates import (
    CYCLE,
    LOLLIPOP,
    OrderedSeq,
    ProperPair,
    find_tree_bad,
    is_tree_bad,
)
from listcolor.corpus import corpus_assignments, small_connected_graphs
from listcolor.graphs import Graph, complete_multipartite, girth, power_cycle
from listcolor.lists import SeedSpec, derive_seed, prob_identical_lists, sample_assignment

from support import count_nonconsecutive, free_color_vertices


def enumerate_ordered_sequences(g, start):
    """Every ordered cycle and ordered lollipop beginning at `start`, by
    exhaustive extension of simple paths."""
    found = []

    def extend(path):
        last = path[-1]
        t = len(path)
        if t >= 3 and g.has_edge(last, path[0]):
            found.append(OrderedSeq(CYCLE, tuple(path), 0))
        for jc in range(1, t - 2):
            if g.has_edge(last, path[jc]):
                found.append(OrderedSeq(LOLLIPOP, tuple(path), jc))
        for w in g.adjacency[last]:
            if w not in path:
                extend(path + [w])

    for u in g.adjacency[start]:
        extend([start, u])
    return found


def test_pair_count_bound_exceeds_exhaustive_enumeration():
    cases = [
        Graph(3, [(0, 1), (1, 2), (0, 2)]),
        power_cycle(5, 1),
        Graph(4, list(itertools.combinations(range(4), 2))),  # K4
        complete_multipartite([2, 3]),
        Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4), (0, 2)]),
        power_cycle(6, 1),
    ]
    for g in cases:
        delta = g.max_degree()
        tally = Counter()
        for v in range(g.n):
            sequences = enumerate_ordered_sequences(g, v)
            for h1 in sequences:
                for h2 in sequences:
                    pair = ProperPair(h1, h2)
                    l = len(set(h1.vertices) | set(h2.vertices))
                    r = count_nonconsecutive(pair)
                    tally[(l, r)] += 1
        assert tally, g
        for (l, r), count in tally.items():
            bound = g.n * delta ** (l - 1 + r) * 2**l
            assert count <= bound, (g, l, r, count, bound)


def test_tree_bad_witnesses_keep_free_colors_at_leaves_only():
    """tree_bad_expectation_bound gives C(sigma-1, k-1) choices to each of
    `leaf_exponent` lists and none to the others: in every bad tree found on
    a corpus slice, the witness leaves free colors at exactly the childless
    vertices, and there are leaf_exponent of them."""
    found = 0
    for gi, g in enumerate(small_connected_graphs(6)):
        if not 3 < girth(g) < math.inf:
            continue
        for _, a in corpus_assignments(g, gi, 30, ((2, 3), (2, 4), (3, 4)), base_seed=7):
            tree = find_tree_bad(g, a)
            if tree is None:
                continue
            found += 1
            ok, phi = is_tree_bad(tree, a)
            assert ok
            free = free_color_vertices(tree, a, phi)
            assert free == {v for v, kids in tree.children().items() if not kids}, tree
            bound = tree_bad_expectation_bound(g.n, g.max_degree(), a.k, a.sigma, tree.girth)
            assert len(free) == bound.extras["leaf_exponent"]
    assert found > 100


def test_identical_list_frequency_matches_closed_form():
    """All lists equal on a fixed triangle: frequency within 3 standard
    errors of C(sigma, k)^-(k)."""
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    k, sigma = 2, 4
    p = prob_identical_lists(3, k, sigma)
    assert p == (1 / math.comb(sigma, k)) ** 2
    trials = 50_000
    hits = sum(
        1
        for i in range(trials)
        if len(set(sample_assignment(g, k, sigma, SeedSpec(derive_seed(55, i))).lists)) == 1
    )
    se = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) <= 3 * se


def test_expectation_bounds_decrease_in_sigma_on_grid():
    exact = [
        expected_identical_cliques_exact(120, 4, 2, sigma).value.to_float()
        for sigma in range(6, 40, 3)
    ]
    assert exact == sorted(exact, reverse=True)
    pairs = [
        pair_expectation_sum(120, 2, sigma, l_max=40).value.to_float()
        for sigma in range(9, 60, 5)
    ]
    assert pairs == sorted(pairs, reverse=True)
