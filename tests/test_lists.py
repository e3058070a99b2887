import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listcolor.errors import InvalidParameterError, ListParseError
from listcolor.graphs import Graph
from listcolor.lists import (
    ListAssignment,
    SeedSpec,
    derive_seed,
    prob_identical_lists,
    read_lists,
    sample_assignment,
    write_lists,
)

# chi-square critical value, 5 degrees of freedom, 99% confidence
_CHI2_5DF_99 = 15.086


def test_assignment_validates_size_and_range():
    with pytest.raises(InvalidParameterError):
        ListAssignment(3, 2, [(1, 2), (1,)])
    with pytest.raises(InvalidParameterError):
        ListAssignment(3, 2, [(1, 4)])
    with pytest.raises(InvalidParameterError):
        ListAssignment(3, 4, [(1, 2, 3)])


def test_k_equals_sigma_forces_full_list():
    g = Graph(4)
    a = sample_assignment(g, 3, 3, SeedSpec(11))
    assert all(lst == (1, 2, 3) for lst in a.lists)


def test_same_seed_same_assignment():
    g = Graph(6, [(0, 1), (2, 3)])
    s = SeedSpec(987654321, 17)
    assert sample_assignment(g, 2, 5, s) == sample_assignment(g, 2, 5, s)
    assert sample_assignment(g, 2, 5, s) != sample_assignment(g, 2, 5, SeedSpec(987654321, 18))


def test_k_larger_than_sigma_rejected():
    with pytest.raises(InvalidParameterError):
        sample_assignment(Graph(1), 4, 3, SeedSpec(0))


@pytest.mark.parametrize("n,k", [(3, 0), (3, -1), (0, -1)])
def test_k_below_one_rejected(n, k):
    with pytest.raises(InvalidParameterError, match="k must be >= 1"):
        sample_assignment(Graph(n), k, 5, SeedSpec(0))


# sigma <= 21 takes random.sample's pool branch; from k = 6 its set-size
# switch moves, so at k = 7 sigma 85 is pooled and 86 is not.  Each of
# 3/4, 16/17, 32/33 and 64/65 straddles a change of sigma's bit length, the
# width of every draw, on either side of the switch.
@pytest.mark.parametrize("sigma,k", [
    (sigma, k)
    for sigma in (2, 3, 4, 5, 16, 17, 18, 21, 22, 30, 32, 33, 48, 64, 65, 85, 86, 100)
    for k in (1, 2, 3, 5, 6, 7)
    if k <= sigma
])
def test_stream_replays_random_sample(sigma, k):
    """The sampler's lists are those of random.sample on the same stream.

    records.csv is pinned to that stream: if a Python release changes
    random.sample, this fails rather than letting the CSV drift."""
    n = 40
    for seed in (SeedSpec(0), SeedSpec(987654321, 17), SeedSpec(2**64 + 5, 3)):
        rng = random.Random(seed.stream_seed())
        expected = tuple(
            tuple(sorted(rng.sample(range(1, sigma + 1), k))) for _ in range(n)
        )
        sampled = sample_assignment(Graph(n), k, sigma, seed)
        assert sampled.lists == expected
        assert sampled == ListAssignment(sigma, k, expected)


def test_seed_derivation_spreads():
    seeds = {derive_seed(5, i) for i in range(10000)}
    assert len(seeds) == 10000


def test_trial_index_must_be_non_negative():
    with pytest.raises(InvalidParameterError):
        SeedSpec(0, -1)


def test_uniformity_of_single_vertex_samples():
    """Each of the C(4,2)=6 subsets should appear with frequency 1/6 over
    60000 draws, within the 99% chi-square threshold."""
    g = Graph(1)
    trials = 60000
    tally = Counter(
        sample_assignment(g, 2, 4, SeedSpec(314159, i)).lists[0] for i in range(trials)
    )
    assert set(tally) == set(itertools.combinations(range(1, 5), 2))
    expected = trials / 6
    chi2 = sum((count - expected) ** 2 / expected for count in tally.values())
    assert chi2 < _CHI2_5DF_99, tally


def test_independence_of_two_vertices():
    """P[L(u)=S1 and L(v)=S2] should sit within 3 standard errors of 1/9."""
    g = Graph(2, [(0, 1)])
    trials = 40000
    target = ((1, 2), (2, 3))
    hits = sum(
        1
        for i in range(trials)
        if tuple(sample_assignment(g, 2, 3, SeedSpec(27182, i)).lists) == target
    )
    p = 1 / 9
    se = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) < 3 * se


@given(st.integers(1, 5), st.data())
@settings(max_examples=50, deadline=None)
def test_sampled_lists_always_valid(n, data):
    sigma = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, sigma))
    seed = data.draw(st.integers(0, 2**63))
    a = sample_assignment(Graph(n), k, sigma, SeedSpec(seed))
    assert len(a) == n
    for lst in a.lists:
        assert len(lst) == k == len(set(lst))
        assert all(1 <= c <= sigma for c in lst)
        assert list(lst) == sorted(lst)


class TestIdenticalListProbability:
    def test_triangle_brute_force_oracle(self):
        # enumerate all 27 equally likely triples of 2-subsets of {1,2,3}
        subsets = list(itertools.combinations(range(1, 4), 2))
        identical = sum(
            1 for trio in itertools.product(subsets, repeat=3) if len(set(trio)) == 1
        )
        oracle = Fraction(identical, len(subsets) ** 3)
        assert oracle == Fraction(1, 9)
        assert prob_identical_lists(3, 2, 3) == pytest.approx(float(oracle))

    def test_pair_is_one_over_choose(self):
        assert prob_identical_lists(2, 3, 7) == pytest.approx(1 / math.comb(7, 3))

    def test_forced_when_k_equals_sigma(self):
        assert prob_identical_lists(3, 3, 3) == 1

    def test_requires_clique_of_two(self):
        with pytest.raises(InvalidParameterError):
            prob_identical_lists(1, 2, 3)


class TestListIO:
    def test_read_valid(self):
        g = Graph(2, [(0, 1)])
        a = read_lists("sigma=3 k=2\n0: 1 2\n1: 2 3\n", g)
        assert a.lists == ((1, 2), (2, 3))

    def test_round_trip(self):
        g = Graph(3, [(0, 1), (1, 2)])
        a = sample_assignment(g, 2, 5, SeedSpec(5))
        assert read_lists(write_lists(a), g) == a

    def test_wrong_size_names_vertex(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ListParseError, match="vertex 1"):
            read_lists("sigma=3 k=2\n0: 1 2\n1: 3\n", g)

    def test_color_zero_rejected(self):
        g = Graph(1)
        with pytest.raises(ListParseError, match="vertex 0"):
            read_lists("sigma=3 k=2\n0: 0 2\n", g)

    def test_missing_vertex_named(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ListParseError, match="vertex 2 missing"):
            read_lists("sigma=3 k=2\n0: 1 2\n1: 1 3\n", g)
