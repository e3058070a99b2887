"""Test-only helpers that the suites share and no listcolor module uses."""

from __future__ import annotations

import math

from listcolor.errors import InvalidParameterError
from listcolor.graphs import Graph, connected_components
from listcolor.lists import ListAssignment


def identical_list_clique_count(g: Graph, assignment: ListAssignment, k: int) -> int:
    """Number of (k+1)-cliques whose vertices all carry the same list, for
    graphs whose non-trivial components are cliques (the clique_union
    family); grouping by component keeps this linear."""
    from collections import Counter

    total = 0
    for comp in connected_components(g):
        if len(comp) < k + 1:
            continue
        size = len(comp)
        members = set(comp)
        actual = sum(1 for u in comp for w in g.adjacency[u] if w in members) // 2
        if actual != size * (size - 1) // 2:
            raise InvalidParameterError("component is not a clique; counting unsupported")
        tally = Counter(assignment[v] for v in comp)
        for repeats in tally.values():
            total += math.comb(repeats, k + 1)
    return total
