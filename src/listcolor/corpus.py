"""Canonical small-graph corpus for oracle suites.

The corpus is the classic graph atlas enumeration (all graphs on up to seven
vertices in their published order, Read & Wilson, An Atlas of Graphs),
filtered to connected graphs.  That gives a fixed, reproducible "canonical
enumeration": 996 connected graphs with at most 7 vertices, 143 with at most 6.
It is read from atlas7.txt beside this module, one graph per line in atlas
order: the vertex count, then each edge u < v as two digits (`4 01 02 03`).
The file was written from networkx's graph_atlas_g, and a test rebuilds it
from there and compares.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from .errors import InvalidParameterError
from .graphs import Graph
from .lists import SeedSpec, derive_seed, sample_assignment

_ATLAS_FILE = Path(__file__).with_name("atlas7.txt")


@lru_cache(maxsize=None)
def small_connected_graphs(max_vertices: int = 7) -> tuple[Graph, ...]:
    """All connected graphs with 1..max_vertices vertices, one per
    isomorphism class, in atlas order."""
    if not 1 <= max_vertices <= 7:
        raise InvalidParameterError("the atlas corpus covers 1..7 vertices")
    out = []
    with open(_ATLAS_FILE, encoding="ascii") as lines:
        for line in lines:
            n, *edges = line.split()
            if int(n) > max_vertices:
                break
            out.append(Graph(int(n), [(int(e[0]), int(e[1])) for e in edges]))
    return tuple(out)


def corpus_assignments(
    g: Graph,
    graph_index: int,
    count: int,
    combos: tuple[tuple[int, int], ...],
    base_seed: int,
):
    """Deterministic stream of `count` random assignments for one corpus
    graph, cycling (k, sigma) through `combos`.  Yields (assignment_index,
    assignment)."""
    for i in range(count):
        k, sigma = combos[i % len(combos)]
        seed = SeedSpec(derive_seed(base_seed, graph_index, i))
        yield i, sample_assignment(g, k, sigma, seed)


# the (k, sigma) pairs the corpus suites cycle through: every k <= sigma <= 4 at k = 2, 3
DEFAULT_COMBOS = ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4))
