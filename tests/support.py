"""Test-only helpers that the suites share and no listcolor module uses."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from listcolor.certificates import (
    OrderedSeq,
    ProperPair,
    ProperTriple,
    alternating_chain,
    find_alternating_paths,
)
from listcolor.errors import CertificateError, GuardExceededError, InvalidParameterError
from listcolor.graphs import Graph, connected_components, vertex_set
from listcolor.lists import ListAssignment
from listcolor.solver import Coloring


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


@dataclass(frozen=True)
class AlternatingPath:
    """A path w1..wt together with the colors c2..ct of its non-origin
    vertices; each color must belong to the previous vertex's list.

    colors[i] is the color of vertices[i+1]; a single-vertex path (length 0)
    has an empty color tuple.
    """

    vertices: tuple[int, ...]
    colors: tuple[int, ...]

    def validate(self, g: Graph, assignment: ListAssignment, coloring: Coloring) -> None:
        if len(self.vertices) == 0:
            raise CertificateError("alternating path needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise CertificateError("alternating path repeats a vertex")
        if len(self.colors) != len(self.vertices) - 1:
            raise CertificateError("need one color per non-origin vertex")
        for i in range(len(self.vertices) - 1):
            w, x = self.vertices[i], self.vertices[i + 1]
            if not g.has_edge(w, x):
                raise CertificateError(f"{w} and {x} are not adjacent")
            if coloring.get(x) != self.colors[i]:
                raise CertificateError(f"color of {x} does not match the coloring")
            if self.colors[i] not in assignment[w]:
                raise CertificateError(f"color of {x} is outside the list of {w}")


def induced_rank(
    g: Graph, assignment: ListAssignment, coloring: Coloring, root: int
) -> dict[int, int]:
    """The rank function sending each vertex to its shortest alternating
    distance from the root.  Every vertex must be reachable."""
    dist = find_alternating_paths(g, assignment, coloring, root)
    if len(dist) != g.n:
        missing = sorted(set(range(g.n)) - set(dist))
        raise CertificateError(
            f"not a certificate: vertices {missing} are alternating-unreachable"
        )
    return dist


def _level_partitions(g: Graph, root: int, max_m: int):
    """Level sequences (L1, L2, ...) over distinct vertices where every
    member of a level has a neighbor in the previous level; L0 = {root}."""
    adj = g.adjacency

    def rec(levels, used, size):
        frontier = levels[-1]
        eligible = sorted({w for u in frontier for w in adj[u]} - used)
        room = max_m - size
        if room <= 0 or not eligible:
            return
        for mask in range(1, 1 << len(eligible)):
            subset = tuple(eligible[i] for i in range(len(eligible)) if mask >> i & 1)
            if len(subset) > room:
                continue
            grown = levels + (subset,)
            yield grown
            yield from rec(grown, used | set(subset), size + len(subset))

    yield from rec(((root,),), {root}, 1)


def enumerate_proper_triples(
    g: Graph, max_m: int, max_count: int = 10**7
) -> Iterator[ProperTriple]:
    """Every proper triple with |V(F)| <= max_m, each exactly once.

    The rank level structure determines the triple, so enumeration walks
    level sequences.  Guarded by the actual number of triples produced."""
    if max_m < 1:
        return
    produced = 0
    for root in range(g.n):
        produced += 1
        if produced > max_count:
            raise GuardExceededError(f"more than {max_count} proper triples")
        yield ProperTriple((root,), root, {root: 0})
        for levels in _level_partitions(g, root, max_m):
            rank = {root: 0}
            for depth, level in enumerate(levels[1:], start=1):
                for v in level:
                    rank[v] = depth
            produced += 1
            if produced > max_count:
                raise GuardExceededError(f"more than {max_count} proper triples")
            yield ProperTriple(vertex_set(rank), root, rank)


def count_proper_triples_by_m(g: Graph, max_m: int, max_count: int = 10**7) -> dict[int, int]:
    """Exhaustive per-size counts of proper triples, without materializing
    the triples themselves."""
    counts: dict[int, int] = {m: 0 for m in range(1, max_m + 1)}
    total = 0
    for root in range(g.n):
        if max_m >= 1:
            counts[1] += 1
            total += 1
        for levels in _level_partitions(g, root, max_m):
            m = sum(len(level) for level in levels)
            counts[m] += 1
            total += 1
            if total > max_count:
                raise GuardExceededError(f"more than {max_count} proper triples")
    return counts


def is_L_alternating(
    seq: OrderedSeq, assignment: ListAssignment, first_color: int | None = None
) -> tuple[bool, tuple[int, ...] | None]:
    """Whether the sequence alternates; on success also the color chain,
    whose first entry is the sequence's first color."""
    chain = alternating_chain(seq, assignment, first_color)
    return chain is not None, chain


def count_nonconsecutive(pair: ProperPair) -> int:
    """Common vertices (other than the shared first vertex) whose predecessor
    edge along the second member is absent from the first member."""
    h1_edges = pair.h1.edge_set()
    h1_vertices = set(pair.h1.vertices)
    r = 0
    for idx, w in enumerate(pair.h2.vertices):
        if idx == 0 or w not in h1_vertices:
            continue
        u = pair.h2.vertices[idx - 1]
        if (min(u, w), max(u, w)) not in h1_edges:
            r += 1
    return r
