"""Immutable simple undirected graphs with dense integer vertex ids.

Vertices are always 0..n-1.  Generators are deterministic (no RNG), so
experiment provenance lives entirely in the list sampler; FAMILIES is the one
registry of them that configs and the CLI read.  Graph values are immutable
after construction and safe to share across workers.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable

from .errors import GraphParseError, InvalidParameterError

INFINITE_GIRTH = math.inf


class Graph:
    """Simple undirected graph: no self-loops, no duplicate edges.

    Edges are stored as a frozenset of (u, v) pairs with u < v; per-vertex
    sorted neighbor tuples are derived at construction.  The girth is
    computed by `girth` on first use and kept in the `_girth` slot.
    """

    __slots__ = ("n", "edges", "adjacency", "_girth")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InvalidParameterError("vertex count must be non-negative")
        normalized = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameterError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InvalidParameterError(f"self-loop at vertex {u}")
            normalized.add((u, v) if u < v else (v, u))
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in normalized:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(normalized))
        object.__setattr__(self, "adjacency", tuple(tuple(sorted(a)) for a in adj))
        object.__setattr__(self, "_girth", None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        return (Graph, (self.n, tuple(sorted(self.edges))))

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"

    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges


def vertex_set(ids: Iterable[int], n: int | None = None) -> tuple[int, ...]:
    """Normalize an iterable of vertex ids to a strictly increasing tuple."""
    vs = tuple(sorted(set(ids)))
    if n is not None and vs and not (0 <= vs[0] and vs[-1] < n):
        raise InvalidParameterError(f"vertex ids {vs} out of range [0, {n})")
    return vs


# ---------------------------------------------------------------------------
# generators


def power_cycle(n: int, r: int) -> Graph:
    """The r-th power of an n-cycle: i ~ j iff circular distance <= r.

    2r-regular.  Rejects r >= n/2, where the construction degenerates into a
    near-complete graph outside the modeled range.
    """
    if n < 3:
        raise InvalidParameterError("power cycle needs n >= 3")
    if not 1 <= r or not r < n / 2:
        raise InvalidParameterError(f"power cycle needs 1 <= r < n/2, got r={r}, n={n}")
    edges = set()
    for i in range(n):
        for d in range(1, r + 1):
            j = (i + d) % n
            edges.add((min(i, j), max(i, j)))
    return Graph(n, edges)


def clique_union(n: int, delta: int) -> Graph:
    """floor(n/(delta+1)) disjoint copies of K_{delta+1} plus isolated leftovers.

    Exactly n vertices; the remainder vertices are kept as isolated vertices,
    not dropped.
    """
    if delta + 1 < 2:
        raise InvalidParameterError("clique union needs delta >= 1")
    if n < delta + 1:
        raise InvalidParameterError(f"clique union needs n >= delta+1, got n={n}, delta={delta}")
    block = delta + 1
    edges = []
    for b in range(n // block):
        base = b * block
        for i in range(block):
            for j in range(i + 1, block):
                edges.append((base + i, base + j))
    return Graph(n, edges)


def complete_multipartite(part_sizes: Iterable[int]) -> Graph:
    """Edge iff endpoints lie in different parts; parts are consecutive id ranges."""
    sizes = list(part_sizes)
    if len(sizes) < 2:
        raise InvalidParameterError("complete multipartite needs at least 2 parts")
    if any(s < 1 for s in sizes):
        raise InvalidParameterError("every part needs size >= 1")
    bounds = [0]
    for s in sizes:
        bounds.append(bounds[-1] + s)
    n = bounds[-1]
    edges = []
    for p in range(len(sizes)):
        for q in range(p + 1, len(sizes)):
            for u in range(bounds[p], bounds[p + 1]):
                for v in range(bounds[q], bounds[q + 1]):
                    edges.append((u, v))
    return Graph(n, edges)


def petersen() -> Graph:
    """The Petersen graph: 10 vertices, 15 edges, 3-regular, girth 5."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))          # outer cycle
        edges.append((i, i + 5))                # spokes
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
    return Graph(10, edges)


# family name (as in sweep configs; the CLI spells it with hyphens) ->
# (generator, the names of its positional arguments).  `parts` is the list of
# part sizes; every other argument is an integer.
FAMILIES = {
    "clique_union": (clique_union, ("n", "delta")),
    "power_cycle": (power_cycle, ("n", "r")),
    "complete_multipartite": (complete_multipartite, ("parts",)),
    "petersen": (petersen, ()),
}


# ---------------------------------------------------------------------------
# structural queries


def girth(g: Graph):
    """Length of a shortest cycle, or INFINITE_GIRTH for forests.

    BFS from every vertex, O(n*m); the only super-linear structural query in
    this module.  It runs once per graph: the value is kept in the graph, and
    later calls return it.
    """
    if g._girth is not None:
        return g._girth
    best = INFINITE_GIRTH
    for s in range(g.n):
        dist = {s: 0}
        parent = {s: -1}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in g.adjacency[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
                elif parent[v] != w:
                    # non-tree adjacency closes a cycle through the BFS tree
                    cand = dist[v] + dist[w] + 1
                    if cand < best:
                        best = cand
    object.__setattr__(g, "_girth", best)
    return best


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Vertex sets of the connected components, ordered by smallest member."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = []
        queue = deque([s])
        seen[s] = True
        while queue:
            v = queue.popleft()
            comp.append(v)
            for w in g.adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph on `vertices` keeping exactly the edges with both ends inside.

    Returns the relabeled graph together with the old->new id map; the
    inverse map is `sorted(vertices)` indexed by new id.
    """
    vs = vertex_set(vertices, g.n)
    old_to_new = {v: i for i, v in enumerate(vs)}
    edges = [
        (old_to_new[u], old_to_new[v])
        for (u, v) in g.edges
        if u in old_to_new and v in old_to_new
    ]
    return Graph(len(vs), edges), old_to_new


# ---------------------------------------------------------------------------
# text format
#
# First line `n=<count>`; each subsequent non-empty, non-# line is `<u> <v>`
# with u < v after canonicalization.  The writer emits edges sorted
# lexicographically.


def write_graph(g: Graph) -> str:
    lines = [f"n={g.n}"]
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def read_graph(text: str) -> Graph:
    n = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            if not line.startswith("n="):
                raise GraphParseError(lineno, f"expected header 'n=<count>', got {line!r}")
            try:
                n = int(line[2:])
            except ValueError:
                raise GraphParseError(lineno, f"bad vertex count in {line!r}") from None
            if n < 0:
                raise GraphParseError(lineno, "vertex count must be non-negative")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(lineno, f"expected '<u> <v>', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(lineno, f"non-integer vertex id in {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(lineno, f"vertex id out of range [0, {n}) in {line!r}")
        if u == v:
            raise GraphParseError(lineno, f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in edges:
            raise GraphParseError(lineno, f"duplicate edge {e[0]} {e[1]}")
        edges.add(e)
    if n is None:
        raise GraphParseError(1, "missing 'n=<count>' header")
    return Graph(n, edges)
