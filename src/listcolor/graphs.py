"""Immutable simple undirected graphs with dense integer vertex ids.

Vertices are always 0..n-1, and a graph stores only its neighbor tuples.
Generators are deterministic (no RNG), so experiment provenance lives entirely
in the list sampler; FAMILIES is the one registry of them that configs and the
CLI read.  Graph values are immutable after construction and safe to share
across workers.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Iterable, NamedTuple

from .errors import GraphParseError, InvalidParameterError

INFINITE_GIRTH = math.inf


class Graph:
    """Simple undirected graph: no self-loops, no duplicate edges.

    Only `adjacency`, each vertex's ascending neighbor tuple, is stored;
    `edges`, the frozenset of (u, v) pairs with u < v, is derived on each read.
    The girth and the connected components are computed by `girth` and
    `connected_components` on first use and kept in the `_girth` and
    `_components` slots; pickling keeps neither, so an unpickled copy computes
    its own.
    """

    __slots__ = ("n", "adjacency", "_girth", "_components")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InvalidParameterError("vertex count must be non-negative")
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameterError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InvalidParameterError(f"self-loop at vertex {u}")
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adjacency", tuple(tuple(sorted(set(a))) for a in adj))
        object.__setattr__(self, "_girth", None)
        object.__setattr__(self, "_components", None)

    @classmethod
    def _trusted(cls, n: int, adjacency: tuple[tuple[int, ...], ...]) -> "Graph":
        """Wrap n ascending neighbor tuples known to be symmetric and loop-free;
        the generators build through this, each id one shared int object."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "_girth", None)
        object.__setattr__(self, "_components", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for u, a in enumerate(self.adjacency) for v in a if u < v)

    def __reduce__(self):
        return (Graph, (self.n, tuple(sorted(self.edges))))

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adjacency == other.adjacency

    def __hash__(self):
        return hash((self.n, self.adjacency))

    def __repr__(self):
        return f"Graph(n={self.n}, m={sum(map(len, self.adjacency)) // 2})"

    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self.adjacency[u]


def vertex_set(ids: Iterable[int], n: int | None = None) -> tuple[int, ...]:
    """Normalize an iterable of vertex ids to a strictly increasing tuple."""
    vs = tuple(sorted(set(ids)))
    if n is not None and vs and not (0 <= vs[0] and vs[-1] < n):
        raise InvalidParameterError(f"vertex ids {vs} out of range [0, {n})")
    return vs


# ---------------------------------------------------------------------------
# generators, each behind a check of its arguments that builds nothing


def _check_power_cycle(n: int, r: int) -> None:
    if n < 3:
        raise InvalidParameterError("power cycle needs n >= 3")
    if not 1 <= r or not r < n / 2:
        raise InvalidParameterError(f"power cycle needs 1 <= r < n/2, got r={r}, n={n}")


def _check_clique_union(n: int, delta: int) -> None:
    if delta + 1 < 2:
        raise InvalidParameterError("clique union needs delta >= 1")
    if n < delta + 1:
        raise InvalidParameterError(f"clique union needs n >= delta+1, got n={n}, delta={delta}")


def _check_complete_multipartite(sizes: list[int]) -> None:
    if len(sizes) < 2:
        raise InvalidParameterError("complete multipartite needs at least 2 parts")
    if any(s < 1 for s in sizes):
        raise InvalidParameterError("every part needs size >= 1")


def power_cycle(n: int, r: int) -> Graph:
    """The r-th power of an n-cycle: i ~ j iff circular distance <= r.

    2r-regular.  Rejects r >= n/2, where the construction degenerates into a
    near-complete graph outside the modeled range.
    """
    _check_power_cycle(n, r)
    ids = tuple(range(n))
    return Graph._trusted(n, tuple(
        tuple(sorted(ids[(i + d) % n] for d in range(-r, r + 1) if d)) for i in ids
    ))


def clique_union(n: int, delta: int) -> Graph:
    """floor(n/(delta+1)) disjoint copies of K_{delta+1} plus isolated leftovers.

    Exactly n vertices; the remainder vertices are kept as isolated vertices,
    not dropped.
    """
    _check_clique_union(n, delta)
    block = delta + 1
    ids = tuple(range(n))
    cliques = (ids[base:base + block] for base in range(0, n - n % block, block))
    adjacency = tuple(c[:i] + c[i + 1:] for c in cliques for i in range(block))
    return Graph._trusted(n, adjacency + ((),) * (n % block))


def complete_multipartite(part_sizes: Iterable[int]) -> Graph:
    """Edge iff endpoints lie in different parts; parts are consecutive id ranges."""
    sizes = list(part_sizes)
    _check_complete_multipartite(sizes)
    ids = tuple(range(sum(sizes)))
    adjacency = []
    for s in sizes:
        lo = len(adjacency)
        adjacency += [ids[:lo] + ids[lo + s:]] * s  # one tuple for the whole part
    return Graph._trusted(len(ids), tuple(adjacency))


def petersen() -> Graph:
    """The Petersen graph: 10 vertices, 15 edges, 3-regular, girth 5."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))          # outer cycle
        edges.append((i, i + 5))                # spokes
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
    return Graph(10, edges)


class Family(NamedTuple):
    """A graph family: its generator, the names of the generator's positional
    arguments (`parts` is the list of part sizes, every other argument an
    integer), and a check that raises InvalidParameterError on the same
    arguments as the generator does, without building the graph."""

    generator: Callable[..., Graph]
    arg_names: tuple[str, ...]
    check_args: Callable[..., None]


# family name, as in sweep configs; the CLI spells it with hyphens
FAMILIES = {
    "clique_union": Family(clique_union, ("n", "delta"), _check_clique_union),
    "power_cycle": Family(power_cycle, ("n", "r"), _check_power_cycle),
    "complete_multipartite": Family(
        complete_multipartite, ("parts",), _check_complete_multipartite
    ),
    "petersen": Family(petersen, (), lambda: None),
}


# ---------------------------------------------------------------------------
# structural queries


def girth(g: Graph):
    """Length of a shortest cycle, or INFINITE_GIRTH for forests.

    BFS from every vertex, O(n*m); the only super-linear structural query in
    this module.  It runs once per graph: the value is kept in the graph, and
    later calls return it.  A BFS stops at the first vertex it pops at a depth
    d with 2d+1 >= the best cycle so far: every cycle it could still close is
    at least that long, and a shorter cycle is found from one of its own
    vertices at a smaller depth.
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
            if 2 * dist[v] + 1 >= best:
                break
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
    """Vertex sets of the connected components, ordered by smallest member.

    The BFS runs once per graph: the components are kept in the graph, and
    every call returns a new list of them, which the caller may change.
    """
    if g._components is None:
        object.__setattr__(g, "_components", tuple(components_of(g.adjacency, range(g.n), g.n)))
    return list(g._components)


def components_of(adjacency, vertices: Iterable[int], n: int) -> list[tuple[int, ...]]:
    """Connected components of `vertices`, ascending ids below n, under
    `adjacency`, which maps each of them to its neighbors among them; each
    component ascending, ordered by smallest member."""
    seen = bytearray(n)
    comps = []
    for s in vertices:
        if seen[s]:
            continue
        seen[s] = 1
        comp = [s]
        for v in comp:  # grows while it is read: a BFS
            for w in adjacency[v]:
                if not seen[w]:
                    seen[w] = 1
                    comp.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph on `vertices` keeping exactly the edges with both ends inside.

    Returns the relabeled graph together with the old->new id map; the
    inverse map is `sorted(vertices)` indexed by new id.
    """
    vs = vertex_set(vertices, g.n)
    old_to_new = {v: i for i, v in enumerate(vs)}
    adjacency = tuple(
        tuple(old_to_new[w] for w in g.adjacency[v] if w in old_to_new) for v in vs
    )
    return Graph._trusted(len(vs), adjacency), old_to_new


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
