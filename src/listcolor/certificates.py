"""Structural certificates of non-colorability from lists.

Three certificate families, each paired with an exhaustive validity checker
and a finder:

* rooted rank certificates ("proper triples"): a connected induced subgraph
  F, a root, and a rank function realized by the shortest alternating-path
  distances of some coloring of F minus the root;
* alternating ordered cycles/lollipops paired at a common first vertex (the
  2-list machinery);
* rooted proper trees for graphs of girth above three, odd and even shape.

Every checker is a pure function of its inputs; every finder returns a
certificate that re-validates through the matching checker.

CERTIFICATE_KINDS is the one registry of the three families, with the rule
for which instances each can certify; `certify` is the one search over it.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .errors import CertificateError, GuardExceededError, InvalidParameterError
from .graphs import INFINITE_GIRTH, Graph, girth, vertex_set
from .lists import ListAssignment
from .solver import Coloring, SolveResult, extract_critical, require_lists_for
from .solver import solve  # noqa: F401 -- bench/spans.py wraps solve here

CYCLE = "cycle"
LOLLIPOP = "lollipop"
ODD = "odd"
EVEN = "even"


# ---------------------------------------------------------------------------
# alternating paths and rank functions


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


def _validate_root_deleted_coloring(g, assignment, coloring, origin):
    expected = set(range(g.n)) - {origin}
    if set(coloring) != expected:
        raise CertificateError("coloring must cover exactly the graph minus the origin")
    for v in expected:
        if coloring[v] not in assignment[v]:
            raise CertificateError(f"vertex {v} colored outside its list")
    for u in expected:
        for v in g.adjacency[u]:
            if u < v and v != origin and coloring[u] == coloring[v]:
                raise CertificateError(f"edge {u}-{v} is monochromatic")


def _alt_distances(adj, assignment, coloring, origin) -> dict[int, int]:
    """BFS closure of the alternating step relation: w -> x is allowed iff x
    is adjacent to w and x's color belongs to w's list.  Shortest alternating
    walks are automatically simple, so these are shortest path lengths."""
    dist = {origin: 0}
    queue = deque([origin])
    while queue:
        w = queue.popleft()
        lw = assignment[w]
        for x in adj[w]:
            if x not in dist and coloring[x] in lw:
                dist[x] = dist[w] + 1
                queue.append(x)
    return dist


def find_alternating_paths(
    g: Graph, assignment: ListAssignment, coloring: Coloring, origin: int
) -> dict[int, int]:
    """Shortest alternating-path length from `origin` for every reachable
    vertex; the origin itself sits at distance 0.

    `coloring` must be a proper list coloring of the graph minus the origin
    (validated; violations raise CertificateError).
    """
    _validate_root_deleted_coloring(g, assignment, coloring, origin)
    return _alt_distances(g.adjacency, assignment, coloring, origin)


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


# ---------------------------------------------------------------------------
# proper triples


@dataclass
class ProperTriple:
    """(F, root, rank): F is the vertex set of a connected induced subgraph
    of the host graph; rank(root)=0, every other rank is positive, and every
    vertex of rank s has an F-neighbor of rank s-1."""

    vertices: tuple[int, ...]
    root: int
    rank: dict[int, int]

    @property
    def size(self) -> int:
        return len(self.vertices)

    def _json_fields(self) -> dict:
        rank = {str(v): r for v, r in sorted(self.rank.items())}
        return {"vertices": list(self.vertices), "root": self.root, "rank": rank}

    def validate(self, g: Graph) -> None:
        vs = set(self.vertices)
        if self.root not in vs:
            raise CertificateError("root is not a vertex of F")
        if set(self.rank) != vs:
            raise CertificateError("rank function must cover exactly V(F)")
        m = len(vs)
        if self.rank[self.root] != 0:
            raise CertificateError("root must have rank 0")
        for v in vs:
            r = self.rank[v]
            if not 0 <= r <= m - 1:
                raise CertificateError(f"rank of {v} outside 0..{m - 1}")
            if v != self.root:
                if r == 0:
                    raise CertificateError(f"non-root vertex {v} has rank 0")
                if not any(w in vs and self.rank[w] == r - 1 for w in g.adjacency[v]):
                    raise CertificateError(f"vertex {v} has no neighbor of rank {r - 1}")


def _adj_within(g: Graph, vs) -> dict[int, tuple[int, ...]]:
    inside = set(vs)
    return {v: tuple(w for w in g.adjacency[v] if w in inside) for v in vs}


def _proper_colorings(order, adj, assignment) -> Iterator[Coloring]:
    """Backtracking enumeration of proper list colorings of `order`, with
    properness taken within `adj` restricted to colored vertices.  Yields a
    live dict: copy it before storing."""
    phi: Coloring = {}

    def rec(i):
        if i == len(order):
            yield phi
            return
        v = order[i]
        for c in assignment[v]:
            if all(phi.get(w) != c for w in adj[v]):
                phi[v] = c
                yield from rec(i + 1)
                del phi[v]

    yield from rec(0)


def _colorable_within(vs, adj, assignment) -> bool:
    return next(_proper_colorings(sorted(vs), adj, assignment), None) is not None


def _root_sees_all_colors(root, adj, assignment, phi) -> bool:
    neighbor_colors = {phi[w] for w in adj[root]}
    return set(assignment[root]) <= neighbor_colors


def _swap_condition_holds(vs, root, adj, assignment, phi, rank) -> bool:
    # For every non-root x and every unused color c of x's list there must be
    # a neighbor already colored c, or a lower-rank neighbor carrying c.
    for x in vs:
        if x == root:
            continue
        rx = rank[x]
        for c in assignment[x]:
            if c == phi[x]:
                continue
            ok = any(w != root and phi[w] == c for w in adj[x]) or any(
                c in assignment[z] and rank[z] < rx for z in adj[x]
            )
            if not ok:
                return False
    return True


def is_bad_triple(
    g: Graph, assignment: ListAssignment, triple: ProperTriple, max_size: int = 12
) -> tuple[bool, Coloring | None]:
    """Decide badness of a proper triple, returning a witness coloring.

    Bad means: F is not colorable from its lists, and some proper list
    coloring phi of F minus the root (a) reaches every vertex of F along
    alternating paths from the root, inducing exactly the triple's rank
    function, (b) puts every color of the root's list on a root neighbor,
    and (c) satisfies the swap condition above.
    """
    require_lists_for(g, assignment)
    triple.validate(g)
    if triple.size > max_size:
        raise GuardExceededError(f"triple has {triple.size} > {max_size} vertices")
    vs = triple.vertices
    adj = _adj_within(g, vs)
    if _colorable_within(vs, adj, assignment):
        return False, None
    others = sorted(v for v in vs if v != triple.root)
    for phi in _proper_colorings(others, adj, assignment):
        dist = _alt_distances(adj, assignment, phi, triple.root)
        if len(dist) != len(vs) or dist != triple.rank:
            continue
        if not _root_sees_all_colors(triple.root, adj, assignment, phi):
            continue
        if _swap_condition_holds(vs, triple.root, adj, assignment, phi, dist):
            return True, dict(phi)
    return False, None


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


def find_bad_triple(
    g: Graph, assignment: ListAssignment, solved: SolveResult | None = None, max_core: int = 12
) -> ProperTriple | None:
    """A bad proper triple of an uncolorable instance, or None when the
    instance is colorable.

    The search extracts a connected critical core first, passing `solved`
    on; the alternating characterization guarantees every root of the core
    admits a qualifying coloring, so the certificate exists whenever the
    instance is uncolorable.
    """
    try:
        vs, _ = extract_critical(g, assignment, solved)
    except CertificateError:  # no component is uncolorable
        return None
    if len(vs) > max_core:
        raise GuardExceededError(
            f"critical core has {len(vs)} vertices, above the guard {max_core}"
        )
    adj = _adj_within(g, vs)
    for root in vs:
        others = sorted(v for v in vs if v != root)
        for phi in _proper_colorings(others, adj, assignment):
            dist = _alt_distances(adj, assignment, phi, root)
            if len(dist) != len(vs):
                continue
            if not _root_sees_all_colors(root, adj, assignment, phi):
                continue
            if _swap_condition_holds(vs, root, adj, assignment, phi, dist):
                return ProperTriple(vs, root, dist)
    return None


# ---------------------------------------------------------------------------
# ordered cycles, lollipops, and 2-bad pairs (k = 2 machinery)


@dataclass(frozen=True)
class OrderedSeq:
    """An ordered cycle v1..vd v1 or ordered lollipop v1..vd vj.

    `closing_index` is the 0-based position of the closing target: 0 for a
    cycle; between 1 and d-3 for a lollipop (closing into the predecessor is
    rejected, matching the definition's j <= d-2 in 1-based terms)."""

    kind: str
    vertices: tuple[int, ...]
    closing_index: int

    def __post_init__(self):
        d = len(self.vertices)
        if len(set(self.vertices)) != d:
            raise CertificateError("ordered sequence repeats a vertex")
        if self.kind == CYCLE:
            if d < 3:
                raise CertificateError("ordered cycle needs at least 3 vertices")
            if self.closing_index != 0:
                raise CertificateError("cycle must close into its first vertex")
        elif self.kind == LOLLIPOP:
            if d < 4:
                raise CertificateError("ordered lollipop needs at least 4 vertices")
            if not 1 <= self.closing_index <= d - 3:
                raise CertificateError(
                    f"lollipop closing index {self.closing_index} outside 1..{d - 3}"
                )
        else:
            raise CertificateError(f"unknown sequence kind {self.kind!r}")

    @property
    def first_vertex(self) -> int:
        return self.vertices[0]

    @property
    def second_vertex(self) -> int:
        return self.vertices[1]

    @property
    def closing_target(self) -> int:
        return self.vertices[self.closing_index]

    def edge_set(self) -> frozenset[tuple[int, int]]:
        """Path edges plus the closing edge, normalized."""
        edges = set()
        for i in range(len(self.vertices) - 1):
            u, v = self.vertices[i], self.vertices[i + 1]
            edges.add((min(u, v), max(u, v)))
        u, v = self.vertices[-1], self.closing_target
        edges.add((min(u, v), max(u, v)))
        return frozenset(edges)

    def validate(self, g: Graph) -> None:
        for i in range(len(self.vertices) - 1):
            if not g.has_edge(self.vertices[i], self.vertices[i + 1]):
                raise CertificateError(
                    f"consecutive vertices {self.vertices[i]} {self.vertices[i + 1]}"
                    " are not adjacent"
                )
        if not g.has_edge(self.vertices[-1], self.closing_target):
            raise CertificateError("closing edge missing from the graph")


def _require_two_lists(assignment):
    if assignment.k != 2:
        raise InvalidParameterError("ordered-sequence machinery requires 2-lists")


def alternating_chain(
    seq: OrderedSeq, assignment: ListAssignment, first_color: int | None = None
) -> tuple[int, ...] | None:
    """The color chain c1..c_{d-1} making the sequence alternate, or None.

    c1 comes from the first vertex's list; each interior list must equal
    {previous color, next color}; the final list must close back onto the
    chain color of the closing target (the first vertex for cycles).  The
    chain is forced once c1 is fixed, so at most two candidates exist."""
    _require_two_lists(assignment)
    vs = seq.vertices
    d = len(vs)
    first_list = assignment[vs[0]]
    candidates = (first_color,) if first_color is not None else first_list
    for c1 in candidates:
        if c1 not in first_list:
            continue
        chain = [c1]
        ok = True
        for i in range(1, d - 1):
            li = assignment[vs[i]]
            if chain[-1] not in li:
                ok = False
                break
            chain.append(li[0] if li[1] == chain[-1] else li[1])
        if not ok:
            continue
        last_list = assignment[vs[-1]]
        if chain[-1] not in last_list:
            continue
        other = last_list[0] if last_list[1] == chain[-1] else last_list[1]
        if other == chain[seq.closing_index]:
            return tuple(chain)
    return None


def is_L_alternating(
    seq: OrderedSeq, assignment: ListAssignment, first_color: int | None = None
) -> tuple[bool, tuple[int, ...] | None]:
    """Whether the sequence alternates; on success also the color chain,
    whose first entry is the sequence's first color."""
    chain = alternating_chain(seq, assignment, first_color)
    return chain is not None, chain


@dataclass(frozen=True)
class ProperPair:
    """Two ordered cycles/lollipops sharing their first vertex."""

    h1: OrderedSeq
    h2: OrderedSeq

    def __post_init__(self):
        if self.h1.first_vertex != self.h2.first_vertex:
            raise CertificateError("pair members must share their first vertex")

    @property
    def first_vertex(self) -> int:
        return self.h1.first_vertex

    @property
    def vertex_count(self) -> int:
        return len(set(self.h1.vertices) | set(self.h2.vertices))

    def _json_fields(self) -> dict:
        sequences = [
            {"shape": h.kind, "vertices": list(h.vertices), "closing_index": h.closing_index}
            for h in (self.h1, self.h2)
        ]
        return {"first_vertex": self.first_vertex, "sequences": sequences}

    def validate(self, g: Graph) -> None:
        self.h1.validate(g)
        self.h2.validate(g)


def is_2bad_pair(
    g: Graph, assignment: ListAssignment, pair: ProperPair
) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """Check the three 2-bad conditions: both members alternate, their first
    colors are the two distinct colors of the shared first vertex's list, and
    their second vertices differ."""
    require_lists_for(g, assignment)
    _require_two_lists(assignment)
    pair.validate(g)
    if pair.h1.second_vertex == pair.h2.second_vertex:
        return False, None
    a, b = assignment[pair.first_vertex]
    for c1, c2 in ((a, b), (b, a)):
        chain1 = alternating_chain(pair.h1, assignment, c1)
        if chain1 is None:
            continue
        chain2 = alternating_chain(pair.h2, assignment, c2)
        if chain2 is not None:
            return True, (chain1, chain2)
    return False, None


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


class _Budget:
    __slots__ = ("left",)

    def __init__(self, limit: int):
        self.left = limit

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise GuardExceededError("sequence search budget exhausted")


def _first_completion(g, assignment, start, second, c1, budget) -> OrderedSeq | None:
    """Depth-first extension of the color-forced chain from (start, second)
    with first color c1, returning the first ordered cycle or lollipop that
    closes; None when no extension closes."""
    adj = g.adjacency
    seq = [start, second]
    chain = [c1]
    position = {start: 0, second: 1}
    # One frame per path vertex from `second` on: the color the next vertex
    # must take, and the unvisited rest of the last vertex's neighbors.
    frames: list[tuple[int, Iterator[int]]] = []
    while True:
        budget.spend()
        t = len(seq)
        last = seq[-1]
        ll = assignment[last]
        other = ll[0] if ll[1] == chain[-1] else ll[1]
        if t >= 3 and other == chain[0] and g.has_edge(last, seq[0]):
            return OrderedSeq(CYCLE, tuple(seq), 0)
        # a lollipop closes into the earliest position 1..t-3 adjacent to
        # `last` whose chain color is `other`
        jc = t - 2
        for w in adj[last]:
            j = position.get(w, 0)
            if 0 < j < jc and chain[j] == other:
                jc = j
        if jc < t - 2:
            return OrderedSeq(LOLLIPOP, tuple(seq), jc)
        frames.append((other, iter(adj[last])))
        # extend by the next admissible neighbor, backing out of exhausted frames
        while frames:
            other, rest = frames[-1]
            for w in rest:
                if w not in position and other in assignment[w]:
                    position[w] = len(seq)
                    seq.append(w)
                    chain.append(other)
                    break
            else:
                frames.pop()
                if frames:
                    del position[seq.pop()]
                    chain.pop()
                continue
            break
        else:
            return None


def find_2bad_pair(
    g: Graph, assignment: ListAssignment, max_nodes: int = 10**6
) -> ProperPair | None:
    """A 2-bad proper pair if one exists, else None.

    The search is exhaustive: for every vertex and each of its two list
    colors it tries every admissible second vertex and extends the forced
    color chain depth-first.  The budget bounds total search steps; running
    out raises instead of under-reporting."""
    require_lists_for(g, assignment)
    _require_two_lists(assignment)
    budget = _Budget(max_nodes)
    for v in range(g.n):
        a, b = assignment[v]
        completions: dict[int, dict[int, OrderedSeq]] = {a: {}, b: {}}
        for color in (a, b):
            for u in g.adjacency[v]:
                if color in assignment[u]:
                    found = _first_completion(g, assignment, v, u, color, budget)
                    if found is not None:
                        completions[color][u] = found
        for s1 in sorted(completions[a]):
            for s2 in sorted(completions[b]):
                if s1 != s2:
                    return ProperPair(completions[a][s1], completions[b][s2])
    return None


# ---------------------------------------------------------------------------
# rooted proper trees (girth > 3 machinery)


def proper_tree_size(k: int, g: int) -> int:
    """Vertex count of a rooted k-proper tree for girth g.

    Odd g: 1 + k*(1 + (k-1) + ... + (k-1)^((g-3)/2)); even g: twice the
    geometric sum up to (k-1)^((g-2)/2).  Also the minimum order of a girth-g
    graph with minimum degree k."""
    if k < 2:
        raise InvalidParameterError("tree size needs k >= 2")
    if g < 3:
        raise InvalidParameterError("tree size needs girth >= 3")
    if g % 2:
        return 1 + k * sum((k - 1) ** i for i in range((g - 1) // 2))
    return 2 * sum((k - 1) ** i for i in range(g // 2))


@dataclass
class RootedProperTree:
    """A rooted tree certificate carrier.

    Odd parity: the root has k children, internal vertices k-1, leaves at
    depth (girth-1)/2.  Even parity: two such trees with roots of degree k-1
    joined by the root--semiroot edge, leaves at side depth (girth-2)/2.
    Always exactly `proper_tree_size(k, girth)` vertices."""

    parity: str
    girth: int
    k: int
    root: int
    semiroot: int | None
    parent: dict[int, int] = field(default_factory=dict)

    @property
    def vertices(self) -> tuple[int, ...]:
        return vertex_set([self.root, *self.parent])

    @property
    def size(self) -> int:
        return 1 + len(self.parent)

    def edges(self) -> list[tuple[int, int]]:
        return [(min(c, p), max(c, p)) for c, p in sorted(self.parent.items())]

    def _json_fields(self) -> dict:
        return {"parity": self.parity, "girth": self.girth, "k": self.k, "root": self.root,
                "semiroot": self.semiroot, "edges": [list(e) for e in self.edges()]}

    def children(self) -> dict[int, list[int]]:
        ch: dict[int, list[int]] = {v: [] for v in self.vertices}
        for c, p in self.parent.items():
            ch[p].append(c)
        for v in ch:
            ch[v].sort()
        return ch

    def tree_neighbors(self) -> dict[int, list[int]]:
        nb = self.children()
        for c, p in self.parent.items():
            nb[c].append(p)
        for v in nb:
            nb[v].sort()
        return nb

    def depths_from(self, origin: int) -> dict[int, int]:
        nb = self.tree_neighbors()
        dist = {origin: 0}
        queue = deque([origin])
        while queue:
            v = queue.popleft()
            for w in nb[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist

    def validate(self, g: Graph) -> None:
        if self.size != proper_tree_size(self.k, self.girth):
            raise CertificateError(
                f"tree has {self.size} vertices, expected {proper_tree_size(self.k, self.girth)}"
            )
        for c, p in self.parent.items():
            if not g.has_edge(c, p):
                raise CertificateError(f"tree edge {c}-{p} missing from the graph")
        ch = self.children()
        depth = self.depths_from(self.root)
        if self.parity == ODD:
            if self.girth % 2 == 0:
                raise CertificateError("odd tree declared with even girth")
            if len(ch[self.root]) != self.k:
                raise CertificateError("odd tree root must have k children")
            max_internal = (self.girth - 3) // 2
            leaf_depth = (self.girth - 1) // 2
            for v in self.vertices:
                d = depth[v]
                if v == self.root:
                    continue
                expected = self.k - 1 if d <= max_internal else 0
                if len(ch[v]) != expected:
                    raise CertificateError(
                        f"vertex {v} at depth {d} has {len(ch[v])} children, expected {expected}"
                    )
                if d > leaf_depth:
                    raise CertificateError(f"vertex {v} deeper than {leaf_depth}")
        else:
            if self.girth % 2:
                raise CertificateError("even tree declared with odd girth")
            if self.semiroot is None:
                raise CertificateError("even tree needs a semiroot")
            if self.parent.get(self.semiroot) != self.root:
                raise CertificateError("semiroot must hang off the root")
            side_depth = (self.girth - 2) // 2
            u_depth = self.depths_from(self.semiroot)
            root_children = [c for c in ch[self.root] if c != self.semiroot]
            if len(root_children) != self.k - 1 or len(ch[self.semiroot]) != self.k - 1:
                raise CertificateError("even tree roots must have k-1 children each")
            for v in self.vertices:
                if v in (self.root, self.semiroot):
                    continue
                # side depth: distance to the nearer of the two joined roots
                own = min(depth[v], u_depth[v])
                expected = self.k - 1 if own < side_depth else 0
                if len(ch[v]) != expected:
                    raise CertificateError(
                        f"vertex {v} at side depth {own} has {len(ch[v])} children,"
                        f" expected {expected}"
                    )


def _grow_levels(g, level, used, parent, branchings, budget) -> Iterator[dict[int, int]]:
    if not branchings:
        budget.spend()
        yield dict(parent)
        return
    b = branchings[0]
    adj = g.adjacency

    def assign(i, next_level, used_now):
        if i == len(level):
            yield from _grow_levels(g, tuple(next_level), used_now, parent, branchings[1:], budget)
            return
        u = level[i]
        candidates = [w for w in adj[u] if w not in used_now]
        for combo in itertools.combinations(candidates, b):
            for w in combo:
                parent[w] = u
            yield from assign(i + 1, next_level + list(combo), used_now | set(combo))
            for w in combo:
                del parent[w]

    yield from assign(0, [], used)


def build_proper_trees(
    g: Graph,
    k: int,
    root: int,
    girth_value: int | None = None,
    max_trees: int = 10**6,
) -> Iterator[RootedProperTree]:
    """All odd (odd girth) or even (even girth) rooted k-proper trees rooted
    at `root`; for even girth the semiroot iterates over the root's neighbors
    in ascending order.  Every tree has exactly proper_tree_size(k, girth)
    vertices."""
    if girth_value is None:
        girth_value = girth(g)
    if girth_value == INFINITE_GIRTH:
        raise InvalidParameterError("rooted proper trees need a graph with finite girth")
    gv = int(girth_value)
    budget = _Budget(max_trees)
    if gv % 2:
        branchings = [k] + [k - 1] * ((gv - 3) // 2)
        for parent in _grow_levels(g, (root,), {root}, {}, branchings, budget):
            yield RootedProperTree(ODD, gv, k, root, None, parent)
    else:
        branchings = [k - 1] + [k - 1] * ((gv - 4) // 2)
        for semi in g.adjacency[root]:
            for parent in _grow_levels(
                g, (root, semi), {root, semi}, {semi: root}, branchings, budget
            ):
                yield RootedProperTree(EVEN, gv, k, root, semi, parent)


def is_tree_bad(
    tree: RootedProperTree, assignment: ListAssignment, max_colorings: int = 10**6
) -> tuple[bool, Coloring | None]:
    """Decide tree-badness, returning a witness coloring of the tree minus
    its root: the root's list must equal its tree-neighbors' color set, and
    every internal vertex's non-own list colors must equal its children's
    color set (measured from the root, and from the semiroot too on even
    trees)."""
    nb = tree.tree_neighbors()
    colored = sorted(v for v in tree.vertices if v != tree.root)
    adj = {v: tuple(w for w in nb[v] if w != tree.root) for v in colored}
    depth_root = tree.depths_from(tree.root)

    def conditions(phi) -> bool:
        if set(assignment[tree.root]) != {phi[x] for x in nb[tree.root]}:
            return False
        if tree.parity == ODD:
            top = (tree.girth - 3) // 2
            for x in colored:
                d = depth_root[x]
                if 1 <= d <= top:
                    want = set(assignment[x]) - {phi[x]}
                    got = {phi[y] for y in nb[x] if depth_root[y] == d + 1}
                    if want != got:
                        return False
            return True
        top = (tree.girth - 4) // 2
        depth_semi = tree.depths_from(tree.semiroot)
        for x in colored:
            d = depth_root[x]
            if 1 <= d <= top:
                want = set(assignment[x]) - {phi[x]}
                got = {phi[y] for y in nb[x] if depth_root[y] == d + 1}
                if want != got:
                    return False
            d = depth_semi[x]
            if 1 <= d <= top:
                want = set(assignment[x]) - {phi[x]}
                got = {phi[y] for y in nb[x] if depth_semi[y] == d + 1}
                if want != got:
                    return False
        return True

    scanned = 0
    for phi in _proper_colorings(colored, adj, assignment):
        scanned += 1
        if scanned > max_colorings:
            raise GuardExceededError("tree coloring scan budget exhausted")
        if conditions(phi):
            return True, dict(phi)
    return False, None


def find_tree_bad(
    g: Graph,
    assignment: ListAssignment,
    k: int | None = None,
    max_trees: int = 10**6,
) -> RootedProperTree | None:
    """Search every root (and semiroot, for even girth) for a tree-bad
    rooted k-proper tree; None when no tree qualifies within the guards.
    Rooted proper trees need k >= 2."""
    require_lists_for(g, assignment)
    if k is None:
        k = assignment.k
    if k < 2:
        raise InvalidParameterError(f"tree certificates need k >= 2, got k={k}")
    gv = girth(g)
    if gv == INFINITE_GIRTH:
        raise InvalidParameterError("tree certificates need a graph with finite girth")
    budget = _Budget(max_trees)
    for root in range(g.n):
        for tree in build_proper_trees(g, k, root, int(gv), max_trees=budget.left + 1):
            budget.spend()
            ok, _ = is_tree_bad(tree, assignment)
            if ok:
                return tree
    return None


# ---------------------------------------------------------------------------
# the certificate kinds


@dataclass(frozen=True)
class CertificateKind:
    """One certificate family: `find(g, assignment, solved)` gives a
    `cert_class` instance or None; `check(g, assignment, certificate)` gives
    (ok, witness coloring or None)."""

    name: str  # in sweep configs and `listcolor certify --kind`
    label: str  # the JSON "kind" and the records.csv `certificate` value
    cert_class: type
    find: Callable
    check: Callable

    def obstacle(self, k: int, g: Graph) -> str | None:
        """Why no certificate of this kind can exist for k-lists on g, or
        None when one can.  A bad proper triple exists for every
        uncolorable instance; a 2-bad pair needs 2-lists; a rooted proper
        tree needs k >= 2 and a finite girth above three."""
        if self.name == "pair" and k != 2:
            return "pair certificates need k=2 lists"
        if self.name == "tree":
            if k < 2:
                return "tree certificates need k >= 2 lists"
            if not 3 < girth(g) < INFINITE_GIRTH:
                return "tree certificates need girth above 3"
        return None


# In the order `listcolor certify --kind auto` tries them.  The lambdas look
# the finders and checkers up when called, so a replaced module function is
# the one that runs.
CERTIFICATE_KINDS = {kind.name: kind for kind in (
    CertificateKind("triple", "bad-triple", ProperTriple, lambda g, a, s: find_bad_triple(g, a, s),
                    lambda g, a, cert: is_bad_triple(g, a, cert)),
    # a pair's witness is two color chains, not a coloring: the JSON omits it
    CertificateKind("pair", "2bad-pair", ProperPair, lambda g, a, _: find_2bad_pair(g, a),
                    lambda g, a, cert: (is_2bad_pair(g, a, cert)[0], None)),
    CertificateKind("tree", "tree-bad", RootedProperTree, lambda g, a, _: find_tree_bad(g, a),
                    lambda g, a, cert: is_tree_bad(cert, a)),
)}


def certify(
    g: Graph, assignment: ListAssignment, kinds: Iterable[str], solved: SolveResult
) -> tuple[CertificateKind, object] | None:
    """(kind, unchecked certificate) from the first of `kinds` (names, in
    order) that finds one, skipping kinds with an `obstacle`; `solved` is
    `solve(g, assignment)`, passed to the finders.  None when nothing is
    found; if a finder hit its guard, the first GuardExceededError instead."""
    guard = None
    for name in kinds:
        kind = CERTIFICATE_KINDS[name]
        if kind.obstacle(assignment.k, g) is not None:
            continue
        try:
            cert = kind.find(g, assignment, solved)
        except GuardExceededError as exc:
            guard = guard or exc
            continue
        if cert is not None:
            return kind, cert
    if guard is not None:
        raise guard
    return None


# ---------------------------------------------------------------------------
# serialization


def certificate_to_json(cert, witness: Coloring | None = None) -> dict:
    """Schema documented in docs/formats.md."""
    for kind in CERTIFICATE_KINDS.values():
        if isinstance(cert, kind.cert_class):
            doc = {"kind": kind.label, **cert._json_fields()}
            break
    else:
        raise InvalidParameterError(f"unknown certificate type {type(cert).__name__}")
    if witness is not None:
        doc["witness_coloring"] = {str(v): c for v, c in sorted(witness.items())}
    return doc
