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

# The guards of the searches: triples are searched on at most _MAX_TRIPLE
# vertices, and the pair search stops after _MAX_STEPS states.  A search past
# its guard raises GuardExceededError instead of under-reporting.  The tree
# search and the tree check are polynomial and have no guard.
_MAX_TRIPLE = 12
_MAX_STEPS = 10**6


class _Budget:
    """_MAX_STEPS states of one pair search; the next raises GuardExceededError."""

    __slots__ = ("left",)

    def __init__(self):
        self.left = _MAX_STEPS

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise GuardExceededError("sequence search budget exhausted")


# ---------------------------------------------------------------------------
# alternating paths and rank functions


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


def _qualifying_ranks(vs, root, adj, assignment) -> Iterator[tuple[Coloring, dict[int, int]]]:
    """(phi, rank) for every proper list coloring phi of F minus the root, in
    enumeration order, that witnesses badness: its alternating distances
    from the root reach all of F (they are the rank), every color of the
    root's list sits on a root neighbor, and the swap condition holds.
    phi is live: copy it before storing."""
    others = sorted(v for v in vs if v != root)
    for phi in _proper_colorings(others, adj, assignment):
        dist = _alt_distances(adj, assignment, phi, root)
        if (len(dist) == len(vs) and _root_sees_all_colors(root, adj, assignment, phi)
                and _swap_condition_holds(vs, root, adj, assignment, phi, dist)):
            yield phi, dist


def is_bad_triple(
    g: Graph, assignment: ListAssignment, triple: ProperTriple
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
    if triple.size > _MAX_TRIPLE:
        raise GuardExceededError(f"triple has {triple.size} > {_MAX_TRIPLE} vertices")
    vs = triple.vertices
    adj = _adj_within(g, vs)
    if _colorable_within(vs, adj, assignment):
        return False, None
    for phi, rank in _qualifying_ranks(vs, triple.root, adj, assignment):
        if rank == triple.rank:
            return True, dict(phi)
    return False, None


def find_bad_triple(
    g: Graph, assignment: ListAssignment, solved: SolveResult | None = None
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
    if len(vs) > _MAX_TRIPLE:
        raise GuardExceededError(
            f"critical core has {len(vs)} vertices, above the guard {_MAX_TRIPLE}"
        )
    adj = _adj_within(g, vs)
    for root in vs:
        for _, rank in _qualifying_ranks(vs, root, adj, assignment):
            return ProperTriple(vs, root, rank)
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


def find_2bad_pair(g: Graph, assignment: ListAssignment) -> ProperPair | None:
    """A 2-bad proper pair if one exists, else None.

    The search is exhaustive: for every vertex and each of its two list
    colors it tries every admissible second vertex and extends the forced
    color chain depth-first.  One budget bounds the states visited over the
    whole search."""
    require_lists_for(g, assignment)
    _require_two_lists(assignment)
    budget = _Budget()
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

    def check_shape(self) -> None:
        """The rules that need no graph, one shape rule for both parities.
        The side depth of a vertex is its tree distance to the nearer origin
        (the root, and the semiroot on even trees).  The root has k
        children, counting the semiroot; any other vertex has k-1 children
        up to side depth (girth-3)//2, and none below that."""
        if self.k < 2 or self.girth < 3:
            raise CertificateError("rooted proper trees need k >= 2 and girth >= 3")
        if self.parity != (ODD if self.girth % 2 else EVEN):
            raise CertificateError(f"{self.parity!r} tree declared with girth {self.girth}")
        if (self.semiroot is None) != (self.parity == ODD):
            raise CertificateError("an even tree, and only an even tree, has a semiroot")
        if self.root in self.parent:
            raise CertificateError("the root has a parent")
        if self.semiroot is not None and self.parent.get(self.semiroot) != self.root:
            raise CertificateError("semiroot must hang off the root")
        vertices = set(self.vertices)
        for c, p in self.parent.items():
            if p not in vertices:
                raise CertificateError(f"parent {p} of {c} is not a tree vertex")
        ch = self.children()
        origins = (self.root,) if self.semiroot is None else (self.root, self.semiroot)
        side = dict.fromkeys(origins, 0)
        queue = deque(origins)
        while queue:
            v = queue.popleft()
            for c in ch[v]:
                if c not in side:
                    side[c] = side[v] + 1
                    queue.append(c)
        if len(side) != self.size:
            raise CertificateError("parent links do not all lead to the root")
        top = (self.girth - 3) // 2
        for v in self.vertices:
            want = self.k if v == self.root else self.k - 1 if side[v] <= top else 0
            if len(ch[v]) != want:
                raise CertificateError(
                    f"vertex {v} at side depth {side[v]} has {len(ch[v])} children,"
                    f" expected {want}"
                )

    def check_edges(self, g: Graph) -> None:
        """Every tree edge is an edge of g."""
        for c, p in self.parent.items():
            if not g.has_edge(c, p):
                raise CertificateError(f"tree edge {c}-{p} missing from the graph")

    def validate(self, g: Graph) -> None:
        """check_shape, then check_edges against g."""
        self.check_shape()
        self.check_edges(g)


def is_tree_bad(
    tree: RootedProperTree, assignment: ListAssignment
) -> tuple[bool, Coloring | None]:
    """Decide tree-badness, returning a witness coloring phi of the tree
    minus its root.  The rule, one for both parities: the root's children
    carry exactly the colors L(root), and every other vertex v with children
    carries exactly L(v) - phi(v) on them.  The witness is the first such
    phi in order of ascending vertex id, then ascending color.  Lists of
    another size than the tree's k are never bad.  A tree of the wrong shape
    raises CertificateError; its edges are not checked against any graph."""
    tree.check_shape()
    if assignment.k != tree.k:
        return False, None
    origins = (tree.root,) if tree.semiroot is None else (tree.root, tree.semiroot)
    kids = {v: [c for c in ch if c not in origins] for v, ch in tree.children().items() if ch}
    phi: Coloring = {}
    if _fits(origins, kids, assignment, phi) is None:
        return False, None
    # fix each vertex to its smallest color with which the tree stays bad
    for v in tree.vertices:
        if v != tree.root:
            for c in assignment[v]:
                phi[v] = c
                if _fits(origins, kids, assignment, phi) is not None:
                    break
    return True, phi


def _fits(origins, kids, lists, pinned: Coloring) -> dict[int, list[int]] | None:
    """The leaves-up pass over the tree that `kids` spans from the origins
    (the root, then an even tree's semiroot, which is not a kid of the
    root).  A color c fits v when v's kids can take L(v) - c, each color its
    own kid and each kid a color that fits it; a vertex without kids fits
    its whole list, and one in `pinned` only its pinned color.  The root is
    bad when its kids take L(root), less a color that fits the semiroot if
    there is one.  The fits of the non-root vertices if so, else None."""
    order = list(origins)
    for v in order:
        order.extend(kids.get(v, ()))
    fits: dict[int, list[int]] = {}
    for v in reversed(order[1:]):
        colors = (pinned[v],) if v in pinned else lists[v]
        fits[v] = [c for c in colors
                   if v not in kids or _matched(kids[v], set(lists[v]) - {c}, fits)]
    want = set(lists[origins[0]])
    held = [set()] if len(origins) == 1 else [{c} for c in fits[origins[1]] if c in want]
    return fits if any(_matched(kids[origins[0]], want - h, fits) for h in held) else None


def _matched(kids, colors: set[int], fits) -> bool:
    """Whether every color goes to its own kid, each kid a color from its
    `fits`: a matching that covers the colors, found by augmenting paths
    no longer than the colors."""
    taken: dict[int, int] = {}  # kid -> its color

    def augment(c, seen) -> bool:
        for v in kids:
            if v not in seen and c in fits[v]:
                seen.add(v)
                if v not in taken or augment(taken[v], seen):
                    taken[v] = c
                    return True
        return False

    return len(colors) <= len(kids) and all(augment(c, set()) for c in colors)


def find_tree_bad(g: Graph, assignment: ListAssignment) -> RootedProperTree | None:
    """The first tree-bad rooted k-proper tree, k = assignment.k, or None
    when no tree qualifies.  The order: by root, ascending; at even girth
    then by semiroot, over the root's neighbors in ascending order; then by
    each vertex's children, vertices in breadth-first order, as
    combinations (itertools order) of its neighbors other than its parent.
    An instance the tree kind's `obstacle` refuses raises
    InvalidParameterError with its reason."""
    require_lists_for(g, assignment)
    obstacle = CERTIFICATE_KINDS["tree"].obstacle(assignment.k, g)
    if obstacle is not None:
        raise InvalidParameterError(obstacle)
    gv = int(girth(g))
    for root in range(g.n):
        for semi in (None,) if gv % 2 else g.adjacency[root]:
            origins = (root,) if semi is None else (root, semi)
            parent = _first_bad_tree(g, assignment, origins, (gv - 1) // 2)
            if parent is not None:
                parity = ODD if semi is None else EVEN
                return RootedProperTree(parity, gv, assignment.k, root, semi, parent)
    return None


def _first_bad_tree(g, assignment, origins, radius) -> dict[int, int] | None:
    """The parent links of the first tree-bad tree at these origins, or
    None.  At girth above 2 * radius the ball of this radius around the
    origins is a tree whose vertices above the leaves may take as children
    any neighbors but their parents (the other origin, for an origin): one
    pass over it decides every tree at once.  A bad tree is rebuilt breadth
    first, each vertex keeping the first combination of its kids with which
    the pass still finds one."""
    up = dict(zip(origins, reversed(origins)))  # an origin's parent is the other origin
    kids: dict[int, list[int]] = {}
    level = origins
    for _ in range(radius):
        for v in level:
            kids[v] = [w for w in g.adjacency[v] if w != up[v]]
            up.update(dict.fromkeys(kids[v], v))
        level = [w for v in level for w in kids[v]]
    fits = _fits(origins, kids, assignment, {})
    if fits is None:
        return None
    k = assignment.k
    parent = dict.fromkeys(origins[1:], origins[0])
    order = list(origins)
    for v in order:
        if v in kids:
            # a kid whose fits miss L(v) is in no bad tree; the rest keep their fits
            useful = [w for w in kids[v] if not set(fits[w]).isdisjoint(assignment[v])]
            combos = itertools.combinations(useful, k if origins == (v,) else k - 1)
            kids[v] = next(combos)
            for later in combos:  # the last combination left needs no pass
                if _fits(origins, kids, assignment, {}) is not None:
                    break
                kids[v] = later
            parent.update(dict.fromkeys(kids[v], v))
            order.extend(kids[v])
    return parent


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


def _check_tree(g, assignment, tree):
    """is_tree_bad checks the tree's shape; its kind checks the edges against g."""
    tree.check_edges(g)
    return is_tree_bad(tree, assignment)


# In the order `listcolor certify --kind auto` tries them.  The lambdas and
# `_check_tree` look the finders and checkers up when called, so a replaced
# module function is the one that runs.
CERTIFICATE_KINDS = {kind.name: kind for kind in (
    CertificateKind("triple", "bad-triple", ProperTriple, lambda g, a, s: find_bad_triple(g, a, s),
                    lambda g, a, cert: is_bad_triple(g, a, cert)),
    # a pair's witness is two color chains, not a coloring: the JSON omits it
    CertificateKind("pair", "2bad-pair", ProperPair, lambda g, a, _: find_2bad_pair(g, a),
                    lambda g, a, cert: (is_2bad_pair(g, a, cert)[0], None)),
    CertificateKind("tree", "tree-bad", RootedProperTree, lambda g, a, _: find_tree_bad(g, a),
                    _check_tree),
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
