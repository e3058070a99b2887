"""Test-only helpers that the suites share and no listcolor module uses."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from listcolor.bounds import _log_add, _log_of, _pow_log
from listcolor.certificates import (
    EVEN,
    ODD,
    OrderedSeq,
    ProperPair,
    ProperTriple,
    RootedProperTree,
    _alt_distances,
    alternating_chain,
)
from listcolor.errors import CertificateError, GuardExceededError, InvalidParameterError
from listcolor.graphs import Graph, connected_components, girth, vertex_set
from listcolor.lists import ListAssignment
from listcolor.solver import COLORABLE, UNCOLORABLE, Coloring, SolveResult, SolveStats


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


def find_alternating_paths(
    g: Graph, assignment: ListAssignment, coloring: Coloring, origin: int
) -> dict[int, int]:
    """Shortest alternating-path length from `origin` for every reachable
    vertex; the origin itself sits at distance 0.

    `coloring` must be a proper list coloring of the graph minus the origin
    (validated; violations raise CertificateError).
    """
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
    return _alt_distances(g.adjacency, assignment, coloring, origin)


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
    h1 = pair.h1.vertices
    h1_edges = {frozenset(e) for e in zip(h1, h1[1:])}
    h1_edges.add(frozenset((h1[-1], pair.h1.closing_target)))
    h1_vertices = set(h1)
    r = 0
    for idx, w in enumerate(pair.h2.vertices):
        if idx == 0 or w not in h1_vertices:
            continue
        u = pair.h2.vertices[idx - 1]
        if frozenset((u, w)) not in h1_edges:
            r += 1
    return r


def projective_plane_incidence(q: int) -> Graph:
    """Point-line incidence graph of PG(2, q) for a prime q: points 0..m-1
    and lines m..2m-1, m = q^2 + q + 1, each a normalized triple over GF(q),
    and a point lies on a line when their dot product is 0 mod q.  The graph
    is (q+1)-regular with girth 6."""
    triples = (
        [(1, a, b) for a in range(q) for b in range(q)]
        + [(0, 1, a) for a in range(q)]
        + [(0, 0, 1)]
    )
    m = len(triples)
    return Graph(2 * m, [
        (i, m + j) for i, p in enumerate(triples) for j, line in enumerate(triples)
        if sum(x * y for x, y in zip(p, line)) % q == 0
    ])


def free_color_vertices(
    tree: RootedProperTree, assignment: ListAssignment, phi: Coloring
) -> set[int]:
    """The tree vertices whose lists keep a color that neither they nor
    their children carry under phi (the root carries none).  phi must color
    the tree minus its root from the lists.  phi meets the tree-bad rule iff
    these are exactly the childless vertices: with k - 1 children (k at the
    root), covering a k-list leaves no color to repeat."""
    ch = tree.children()
    if set(phi) != set(ch) - {tree.root}:
        raise CertificateError("phi must color exactly the tree minus its root")
    if any(phi[v] not in assignment[v] for v in phi):
        raise CertificateError("phi colors a vertex outside its list")
    return {v for v in ch if set(assignment[v]) - {phi.get(v)} - {phi[c] for c in ch[v]}}


def build_proper_trees(
    g: Graph, k: int, root: int, girth_value: int | None = None
) -> Iterator[RootedProperTree]:
    """Every rooted k-proper tree at `root` for girth `girth_value` (the
    graph's when None), listed one by one in the order that
    `certificates.find_tree_bad` searches them.  The origins are (root,) at
    odd girth and (root, semiroot) for each semiroot over the root's
    neighbors in ascending order at even girth.  The tree then grows level
    by level, vertices in level order, each taking as children a
    combination (itertools order) of its neighbors not yet in the tree: the
    first level branches k + 1 - len(origins) ways from each origin, and
    (girth - 1) // 2 - 1 more levels branch k - 1 ways."""
    gv = int(girth(g) if girth_value is None else girth_value)
    parity = ODD if gv % 2 else EVEN
    for semi in (None,) if parity == ODD else g.adjacency[root]:
        origins = (root,) if semi is None else (root, semi)
        parent = {} if semi is None else {semi: root}
        branchings = [k + 1 - len(origins)] + [k - 1] * ((gv - 1) // 2 - 1)
        for tree_parent in _grow_levels(g, origins, set(origins), parent, branchings):
            yield RootedProperTree(parity, gv, k, root, semi, tree_parent)


def _grow_levels(g, level, used, parent, branchings) -> Iterator[dict[int, int]]:
    if not branchings:
        yield dict(parent)
        return

    def assign(i, next_level, used_now):
        if i == len(level):
            yield from _grow_levels(g, tuple(next_level), used_now, parent, branchings[1:])
            return
        u = level[i]
        candidates = [w for w in g.adjacency[u] if w not in used_now]
        for combo in itertools.combinations(candidates, branchings[0]):
            parent.update(dict.fromkeys(combo, u))
            yield from assign(i + 1, next_level + list(combo), used_now | set(combo))
            for w in combo:
                del parent[w]

    yield from assign(0, [], used)


def reference_tree_bad(
    tree: RootedProperTree, assignment: ListAssignment
) -> tuple[bool, Coloring | None]:
    """`certificates.is_tree_bad` as a plain enumeration: the first coloring
    phi of the tree minus its root, vertices in ascending id and each over
    its list in ascending order, under which the root's children carry
    exactly L(root) and every other vertex v with children carries exactly
    L(v) - phi(v).  A partial coloring is dropped once some vertex's colored
    children repeat a color or carry one outside that set."""
    ch = tree.children()
    order = sorted(v for v in ch if v != tree.root)
    phi: Coloring = {}

    def broken(v) -> bool:
        if v != tree.root and v not in phi:
            return False
        got = [phi[c] for c in ch[v] if c in phi]
        return len(set(got)) < len(got) or not set(got) <= set(assignment[v]) - {phi.get(v)}

    def extend(i) -> bool:
        if i == len(order):
            return all(set(assignment[v]) - {phi.get(v)} == {phi[c] for c in ch[v]}
                       for v in ch if ch[v])
        v = order[i]
        for c in assignment[v]:
            phi[v] = c
            if not broken(v) and not broken(tree.parent[v]) and extend(i + 1):
                return True
        del phi[v]
        return False

    return (True, phi) if extend(0) else (False, None)


def reference_solve(g: Graph, assignment: ListAssignment) -> SolveResult:
    """The search `solver.solve` runs, as a plain recursion on sets of live
    colors, for k >= 2 and instances below the frontier-DP switch point.

    Components are searched in `connected_components` order up to the first
    uncolorable one.  Each node picks the uncolored vertex minimizing (live
    list size, id) by a full scan and tries its live colors in ascending
    order; a try colors the vertex and chases forced moves as the kernel
    does.  The counts follow the kernel's definitions: `nodes` counts picks,
    `propagations` every live list that shrinks to one color, `backtracks`
    every try undone after a failure, `max_depth` the most nodes on one
    path.
    """
    stats = SolveStats()
    coloring: Coloring = {}
    for comp in connected_components(g):
        found = _reference_search(
            g.adjacency, comp, {v: set(assignment[v]) for v in comp}, {}, stats, 1
        )
        if found is None:
            return SolveResult(UNCOLORABLE, None, stats, comp)
        coloring.update(found)
    return SolveResult(COLORABLE, coloring, stats)


def _reference_search(adjacency, comp, live, colors, stats, depth) -> Coloring | None:
    uncolored = [u for u in comp if u not in colors]
    if not uncolored:
        return colors
    v = min(uncolored, key=lambda u: (len(live[u]), u))
    stats.nodes += 1
    stats.max_depth = max(stats.max_depth, depth)
    for c in sorted(live[v]):
        tried_live = {u: set(s) for u, s in live.items()}
        tried_colors = dict(colors)
        if _reference_chain(adjacency, tried_live, tried_colors, v, c, stats):
            found = _reference_search(adjacency, comp, tried_live, tried_colors, stats, depth + 1)
            if found is not None:
                return found
        stats.backtracks += 1
    return None


def _reference_chain(adjacency, live, colors, v, c, stats) -> bool:
    """Color v with c, then each vertex whose live list shrank to one color,
    the last forced first; False at the first conflict or empty list."""
    forced: list[tuple[int, int]] = []
    while True:
        colors[v] = c
        for w in adjacency[v]:
            if w in colors:
                if colors[w] == c:
                    return False
            elif c in live[w]:
                live[w].discard(c)
                if not live[w]:
                    return False
                if len(live[w]) == 1:
                    stats.propagations += 1
                    forced.append((w, min(live[w])))
        while True:
            if not forced:
                return True
            v, c = forced.pop()
            if v not in colors:
                break
            if colors[v] != c:
                return False


def reference_path_sum(n, delta, k, sigma, r_min, r_max) -> tuple[float, float]:
    """The alternating-path sum of `bounds.alternating_path_expectation` as
    a running sum, one term per size: (log of the sum, log of the
    (r_max+1)-th term).  The running log drifts by about one ulp per size."""
    log_ratio = _log_of(delta) + 2 * math.log(k) - _log_of(sigma)
    total = -math.inf
    current = (
        _log_of(n)
        + _pow_log(_log_of(delta), r_min - 1)
        + 2 * r_min * math.log(k)
        - _pow_log(_log_of(sigma), r_min - 1)
    )
    for _ in range(r_min, r_max + 1):
        total = _log_add(total, current)
        current += log_ratio
    return total, current


def reference_pair_sum(n, delta, sigma, l_max, l_min=3) -> float:
    """The log of `bounds.pair_expectation_sum`'s double sum, each (l, r)
    term from its own formula and added one at a time."""
    total = -math.inf
    for l in range(l_min, l_max + 1):
        for r in range(0, l + 1):
            term = (
                _log_of(n)
                + (l - 1 + r) * _log_of(delta)
                + l * math.log(2)
                + (l + 2 * r) * math.log(2)
                - (l - 1) * math.log(sigma)
                - (2 + r) * math.log(sigma - 1)
            )
            total = _log_add(total, term)
    return total
