"""Exact decision of colorability from lists.

The solver is complete: backtracking over vertices with forced-move
propagation (a live list shrinking to one color triggers an assignment, to
zero a backtrack) and minimum-remaining-values ordering, ties broken by
vertex id.  Components are searched one after another, each on its own,
but on one state made once per call: flat lists indexed by vertex id of
live masks, live counts and colors (0 while uncolored), which a component
touches only at its own vertices; each component gets a fresh cursor, heap,
frames and trail.  Color symmetry is NOT broken: lists distinguish colors.

The search is iterative, a loop over an explicit stack of frames, so its
depth is limited by memory only, never by the interpreter's recursion limit.
The next vertex is the one a full minimum scan over (live list size,
vertex id) would pick, and colors are tried in ascending order.  A vertex
with a full list is that pick only when no uncolored vertex has a shrunk
one, and then it is the smallest uncolored id, which a cursor over the
component's ascending ids finds; a backtrack restores the cursor with the
rest of the state.  Shrunk lists alone go into a lazily invalidated heap of
(size, id) entries; at k = 2, where every shrink forces, it stays empty.
`SolveStats` counts search nodes, forced propagations, backtracks (tries
undone after a failure) and the deepest frame stack.  The deadline is read
once per node.  At k = 1 every list is a forced singleton, so the
propagation alone decides the component and no node is searched.

The search state is indexed by list positions, never by color values: a
vertex's live colors are a bitmask whose bit i stands for the i-th color of
its sorted list (so the lowest bit is the smallest color), with their count
kept beside it; each frame keeps the mask of its untried positions, and the
undo trail is a flat list of ints.  Memory therefore does not grow with
sigma, and the vertex order, the color order and every count are those of
the same search on sets of colors.

The search has a fixed switch point against its heavy tail.  Once a
component's search has spent more than 1000 + 4|C| nodes (a search that
never backtracks uses at most |C|), a frontier DP runs on the component,
once: it processes the vertices in ascending-id order, keeps the set of
proper colorings of the frontier (the processed vertices that still have an
unprocessed neighbor), and rebuilds a witness from per-step back-pointers,
which goes into the color list.  Its memory is about 8 bytes per state
built, bounded in practice by the deadline.  It gives up as soon as one
step holds more than 16,384 states (as on K_{200,200} at k = 3); the DP
only reads the lists and the adjacency, so the search then goes on where it
stopped.  `SolveStats.nodes` counts search nodes only, `dp_states` the
states of the DP's finished steps; every instance decided before the switch
point is searched exactly as without it.

`solve` searches components up to the first uncolorable one, which its
result names; `extract_critical` starts there and searches each candidate
vertex set in place by the same loop, on a state of g.n entries made once
per candidate; colorable candidates keep their witnesses, which decide
later candidates they extend to, so each vertex set is searched at most
once.

`brute_force_colorable` is an independent exhaustive oracle kept free of the
solver's machinery; it is meant for tests and cross-validation only.
"""

from __future__ import annotations

import itertools
import time
from array import array
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from .errors import CertificateError, GuardExceededError, InvalidParameterError, SolveTimeout
from .graphs import Graph, components_of, connected_components, induced_subgraph
from .lists import ListAssignment

COLORABLE = "COLORABLE"
UNCOLORABLE = "UNCOLORABLE"

# A coloring is a vertex -> positive color mapping; partial colorings appear
# in certificate contexts where the root stays uncolored.
Coloring = dict[int, int]

# The search of a component C runs the frontier DP after more than
# _SWITCH_BASE + _SWITCH_PER_VERTEX * |C| nodes; the DP gives up once one
# step holds more than _DP_MAX_STATES states.
_SWITCH_BASE = 1000
_SWITCH_PER_VERTEX = 4
_DP_MAX_STATES = 1 << 14


@dataclass
class SolveStats:
    nodes: int = 0
    propagations: int = 0
    backtracks: int = 0
    max_depth: int = 0
    dp_states: int = 0


@dataclass
class SolveResult:
    status: str
    coloring: Coloring | None
    stats: SolveStats = field(default_factory=SolveStats)
    # the first component (by smallest member) found uncolorable, or None
    component: tuple[int, ...] | None = None

    @property
    def colorable(self) -> bool:
        return self.status == COLORABLE


def verify_coloring(g: Graph, assignment: ListAssignment, coloring: Coloring) -> bool:
    """True iff `coloring` is total, proper, and respects every list."""
    if len(assignment) != g.n:
        raise InvalidParameterError("assignment does not cover the graph")
    if any(v not in coloring for v in range(g.n)):
        raise InvalidParameterError("coloring must be total on V(g)")
    for u, nbrs in enumerate(g.adjacency):
        if coloring[u] not in assignment[u] or any(coloring[v] == coloring[u] for v in nbrs):
            return False
    return True


def require_lists_for(g: Graph, assignment: ListAssignment) -> None:
    """Raise unless `assignment` holds exactly one list per vertex of g."""
    if len(assignment) != g.n:
        raise InvalidParameterError("assignment must define a list for every vertex")


def _frontier_dp(order, adjacency, assignment, stats, deadline) -> Coloring | None | bool:
    """Decide a component exactly by processing `order` (ascending ids) and
    keeping the set of proper colorings of the frontier: a coloring, or None
    if there is none.  Gives up, returning False, as soon as one step holds
    more than _DP_MAX_STATES states.

    A state packs the frontier's colors into one int, one bit field per
    frontier slot holding 1 + the color's index in its list (0: slot free).
    Each step stores one back-pointer `parent_index * k + color_index` per
    new state; the witness is rebuilt backwards from the final state.
    """
    lists, k = assignment.lists, assignment.k
    bits = k.bit_length()
    mask = (1 << bits) - 1
    leavers: dict[int, list[int]] = {}  # v -> processed vertices whose last neighbor is v
    for u in order:
        last = max(adjacency[u], default=u)
        if last > u:
            leavers.setdefault(last, []).append(u)
    joins = {u for group in leavers.values() for u in group}  # have a later neighbor
    shift: dict[int, int] = {}  # frontier vertex -> offset of its field
    free: list[int] = []  # offsets of released slots
    states = [0]
    steps = []
    for v in order:
        if deadline is not None and time.monotonic() > deadline:
            raise SolveTimeout("solver deadline expired")
        earlier = [(lists[u], shift[u]) for u in adjacency[v] if u < v]
        near = sum(mask << s for _, s in earlier)
        gone = leavers.pop(v, ())
        keep = ~sum(mask << shift[u] for u in gone)
        free.extend(shift.pop(u) for u in gone)
        if v in joins:
            own = shift[v] = free.pop() if free else bits * len(shift)
        else:
            own = None
        # states that agree on v's earlier neighbors allow the same colors
        choices: dict[int, list[tuple[int, int]]] = {}
        index: dict[int, int] = {}
        back = array("q")
        for parent, state in enumerate(states):
            key = state & near
            allowed = choices.get(key)
            if allowed is None:
                used = {lst[((key >> s) & mask) - 1] for lst, s in earlier}
                allowed = [
                    (i, 0 if own is None else (i + 1) << own)
                    for i, c in enumerate(lists[v])
                    if c not in used
                ]
                if own is None:
                    allowed = allowed[:1]  # v's color is forgotten at once
                choices[key] = allowed
            base = state & keep
            for i, field_bits in allowed:
                nxt = base | field_bits
                if nxt not in index:
                    index[nxt] = len(back)
                    back.append(parent * k + i)
            if len(back) > _DP_MAX_STATES:
                return False
        if not index:
            return None
        stats.dp_states += len(index)
        steps.append(back)
        states = list(index)
    coloring: Coloring = {}
    at = 0
    for v, back in zip(reversed(order), reversed(steps)):
        at, i = divmod(back[at], k)
        coloring[v] = lists[v][i]
    return coloring


def solve(g: Graph, assignment: ListAssignment, deadline: float | None = None) -> SolveResult:
    """Decide whether g has a proper coloring drawn from the lists.

    Complete: never reports UNCOLORABLE for a colorable instance.  A
    COLORABLE result carries a witness that passes `verify_coloring`.
    `deadline` (time.monotonic value) is a cooperative budget used by the
    experiment harness; the library default imposes none.
    """
    require_lists_for(g, assignment)
    return _solve_components(connected_components(g), g.adjacency, assignment, deadline)


def _solve_components(comps, adjacency, assignment, deadline=None) -> SolveResult:
    """UNCOLORABLE naming the first of `comps` that is not colorable from
    its lists, or COLORABLE with a coloring of all of them; the neighbors
    of each vertex v of a component (ascending ids) are `adjacency[v]`.

    The components are searched in order on one state indexed by vertex id,
    made once per call; each component gets a fresh cursor, heap, frames and
    trail.
    """
    lists, k, n = assignment.lists, assignment.k, len(assignment.lists)
    # live[v]: bit i set iff lists[v][i] is still live (lists are sorted, so
    # the lowest bit is the smallest color); size[v] counts the set bits;
    # col[v] is v's color, 0 while v is uncolored
    live = [(1 << k) - 1] * n
    size = [k] * n
    col = [0] * n
    stats = SolveStats()
    nodes = propagations = backtracks = max_depth = 0
    colored = 0  # colored vertices of the current component
    # flat undo log: ~v for an assignment of v, then w, bit for each removal
    # of position bit from live[w]
    trail: list[int] = []
    # Lazy MRV heap of (size[u], u) for uncolored u with 1 < size[u] < k;
    # entries of colored vertices or of stale sizes are skipped on pop.  A
    # full list is picked only when no heap entry is live, from the cursor.
    # At k = 2 every shrink forces, so the heap stays empty.
    heap: list[tuple[int, int]] = []

    def assign_chain(v, c) -> bool:
        # Assign the uncolored v=c, then chase forced singletons, logging
        # undo info; the stack of forced moves is made for the first one.
        nonlocal propagations, colored
        forced = None
        while True:
            col[v] = c
            colored += 1
            trail.append(~v)
            for w in adjacency[v]:
                cw = col[w]
                if cw:
                    if cw == c:
                        return False
                    continue
                options = lists[w]
                if c not in options:
                    continue
                bit = 1 << options.index(c)
                mask = live[w]
                if mask & bit:
                    live[w] = mask = mask ^ bit
                    trail.extend((w, bit))
                    remaining = size[w] = size[w] - 1
                    if remaining == 0:
                        return False
                    if remaining == 1:
                        propagations += 1
                        if forced is None:
                            forced = []
                        forced.append((w, options[mask.bit_length() - 1]))
                    else:
                        heappush(heap, (remaining, w))
            while True:  # the next forced move of a vertex still uncolored
                if not forced:
                    return True
                v, c = forced.pop()
                if not col[v]:
                    break
                if col[v] != c:
                    return False

    try:
        for comp in comps:
            if k == 1:
                # every list is a forced singleton: no search is needed, and
                # no forced move can follow (a one-color list empties when
                # it shrinks)
                for v in comp:
                    propagations += 1
                    if not assign_chain(v, lists[v][0]):
                        return SolveResult(UNCOLORABLE, None, stats, comp)
                continue
            size_c = len(comp)
            switch_at = nodes + _SWITCH_BASE + _SWITCH_PER_VERTEX * size_c
            colored = 0
            trail.clear()
            heap = []
            cur = 0  # no uncolored vertex of comp[:cur] has a full list

            # One frame per branching vertex: [vertex, mask of its untried
            # live positions, trail length and cursor before its tries]; the
            # trail rolled back to its mark is the state the frame was made
            # in, so the cursor is restored with it.  The next vertex is the
            # uncolored one minimizing (size[u], u), colors are tried in
            # ascending order: the order of a chronological recursive search.
            frames: list[list[int]] = []
            descend = True
            while True:
                if descend:
                    if colored == size_c:
                        break
                    if len(heap) > 2 * size_c:
                        # stale entries pile up in long searches; keep memory flat
                        heap = [(size[u], u) for u in comp if not col[u] and size[u] < k]
                        heapify(heap)
                    while heap:
                        s, v = heappop(heap)
                        if not col[v] and size[v] == s:
                            break
                    else:  # every uncolored vertex has a full list
                        while col[comp[cur]]:
                            cur += 1
                        v = comp[cur]
                    nodes += 1
                    if deadline is not None and time.monotonic() > deadline:
                        raise SolveTimeout("solver deadline expired")
                    if nodes > switch_at:
                        switch_at = float("inf")  # the DP runs once
                        coloring = _frontier_dp(comp, adjacency, assignment, stats, deadline)
                        if coloring is None:
                            return SolveResult(UNCOLORABLE, None, stats, comp)
                        if coloring is not False:
                            for u, c in coloring.items():
                                col[u] = c
                            break
                    untried = live[v]
                    frame = [v, untried, len(trail), cur]
                    frames.append(frame)
                    if len(frames) > max_depth:
                        max_depth = len(frames)
                else:
                    frame = frames[-1]
                    v, untried, mark, cur = frame
                    while len(trail) > mark:  # roll the trail back to the mark
                        x = trail.pop()
                        if x < 0:
                            u = ~x
                            col[u] = 0
                            colored -= 1
                            if 1 < size[u] < k:
                                heappush(heap, (size[u], u))
                        else:
                            u = trail.pop()
                            live[u] |= x
                            s = size[u] = size[u] + 1
                            if 1 < s < k:
                                heappush(heap, (s, u))
                    backtracks += 1
                if not untried:
                    frames.pop()
                    if not frames:
                        return SolveResult(UNCOLORABLE, None, stats, comp)
                    descend = False
                    continue
                bit = untried & -untried
                frame[1] = untried ^ bit
                descend = assign_chain(v, lists[v][bit.bit_length() - 1])
        return SolveResult(COLORABLE, {v: col[v] for comp in comps for v in comp}, stats)
    finally:
        stats.nodes += nodes
        stats.propagations += propagations
        stats.backtracks += backtracks
        stats.max_depth = max(stats.max_depth, max_depth)


def brute_force_colorable(g: Graph, assignment: ListAssignment, guard: int = 10**7) -> bool:
    """Exhaustive scan of the product of all lists; test-only oracle.

    Guarded: refuses product spaces larger than `guard` assignments.
    """
    require_lists_for(g, assignment)
    space = 1
    for v in range(g.n):
        space *= len(assignment[v])
        if space > guard:
            raise GuardExceededError(f"product space exceeds guard {guard}")
    edges = list(g.edges)
    for combo in itertools.product(*assignment.lists):
        if all(combo[u] != combo[v] for u, v in edges):
            return True
    return False


def _kept_coloring(witnesses, core, u, adjacency, lists) -> Coloring | None:
    """A coloring of core - u from the kept colorings, or None.

    `witnesses[w]` colors (a superset of) core - w.  The one of w = u does
    as it is; another one does once w gets a color of L(w) that none of its
    neighbors in core - u carries.
    """
    if u in witnesses:
        return witnesses[u]
    for w, coloring in witnesses.items():
        used = {coloring[x] for x in adjacency[w] if x != u and x in core}
        free = next((c for c in lists[w] if c not in used), None)
        if free is not None:
            return {**coloring, w: free}
    return None


def extract_critical(
    g: Graph, assignment: ListAssignment, solved: SolveResult | None = None
) -> tuple[tuple[int, ...], Graph]:
    """Shrink an uncolorable instance to a connected induced critical core.

    Returns (vertices, induced subgraph) where the core F is not colorable
    from its restricted lists but F minus any single vertex is.  Deletions
    are attempted in ascending id order and kept whenever the remainder stays
    uncolorable, restricting to its first uncolorable component (ordered by
    smallest member); the order is fixed so certificates are reproducible.
    The first is g's first uncolorable component, which `solved` (the result
    of `solve(g, assignment)`, searched here when not given) names.  A
    colorable instance raises `CertificateError`.

    Candidates are vertex sets of g's ids: each gets its adjacency restricted
    to it once, and its components are searched in place, so no subgraph or
    sub-assignment is built except the returned one.  A colorable candidate
    core - w keeps its witness, a proper coloring of core - w that stays one
    of every later, smaller core - w.  Before core - u is searched the kept
    colorings are tried: u's own as it is, another w's once w takes a color
    of L(w) that none of its neighbors in core - u carries.  Only explicit
    colorings and searches decide, so the core is the one a search of every
    candidate gives, and each vertex set is searched at most once.
    """
    require_lists_for(g, assignment)
    core = (solve(g, assignment) if solved is None else solved).component
    if core is None:
        raise CertificateError("extract_critical called on a colorable instance")
    # w -> a coloring of (a superset of) core - w; every such w stays in the
    # core, since a coloring of all of it would make it colorable
    witnesses: dict[int, Coloring] = {}
    while True:
        members = set(core)
        for u in core:
            witness = _kept_coloring(witnesses, members, u, g.adjacency, assignment.lists)
            if witness is None:
                inside = members - {u}
                within = {v: tuple(x for x in g.adjacency[v] if x in inside)
                          for v in core if v != u}
                result = _solve_components(components_of(within, within, g.n), within, assignment)
                if not result.colorable:
                    core = result.component
                    break
                witness = result.coloring
            witnesses[u] = witness
        else:
            return core, induced_subgraph(g, core)[0]
