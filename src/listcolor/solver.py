"""Exact decision of colorability from lists.

The solver is complete: backtracking over vertices with forced-move
propagation (a live list shrinking to one color triggers an assignment, to
zero a backtrack) and minimum-remaining-values ordering, ties broken by
vertex id.  Components are solved independently.  Color symmetry is NOT
broken: lists distinguish colors.

The search is iterative, a loop over an explicit stack of frames, so its
depth is limited by memory only, never by the interpreter's recursion limit.
The next vertex comes from a binary heap of (live list size, vertex id)
entries that is invalidated lazily; it is the vertex a full minimum scan
would pick, and colors are tried in ascending order.  `SolveStats` counts
search nodes, forced propagations, backtracks (tries undone after a
failure) and the deepest frame stack.

The search state is indexed by list positions, never by color values: a
vertex's live colors are a bitmask whose bit i stands for the i-th color of
its sorted list (so the lowest bit is the smallest color), with their count
kept beside it; each frame keeps the mask of its untried positions, and the
undo trail is a flat list of ints.  Memory therefore does not grow with
sigma, and the vertex order, the color order and every count are those of
the same search on sets of colors.

The search has a fixed switch point against its heavy tail.  Once a
component's search has spent more than 1000 + 4|C| nodes (a search that
never backtracks uses at most |C|), the component's frontier width w is
computed in ascending-id order: the most processed vertices that still have
an unprocessed neighbor (2r for `power_cycle(n, r)`).  If k^w <= 4096 the
search is dropped and a frontier DP decides the component exactly: it keeps
the set of proper colorings of the frontier, step by step, and rebuilds a
witness from per-step back-pointers.  Otherwise the search goes on where it
stopped.  `SolveStats.nodes` counts search nodes only, `dp_states` the
states the DP built; every instance decided before the switch point is
searched exactly as without it.

`solve` searches components up to the first uncolorable one, which its
result names; `extract_critical` starts there and searches each candidate
vertex set in place by the same loop; colorable candidates keep their
witnesses, which decide later candidates they extend to, so each vertex
set is searched at most once.

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

# The search of a component C switches to the frontier DP after more than
# _SWITCH_BASE + _SWITCH_PER_VERTEX * |C| nodes, if k^w <= _DP_MAX_STATES.
_SWITCH_BASE = 1000
_SWITCH_PER_VERTEX = 4
_DP_MAX_STATES = 4096


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


def _check_deadline(deadline):
    if deadline is not None and time.monotonic() > deadline:
        raise SolveTimeout("solver deadline expired")


def _frontier_width(order, adjacency) -> int:
    """Largest number of processed vertices with an unprocessed neighbor
    while the vertices of a component are processed in ascending order."""
    leaving: dict[int, int] = {}
    size = width = 0
    for v in order:
        last = max(adjacency[v], default=v)
        if last > v:
            size += 1
            leaving[last] = leaving.get(last, 0) + 1
        size -= leaving.pop(v, 0)
        width = max(width, size)
    return width


def _frontier_dp(order, adjacency, assignment, stats, deadline) -> Coloring | None:
    """Decide a component exactly by processing `order` (ascending ids) and
    keeping the set of proper colorings of the frontier.

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
    free = [i * bits for i in range(_frontier_width(order, adjacency))]
    states = [0]
    steps = []
    for v in order:
        _check_deadline(deadline)
        earlier = [(lists[u], shift[u]) for u in adjacency[v] if u < v]
        near = sum(mask << s for _, s in earlier)
        gone = leavers.pop(v, ())
        keep = ~sum(mask << shift[u] for u in gone)
        free.extend(shift.pop(u) for u in gone)
        if v in joins:
            own = shift[v] = free.pop()
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


def _solve_component(comp, adjacency, assignment, stats, deadline) -> Coloring | None:
    """A coloring of the component `comp` from its lists, or None; the
    neighbors of each vertex of comp are `adjacency[v]`."""
    lists, k, n = assignment.lists, assignment.k, len(comp)
    nodes, max_depth = stats.nodes, stats.max_depth
    propagations = backtracks = 0
    switch_at = nodes + _SWITCH_BASE + _SWITCH_PER_VERTEX * n
    # live[v]: bit i set iff lists[v][i] is still live (lists are sorted, so
    # the lowest bit is the smallest color); size[v] counts the set bits
    live = dict.fromkeys(comp, (1 << k) - 1)
    size = dict.fromkeys(comp, k)
    colors: Coloring = {}
    # flat undo log: ~v for an assignment of v, then w, bit for each removal
    # of position bit from live[w]
    trail: list[int] = []
    # Lazy MRV heap: every uncolored vertex has an entry (size[u], u);
    # entries of colored vertices or of stale sizes are skipped on pop.
    heap: list[tuple[int, int]] = []

    def fresh_heap():
        entries = [(size[u], u) for u in comp if u not in colors]
        heapify(entries)
        return entries

    def assign_chain(v0, c0) -> bool:
        # Assign v0=c0, then chase forced singletons, logging undo info.
        nonlocal propagations
        stack = [(v0, c0)]
        while stack:
            v, c = stack.pop()
            if v in colors:
                if colors[v] != c:
                    return False
                continue
            colors[v] = c
            trail.append(~v)
            for w in adjacency[v]:
                if w in colors:
                    if colors[w] == c:
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
                        stack.append((w, options[mask.bit_length() - 1]))
                    else:
                        heappush(heap, (remaining, w))
        return True

    def undo(mark):
        # roll the trail back to length mark
        while len(trail) > mark:
            x = trail.pop()
            if x < 0:
                v = ~x
                del colors[v]
                heappush(heap, (size[v], v))
            else:
                v = trail.pop()
                live[v] |= x
                s = size[v] = size[v] + 1
                heappush(heap, (s, v))

    try:
        # settle pre-forced singletons before searching
        for v in comp:
            if size[v] == 1 and v not in colors:
                propagations += 1
                if not assign_chain(v, lists[v][live[v].bit_length() - 1]):
                    return None
        heap = fresh_heap()

        # One frame per branching vertex: [vertex, mask of its untried live
        # positions, trail length before its tries].  The next vertex is the
        # uncolored one minimizing (size[u], u), colors are tried in
        # ascending order: the order of a chronological recursive search.
        frames: list[list[int]] = []
        descend = True
        while True:
            if descend:
                if len(colors) == n:
                    return colors
                if len(heap) > 2 * n:
                    # stale entries pile up in long searches; keep memory flat
                    heap = fresh_heap()
                while True:
                    s, v = heappop(heap)
                    if v not in colors and size[v] == s:
                        break
                nodes += 1
                _check_deadline(deadline)
                if nodes > switch_at:
                    switch_at = float("inf")  # the width is computed once
                    order = sorted(comp)
                    if k ** _frontier_width(order, adjacency) <= _DP_MAX_STATES:
                        return _frontier_dp(order, adjacency, assignment, stats, deadline)
                frame = [v, live[v], len(trail)]
                frames.append(frame)
                if len(frames) > max_depth:
                    max_depth = len(frames)
            else:
                frame = frames[-1]
                undo(frame[2])
                backtracks += 1
            v, untried, _ = frame
            if not untried:
                frames.pop()
                if not frames:
                    return None
                descend = False
                continue
            bit = untried & -untried
            frame[1] = untried ^ bit
            descend = assign_chain(v, lists[v][bit.bit_length() - 1])
    finally:
        stats.nodes, stats.max_depth = nodes, max_depth
        stats.propagations += propagations
        stats.backtracks += backtracks


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
    its lists, or COLORABLE with a coloring of all of them."""
    stats = SolveStats()
    witness: Coloring = {}
    for comp in comps:
        part = _solve_component(comp, adjacency, assignment, stats, deadline)
        if part is None:
            return SolveResult(UNCOLORABLE, None, stats, comp)
        witness.update(part)
    return SolveResult(COLORABLE, witness, stats)


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
