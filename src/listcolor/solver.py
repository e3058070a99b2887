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
from .graphs import Graph, connected_components, induced_subgraph, vertex_set
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

    @property
    def colorable(self) -> bool:
        return self.status == COLORABLE


def verify_coloring(g: Graph, assignment: ListAssignment, coloring: Coloring) -> bool:
    """True iff `coloring` is total, proper, and respects every list."""
    if len(assignment) != g.n:
        raise InvalidParameterError("assignment does not cover the graph")
    if any(v not in coloring for v in range(g.n)):
        raise InvalidParameterError("coloring must be total on V(g)")
    for v in range(g.n):
        if coloring[v] not in assignment[v]:
            return False
    for u, v in g.edges:
        if coloring[u] == coloring[v]:
            return False
    return True


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


def _frontier_dp(order, g, assignment, stats, deadline) -> Coloring | None:
    """Decide a component exactly by processing `order` (ascending ids) and
    keeping the set of proper colorings of the frontier.

    A state packs the frontier's colors into one int, one bit field per
    frontier slot holding 1 + the color's index in its list (0: slot free).
    Each step stores one back-pointer `parent_index * k + color_index` per
    new state; the witness is rebuilt backwards from the final state.
    """
    adjacency, lists, k = g.adjacency, assignment.lists, assignment.k
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


def _solve_component(comp, g, assignment, stats, deadline) -> Coloring | None:
    adjacency = g.adjacency
    switch_at = stats.nodes + _SWITCH_BASE + _SWITCH_PER_VERTEX * len(comp)
    live = {v: set(assignment[v]) for v in comp}
    colors: Coloring = {}
    # Lazy MRV heap: every uncolored vertex has an entry (len(live[u]), u);
    # entries of colored vertices or of stale sizes are skipped on pop.
    heap: list[tuple[int, int]] = []

    def fresh_heap():
        entries = [(len(live[u]), u) for u in comp if u not in colors]
        heapify(entries)
        return entries

    def assign_chain(v0, c0, trail) -> bool:
        # Assign v0=c0, then chase forced singletons; trail records undo info.
        stack = [(v0, c0)]
        while stack:
            v, c = stack.pop()
            if v in colors:
                if colors[v] != c:
                    return False
                continue
            colors[v] = c
            trail.append((None, v, 0))
            for w in adjacency[v]:
                if w in colors:
                    if colors[w] == c:
                        return False
                    continue
                bucket = live[w]
                if c in bucket:
                    bucket.remove(c)
                    trail.append((bucket, w, c))
                    remaining = len(bucket)
                    if remaining == 0:
                        return False
                    if remaining == 1:
                        stats.propagations += 1
                        stack.append((w, next(iter(bucket))))
                    else:
                        heappush(heap, (remaining, w))
        return True

    def undo(trail):
        while trail:
            bucket, v, c = trail.pop()
            if bucket is None:
                del colors[v]
                bucket = live[v]
            else:
                bucket.add(c)
            heappush(heap, (len(bucket), v))

    # settle pre-forced singletons before searching
    trail0 = []
    for v in comp:
        if len(live[v]) == 1 and v not in colors:
            stats.propagations += 1
            if not assign_chain(v, next(iter(live[v])), trail0):
                return None
    heap = fresh_heap()

    # One frame per branching vertex: [vertex, its sorted live colors, index
    # of the next color to try, trail of the current try].  The next vertex
    # is the uncolored one minimizing (len(live[u]), u), colors are tried in
    # ascending order: the order of a chronological recursive search.
    frames: list[list] = []
    descend = True
    while True:
        if descend:
            if len(colors) == len(comp):
                return dict(colors)
            if len(heap) > 2 * len(comp):
                # stale entries pile up in long searches; keep memory flat
                heap = fresh_heap()
            while True:
                size, v = heappop(heap)
                if v not in colors and len(live[v]) == size:
                    break
            stats.nodes += 1
            _check_deadline(deadline)
            if stats.nodes > switch_at:
                switch_at = float("inf")  # the width is computed once
                order = sorted(comp)
                if assignment.k ** _frontier_width(order, adjacency) <= _DP_MAX_STATES:
                    return _frontier_dp(order, g, assignment, stats, deadline)
            frames.append([v, sorted(live[v]), 0, None])
            stats.max_depth = max(stats.max_depth, len(frames))
        frame = frames[-1]
        v, options, i, trail = frame
        if trail is not None:
            undo(trail)
            stats.backtracks += 1
        if i == len(options):
            frames.pop()
            if not frames:
                return None
            descend = False
            continue
        frame[2] = i + 1
        frame[3] = trail = []
        descend = assign_chain(v, options[i], trail)


def solve(g: Graph, assignment: ListAssignment, deadline: float | None = None) -> SolveResult:
    """Decide whether g has a proper coloring drawn from the lists.

    Complete: never reports UNCOLORABLE for a colorable instance.  A
    COLORABLE result carries a witness that passes `verify_coloring`.
    `deadline` (time.monotonic value) is a cooperative budget used by the
    experiment harness; the library default imposes none.
    """
    if len(assignment) != g.n:
        raise InvalidParameterError("assignment must define a list for every vertex")
    stats = SolveStats()
    witness: Coloring = {}
    for comp in connected_components(g):
        part = _solve_component(comp, g, assignment, stats, deadline)
        if part is None:
            return SolveResult(UNCOLORABLE, None, stats)
        witness.update(part)
    return SolveResult(COLORABLE, witness, stats)


def brute_force_colorable(g: Graph, assignment: ListAssignment, guard: int = 10**7) -> bool:
    """Exhaustive scan of the product of all lists; test-only oracle.

    Guarded: refuses product spaces larger than `guard` assignments.
    """
    if len(assignment) != g.n:
        raise InvalidParameterError("assignment must define a list for every vertex")
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


def _first_uncolorable_component(g: Graph, assignment: ListAssignment, vs):
    """The first connected component of g[vs] (ordered by smallest member,
    in g's ids) that is not colorable from its lists, or None."""
    sub, _ = induced_subgraph(g, vs)
    new_to_old = sorted(vs)
    for comp in connected_components(sub):
        original = tuple(new_to_old[i] for i in comp)
        part = sub if len(comp) == sub.n else induced_subgraph(g, original)[0]
        if not solve(part, assignment.restrict(original)).colorable:
            return original
    return None


def extract_critical(g: Graph, assignment: ListAssignment) -> tuple[tuple[int, ...], Graph]:
    """Shrink an uncolorable instance to a connected induced critical core.

    Returns (vertices, induced subgraph) where the core F is not colorable
    from its restricted lists but F minus any single vertex is.  Deletions
    are attempted in ascending id order and kept whenever the remainder stays
    uncolorable, restricting to its first uncolorable component; the order is
    fixed so certificates are reproducible.  Each vertex set is solved once,
    component by component.  A colorable instance raises `CertificateError`.
    """
    core = _first_uncolorable_component(g, assignment, range(g.n))
    if core is None:
        raise CertificateError("extract_critical called on a colorable instance")
    while True:
        for v in core:
            trimmed = tuple(u for u in core if u != v)
            smaller = trimmed and _first_uncolorable_component(g, assignment, trimmed)
            if smaller:
                core = smaller
                break
        else:
            break
    vs = vertex_set(core, g.n)
    sub, _ = induced_subgraph(g, vs)
    return vs, sub
