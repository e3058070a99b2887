"""Checks the benchmark makes without trusting listcolor's solver."""

from __future__ import annotations


def two_list_colorable(adjacency, lists) -> bool:
    """Decide colourability from 2-element lists as 2-SAT.

    Variable v picks lists[v][0] or lists[v][1]; literal 2*v + b means "v
    takes lists[v][b]".  For every edge and every colour both ends may take,
    the clause "not both" gives two implications.  The formula is
    satisfiable iff no variable shares a strongly connected component with
    its negation (Aspvall, Plass & Tarjan 1979).  A satisfying choice is
    rebuilt from the component order and checked, so a wrong answer here
    cannot pass silently either.
    """
    n = len(lists)
    succ = [[] for _ in range(2 * n)]
    for u in range(n):
        lu = lists[u]
        if len(lu) != 2:
            raise ValueError("two_list_colorable needs lists of size 2")
        for w in adjacency[u]:
            if w <= u:
                continue
            lw = lists[w]
            for i in (0, 1):
                for j in (0, 1):
                    if lu[i] == lw[j]:
                        succ[2 * u + i].append(2 * w + 1 - j)
                        succ[2 * w + j].append(2 * u + 1 - i)
    comp = _tarjan(succ)
    if any(comp[2 * v] == comp[2 * v + 1] for v in range(n)):
        return False
    # Tarjan numbers components in reverse topological order: take the
    # literal whose component comes later in topological order.
    choice = [0 if comp[2 * v] < comp[2 * v + 1] else 1 for v in range(n)]
    colors = [lists[v][choice[v]] for v in range(n)]
    for u in range(n):
        for w in adjacency[u]:
            if colors[u] == colors[w]:
                raise AssertionError("2-SAT oracle built an improper colouring")
    return True


def _tarjan(succ) -> list[int]:
    """Iterative Tarjan SCC; returns the component index of every node."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    ncomp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, i = work[-1]
            if i < len(succ[v]):
                work[-1] = (v, i + 1)
                w = succ[v][i]
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, 0))
                elif on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
    return comp


def is_proper_list_coloring(adjacency, lists, coloring) -> bool:
    """Total, proper, and every vertex coloured from its own list."""
    n = len(lists)
    if any(v not in coloring for v in range(n)):
        return False
    if any(coloring[v] not in lists[v] for v in range(n)):
        return False
    return all(coloring[u] != coloring[w] for u in range(n) for w in adjacency[u])
