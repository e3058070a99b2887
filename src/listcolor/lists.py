"""Color lists and the uniform random (k, C)-list sampler.

Each vertex independently receives a uniformly random k-subset of the color
universe {1..sigma}.  Colors are positive integers.  Sampling is a pure
function of a SeedSpec, so trials are reproducible and order-independent
under parallel execution.  The sampler replays, draw for draw from
`getrandbits`, what `random.Random.sample(range(1, sigma + 1), k)` would draw,
so its stream is the one that records.csv was pinned to.

`ListAssignment(sigma, k, lists)` validates every list; the sampler, whose
lists are valid by construction, builds through the private
`ListAssignment._trusted` instead.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable

from .errors import InvalidParameterError, ListParseError
from .graphs import Graph

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a strong 64-bit avalanche."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(base_seed: int, *components: int) -> int:
    """Fold integer components into a base seed, one avalanche per step."""
    h = _mix64(base_seed)
    for c in components:
        h = _mix64((h + _GOLDEN + _mix64(c & _MASK64)) & _MASK64)
    return h


@dataclass(frozen=True)
class SeedSpec:
    """Names one trial's random stream: pure function of both fields."""

    base_seed: int
    trial_index: int = 0

    def __post_init__(self):
        if self.trial_index < 0:
            raise InvalidParameterError("trial_index must be non-negative")

    def stream_seed(self) -> int:
        return derive_seed(self.base_seed, self.trial_index)

    def generator(self) -> random.Random:
        return random.Random(self.stream_seed())


class ListAssignment:
    """Per-vertex sorted color sets of uniform size k drawn from {1..sigma}."""

    __slots__ = ("sigma", "k", "lists")

    def __init__(self, sigma: int, k: int, lists: Iterable[Iterable[int]]):
        if k < 1:
            raise InvalidParameterError("list size k must be >= 1")
        if k > sigma:
            raise InvalidParameterError(f"list size k={k} exceeds sigma={sigma}")
        norm = []
        for v, lst in enumerate(lists):
            t = tuple(sorted(lst))
            if len(t) != k or len(set(t)) != k:
                raise InvalidParameterError(
                    f"vertex {v}: list must hold exactly {k} distinct colors, got {t}"
                )
            if t[0] < 1 or t[-1] > sigma:
                raise InvalidParameterError(
                    f"vertex {v}: colors must lie in 1..{sigma}, got {t}"
                )
            norm.append(t)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "lists", tuple(norm))

    def __setattr__(self, name, value):
        raise AttributeError("ListAssignment is immutable")

    def __reduce__(self):
        return (ListAssignment, (self.sigma, self.k, self.lists))

    def __eq__(self, other):
        return (
            isinstance(other, ListAssignment)
            and (self.sigma, self.k, self.lists) == (other.sigma, other.k, other.lists)
        )

    def __hash__(self):
        return hash((self.sigma, self.k, self.lists))

    def __repr__(self):
        return f"ListAssignment(sigma={self.sigma}, k={self.k}, n={len(self.lists)})"

    def __len__(self):
        return len(self.lists)

    def __getitem__(self, v: int) -> tuple[int, ...]:
        return self.lists[v]

    @classmethod
    def _trusted(cls, sigma: int, k: int, lists: tuple[tuple[int, ...], ...]) -> "ListAssignment":
        """Wrap lists known to be sorted tuples of k distinct colors in 1..sigma."""
        self = object.__new__(cls)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "lists", lists)
        return self


def sample_assignment(g: Graph, k: int, sigma: int, seed: SeedSpec) -> ListAssignment:
    """Draw each vertex's list uniformly from the C(sigma, k) k-subsets.

    Deterministic given `seed`; independent across vertices.  For each vertex
    in turn the draws replay exactly those of CPython's pure-Python
    `random.Random.sample(range(1, sigma + 1), k)` on `seed.generator()`:
    every index is drawn by rejection from `getrandbits`, from a partial
    Fisher-Yates pool when sigma is at most sample's set-size switch (21,
    more when k > 5) and otherwise by redrawing colors already chosen.  Each
    list is returned sorted.  k = 2 takes its own loop over the same draws,
    which keeps no pool, set or sort per vertex.  The lists are
    valid by construction, so the result is built without the per-vertex
    checks of the public `ListAssignment` constructor; k and sigma are
    checked here, before any draw.
    """
    if k < 1:
        raise InvalidParameterError(f"list size k must be >= 1, got {k}")
    if k > sigma:
        raise InvalidParameterError(f"k={k} exceeds sigma={sigma}")
    getrandbits = seed.generator().getrandbits
    setsize = 21  # random.sample's switch between its two methods
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    lists = []
    append = lists.append  # bound once: the loops below run n times
    if k == 2:
        # the same draws as the general loops, with no pool, set or sort
        bits = sigma.bit_length()
        if sigma <= setsize:
            rest, rest_bits = sigma - 1, (sigma - 1).bit_length()
            for _ in range(g.n):
                a = getrandbits(bits)
                while a >= sigma:
                    a = getrandbits(bits)
                b = getrandbits(rest_bits)
                while b >= rest:
                    b = getrandbits(rest_bits)
                # the pool moved its last color, sigma, into the slot of a
                b = sigma if b == a else b + 1
                a += 1
                append((a, b) if a < b else (b, a))
        else:
            for _ in range(g.n):
                a = getrandbits(bits)
                while a >= sigma:
                    a = getrandbits(bits)
                b = getrandbits(bits)
                while b >= sigma or b == a:
                    b = getrandbits(bits)
                a += 1
                b += 1
                append((a, b) if a < b else (b, a))
    elif sigma <= setsize:
        universe = list(range(1, sigma + 1))
        draws = [(sigma - i, (sigma - i).bit_length()) for i in range(k)]
        for _ in range(g.n):
            pool = universe[:]  # pool[:size] holds the colors not drawn yet
            chosen = []
            for size, bits in draws:
                j = getrandbits(bits)
                while j >= size:
                    j = getrandbits(bits)
                chosen.append(pool[j])
                pool[j] = pool[size - 1]
            chosen.sort()
            append(tuple(chosen))
    else:
        bits = sigma.bit_length()
        later_draws = range(k - 1)
        for _ in range(g.n):
            c = getrandbits(bits) + 1
            while c > sigma:
                c = getrandbits(bits) + 1
            chosen = {c}  # the first draw cannot repeat a color
            for _ in later_draws:
                c = getrandbits(bits) + 1
                while c > sigma or c in chosen:
                    c = getrandbits(bits) + 1
                chosen.add(c)
            append(tuple(sorted(chosen)))
    return ListAssignment._trusted(sigma, k, tuple(lists))


def prob_identical_lists(clique_size: int, k: int, sigma: int) -> float:
    """Probability that all lists in a fixed clique coincide: C(sigma,k)^-(size-1)."""
    if clique_size < 2:
        raise InvalidParameterError("clique_size must be >= 2")
    if k > sigma:
        raise InvalidParameterError(f"k={k} exceeds sigma={sigma}")
    return math.comb(sigma, k) ** -(clique_size - 1)


# ---------------------------------------------------------------------------
# text format
#
# Header `sigma=<sigma> k=<k>`, then one line `<vertex>: c1 c2 ... ck` per
# vertex with ascending colors.


def write_lists(assignment: ListAssignment) -> str:
    lines = [f"sigma={assignment.sigma} k={assignment.k}"]
    for v, lst in enumerate(assignment.lists):
        lines.append(f"{v}: " + " ".join(str(c) for c in lst))
    return "\n".join(lines) + "\n"


def read_lists(text: str, g: Graph) -> ListAssignment:
    sigma = k = None
    by_vertex: dict[int, tuple[int, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if sigma is None:
            parts = line.split()
            try:
                head = dict(p.split("=", 1) for p in parts)
                sigma, k = int(head["sigma"]), int(head["k"])
            except (ValueError, KeyError):
                raise ListParseError(
                    f"line {lineno}: expected header 'sigma=<s> k=<k>', got {line!r}"
                ) from None
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise ListParseError(f"line {lineno}: expected '<vertex>: colors', got {line!r}")
        try:
            v = int(head)
            colors = tuple(int(c) for c in tail.split())
        except ValueError:
            raise ListParseError(f"line {lineno}: non-integer token in {line!r}") from None
        if not 0 <= v < g.n:
            raise ListParseError(f"vertex {v} out of range [0, {g.n})")
        if v in by_vertex:
            raise ListParseError(f"vertex {v} listed twice")
        if len(colors) != k or len(set(colors)) != len(colors):
            raise ListParseError(
                f"vertex {v}: expected {k} distinct colors, got {len(colors)}"
            )
        if any(c < 1 or c > sigma for c in colors):
            raise ListParseError(f"vertex {v}: color out of range 1..{sigma}")
        by_vertex[v] = tuple(sorted(colors))
    if sigma is None:
        raise ListParseError("missing 'sigma=<s> k=<k>' header")
    missing = [v for v in range(g.n) if v not in by_vertex]
    if missing:
        raise ListParseError(f"vertex {missing[0]} missing from assignment")
    return ListAssignment(sigma, k, [by_vertex[v] for v in range(g.n)])
