"""Instance generators and the named fixture corpus."""

from __future__ import annotations

import random

from .multigraph import Multigraph

__all__ = [
    "gen_fat_cycle",
    "gen_random_multigraph",
    "cycle",
    "complete",
    "disjoint_union",
    "fixture",
    "fixture_names",
]


def gen_fat_cycle(n_odd: int, mult: int) -> Multigraph:
    """Cycle on an odd number of vertices, each edge replaced by ``mult``
    parallel edges."""
    if n_odd < 3 or n_odd % 2 == 0:
        raise ValueError(f"fat cycles need an odd vertex count >= 3, got {n_odd}")
    if mult < 1:
        raise ValueError(f"multiplicity must be at least 1, got {mult}")
    pairs = []
    for i in range(n_odd):
        pairs.extend([(i, (i + 1) % n_odd)] * mult)
    return Multigraph(n_odd, tuple(pairs))


def gen_random_multigraph(n: int, m: int, mult_cap: int, seed: int) -> Multigraph:
    """Uniformly sampled m-edge loopless multigraph with per-pair
    multiplicity at most ``mult_cap``; deterministic for a fixed seed."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    if m < 0:
        raise ValueError(f"edge count must be nonnegative, got {m}")
    if mult_cap < 1:
        raise ValueError(f"multiplicity cap must be at least 1, got {mult_cap}")
    slots = [
        (u, v) for u in range(n) for v in range(u + 1, n) for _ in range(mult_cap)
    ]
    if m > len(slots):
        raise ValueError(
            f"infeasible: {m} edges exceed mult_cap * C(n,2) = {len(slots)}"
        )
    rng = random.Random(seed)
    chosen = sorted(rng.sample(slots, m))
    return Multigraph(n, tuple(chosen))


def cycle(n: int) -> Multigraph:
    if n < 3:
        raise ValueError(f"cycles need at least 3 vertices, got {n}")
    return Multigraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> Multigraph:
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    return Multigraph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def disjoint_union(a: Multigraph, b: Multigraph) -> Multigraph:
    shifted = tuple((u + a.n, v + a.n) for u, v in b.edges)
    return Multigraph(a.n + b.n, a.edges + shifted)


def _t2_plus_isolated(count: int) -> Multigraph:
    t2 = gen_fat_cycle(3, 2)
    return Multigraph(t2.n + count, t2.edges)


_FIXTURES = {
    "k2": lambda: complete(2),
    "k3": lambda: complete(3),
    "k4": lambda: complete(4),
    "c5": lambda: cycle(5),
    "c6": lambda: cycle(6),
    "t2": lambda: gen_fat_cycle(3, 2),
    "fat-c3-m3": lambda: gen_fat_cycle(3, 3),
    "fat-c5-m3": lambda: gen_fat_cycle(5, 3),
    "fat-c5-m4": lambda: gen_fat_cycle(5, 4),
    "t2-k1": lambda: _t2_plus_isolated(1),
    "t2-2k1": lambda: _t2_plus_isolated(2),
    "t2-t2": lambda: disjoint_union(gen_fat_cycle(3, 2), gen_fat_cycle(3, 2)),
    # greedy embedding at k = 6 fills the isolated pair and needs one
    # exchange move to finish the host
    "2k1-t2": lambda: disjoint_union(Multigraph(2, ()), gen_fat_cycle(3, 2)),
}


def fixture(name: str) -> Multigraph:
    """Build a corpus graph by name; every worked example is reproducible."""
    try:
        return _FIXTURES[name]()
    except KeyError:
        raise ValueError(
            f"unknown fixture {name!r}; known: {', '.join(fixture_names())}"
        ) from None


def fixture_names() -> list[str]:
    return sorted(_FIXTURES)
