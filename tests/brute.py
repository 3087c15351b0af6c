"""Independent brute-force oracles for the test suite.

These deliberately avoid the library's search machinery: subsets come from
itertools.combinations with direct edge recounts, and colorability from
plain index-order enumeration whose conflict checks re-scan the edge list
against the definitions each time.  No orderings, no bitmasks, no bounds.
Use only on tiny instances.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from densecolor import Multigraph


def count_edges_inside(graph: Multigraph, subset) -> int:
    inside = set(subset)
    return sum(1 for u, v in graph.edges if u in inside and v in inside)


def brute_density(graph: Multigraph) -> tuple[Fraction, tuple[int, ...] | None]:
    best = Fraction(0)
    witness = None
    for size in range(3, graph.n + 1, 2):
        for subset in combinations(range(graph.n), size):
            value = Fraction(2 * count_edges_inside(graph, subset), size - 1)
            if value > best:
                best, witness = value, subset
    return best, witness


def brute_smallest_maximizer(graph: Multigraph) -> tuple[int, ...] | None:
    """The smallest tuple, in Python's tuple order, among the odd sets of
    maximum density; None when that density is zero."""
    odd_sets = [
        subset
        for size in range(3, graph.n + 1, 2)
        for subset in combinations(range(graph.n), size)
    ]
    value = {
        s: Fraction(2 * count_edges_inside(graph, s), len(s) - 1) for s in odd_sets
    }
    best = max(value.values(), default=Fraction(0))
    if best == 0:
        return None
    return min(s for s in odd_sets if value[s] == best)


def _edges_share_endpoint(graph: Multigraph, i: int, j: int) -> bool:
    return bool(set(graph.edges[i]) & set(graph.edges[j]))


def edge_colorable(graph: Multigraph, k: int) -> bool:
    colors = [0] * graph.m

    def fill(i: int) -> bool:
        if i == graph.m:
            return True
        for c in range(1, k + 1):
            if any(
                colors[j] == c and _edges_share_endpoint(graph, i, j)
                for j in range(i)
            ):
                continue
            colors[i] = c
            if fill(i + 1):
                return True
            colors[i] = 0
        return False

    return fill(0)


def brute_chromatic_index(graph: Multigraph) -> int:
    k = 0
    while not edge_colorable(graph, k):
        k += 1
    return k


def _total_conflict(graph: Multigraph, a: int, b: int) -> bool:
    """Conflict between total elements (vertices first, then edges)."""
    n = graph.n
    if a < n and b < n:
        return any({u, v} == {a, b} for u, v in graph.edges)
    if a >= n and b >= n:
        return _edges_share_endpoint(graph, a - n, b - n)
    vertex, edge = (a, b - n) if a < n else (b, a - n)
    return vertex in graph.edges[edge]


def total_colorable(graph: Multigraph, k: int) -> bool:
    total = graph.n + graph.m
    colors = [0] * total

    def fill(i: int) -> bool:
        if i == total:
            return True
        for c in range(1, k + 1):
            if any(colors[j] == c and _total_conflict(graph, i, j) for j in range(i)):
                continue
            colors[i] = c
            if fill(i + 1):
                return True
            colors[i] = 0
        return False

    return fill(0)


def brute_total_chromatic(graph: Multigraph) -> int:
    k = 0
    while not total_colorable(graph, k):
        k += 1
    return k


def brute_k_dense_sets(graph: Multigraph, k: int) -> list[tuple[int, ...]]:
    out = []
    for size in range(3, graph.n + 1, 2):
        for subset in combinations(range(graph.n), size):
            if 2 * count_edges_inside(graph, subset) == k * (size - 1):
                out.append(subset)
    return out


def brute_maximal_k_dense(graph: Multigraph, k: int) -> list[tuple[int, ...]]:
    sets = [frozenset(s) for s in brute_k_dense_sets(graph, k)]
    return sorted(tuple(sorted(s)) for s in sets if not any(s < t for t in sets))
