"""Independent brute-force oracles for the test suite.

These deliberately avoid the library's search machinery: subsets come from
itertools.combinations with direct edge recounts, and colorability from
plain index-order enumeration whose conflict checks re-scan the edge list
against the definitions each time.  No orderings, no bitmasks, no bounds;
the total enumeration only skips color relabelings (first-use rule).
Use only on tiny instances.  Two exceptions run on larger inputs:
``brute_find_exchange``, the earlier exchange rule, which tests each
addition with the library's odd-set walk (``can_add_edge``, itself checked
against recounting) so that it runs on the hosts where greedy stalls; and
``reference_walk_odd_sets``, the odd-set walk before its branch cuts,
against which the library's walk is checked call by call.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from densecolor import Multigraph, can_add_edge, maximal_k_dense_subgraphs


@lru_cache(maxsize=1)
def exhaustive_small_multigraphs() -> tuple[Multigraph, ...]:
    """Every loopless multigraph with n <= 4, m <= 8 and per-pair
    multiplicity <= 3 (plain enumeration over multiplicity vectors)."""
    out: list[Multigraph] = [Multigraph(0, ()), Multigraph(1, ())]
    for n in range(2, 5):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for vec in product(range(4), repeat=len(pairs)):
            if sum(vec) > 8:
                continue
            edges: list[tuple[int, int]] = []
            for pair, count in zip(pairs, vec):
                edges.extend([pair] * count)
            out.append(Multigraph(n, tuple(edges)))
    return tuple(out)


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


def brute_is_proper(graph: Multigraph, edge_colors, vertex_colors=None) -> bool:
    """Every two conflicting elements differ in color: the edges only, or
    the vertices too when ``vertex_colors`` is given."""
    color = {graph.n + eid: c for eid, c in enumerate(edge_colors)}
    if vertex_colors is not None:
        color.update(enumerate(vertex_colors))
    return not any(
        color[a] == color[b] and _total_conflict(graph, a, b)
        for a, b in combinations(sorted(color), 2)
    )


def total_colorable(graph: Multigraph, k: int) -> bool:
    """Index-order enumeration under the first-use rule: an element takes
    at most one color beyond those already used, since relabeling the
    colors of a proper coloring by first use keeps it proper."""
    total = graph.n + graph.m
    colors = [0] * total

    def fill(i: int) -> bool:
        if i == total:
            return True
        for c in range(1, min(k, max(colors[:i], default=0) + 1) + 1):
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


def brute_peel(graph: Multigraph, k: int) -> tuple[int, ...]:
    """The host route's peel order at palette k >= Delta + 2 by plain
    re-scanning: again and again the lowest-index vertex left whose edges
    to the vertices left, recounted from the edge list, number at most
    k - Delta."""
    cap = k - graph.max_degree()
    left = list(range(graph.n))
    order: list[int] = []
    while True:
        ready = [
            v
            for v in left
            if sum(v in e and e[0] in left and e[1] in left for e in graph.edges) <= cap
        ]
        if not ready:
            return tuple(order)
        order.append(ready[0])
        left.remove(ready[0])


def _within_density(count: list[list[int]], k: int) -> bool:
    """2|E(S)| <= k(|S|-1) on every odd set S of at least three vertices."""
    n = len(count)
    return all(
        2 * sum(count[a][b] for a, b in combinations(s, 2)) <= k * (size - 1)
        for size in range(3, n + 1, 2)
        for s in combinations(range(n), size)
    )


def _addable(count: list[list[int]], deg: list[int], u: int, v: int, k: int) -> bool:
    """Adding uv keeps every degree below k and the density at most k."""
    if max(deg[u], deg[v]) + 1 >= k:
        return False
    count[u][v] += 1
    count[v][u] += 1
    ok = _within_density(count, k)
    count[u][v] -= 1
    count[v][u] -= 1
    return ok


def _counts(n: int, edges) -> tuple[list[list[int]], list[int]]:
    count = [[0] * n for _ in range(n)]
    deg = [0] * n
    for u, v in edges:
        count[u][v] += 1
        count[v][u] += 1
        deg[u] += 1
        deg[v] += 1
    return count, deg


def brute_greedy_host(
    graph: Multigraph, k: int
) -> tuple[Multigraph, tuple[tuple[int, int], ...]]:
    """Greedy saturation from the definitions, as a reference for
    ``embed_k_dense`` without exchange moves.

    Pads to an odd vertex count, then repeatedly adds the first pair, by
    endpoint degree sum and then lexicographically, whose addition keeps
    every degree below k and 2|E(S)| <= k(|S|-1) on every odd set S of at
    least three vertices, each recounted after the trial addition.  Stops
    at k(n-1)/2 edges or when no pair is addable.  Returns the host and the
    added pairs in order.
    """
    n = graph.n + 1 - graph.n % 2
    count, deg = _counts(n, graph.edges)
    added: list[tuple[int, int]] = []
    while 2 * (graph.m + len(added)) < k * (n - 1):
        pairs = sorted(
            ((u, v) for u in range(n) for v in range(u + 1, n)),
            key=lambda p: (deg[p[0]] + deg[p[1]], p),
        )
        for u, v in pairs:
            if _addable(count, deg, u, v, k):
                break
        else:
            break
        count[u][v] += 1
        count[v][u] += 1
        deg[u] += 1
        deg[v] += 1
        added.append((u, v))
    return Multigraph(n, graph.edges + tuple(added)), tuple(added)


def brute_saturate(graph: Multigraph, k: int) -> list[tuple[int, int]]:
    """Greedy additions to ``graph`` by a min-key loop, from any entry state
    (odd n, density at most k, degrees below k).

    ``keys`` holds degree sum * P + lexicographic rank for each of the P
    pairs, so one ``min`` finds the next pair; a pair found not addable,
    recounted from the definitions, gets the key ``dead`` for good, and an
    added pair's ends bump the keys of every pair holding them.  Stops at
    k(n-1)/2 edges or when every key is dead.
    """
    n = graph.n
    count, deg = _counts(n, graph.edges)
    missing = k * (n - 1) // 2 - graph.m
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    size = len(pairs)
    keys = [(deg[u] + deg[v]) * size + p for p, (u, v) in enumerate(pairs)]
    dead = 2 * k * size  # above every live key, even after bumps
    added: list[tuple[int, int]] = []
    while len(added) < missing:
        key = min(keys)
        if key >= dead:
            break
        p = key % size
        u, v = pairs[p]
        if not _addable(count, deg, u, v, k):
            keys[p] = dead
            continue
        added.append((u, v))
        count[u][v] += 1
        count[v][u] += 1
        deg[u] += 1
        deg[v] += 1
        for q, pair in enumerate(pairs):
            keys[q] += size * ((u in pair) + (v in pair))
    return added


def brute_find_exchange(
    cur: Multigraph, k: int, added: list[tuple[int, int]]
) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]] | None:
    """The exchange move as first implemented, each addition tested by a
    density walk of the host rebuilt with it: drop the first distinct
    added pair (x, y) with both ends outside every maximal k-dense set,
    then add the first (x, a), and after it the first (y, b), that keep
    every degree below k - 1 and the density at most k."""
    covered = {v for s in maximal_k_dense_subgraphs(cur, k) for v in s}
    for x, y in dict.fromkeys(added):
        if x in covered or y in covered:
            continue
        trimmed = list(cur.edges)
        trimmed.remove((x, y))
        g1 = Multigraph(cur.n, tuple(trimmed))
        for a in range(cur.n):
            if a == x or not can_add_edge(g1, x, a, k):
                continue
            g2 = g1.with_edge(x, a)
            for b in range(cur.n):
                if b != y and can_add_edge(g2, y, b, k):
                    return (x, y), (x, a), (y, b)
    return None


def reference_walk_odd_sets(
    graph,
    num: int,
    den: int,
    slack: int,
    on_hit: Callable[[list[int], int], tuple[int, int] | None],
    *,
    forced: tuple[int, ...] = (),
) -> bool:
    """``oracles._walk_odd_sets`` as it was before its branch cuts: the
    same walk, hits and callback contract, with a bound that drops only a
    whole node (no hit is left when den * 2|E(P)| - num * (|P| - 1), plus
    the positive terms den * (t(w) + d(w)) - num, stays below ``slack``)."""
    cnt = graph.adjacency_counts
    deg = graph.degrees
    subset = sorted(set(forced))
    gap = den * max(deg, default=0) - num
    lone = gap <= 0 and 2 * gap < slack  # no hit holds a vertex of degree 0
    candidates = [
        v for v in range(graph.n) if v not in subset and (deg[v] or not lone)
    ]
    to_subset = [sum(col) for col in zip([0] * graph.n, *(cnt[w] for w in subset))]
    last = len(candidates)

    def walk(idx: int, size: int, inner: int) -> bool:
        nonlocal num, den
        if size >= 3 and size % 2 == 1:
            if den * 2 * inner - num * (size - 1) >= slack:
                threshold = on_hit(subset, inner)
                if threshold is None:
                    return True
                num, den = threshold
        if idx == last:
            return False
        cut = num // den
        top, picked = 2 * inner, 0
        for w in candidates[idx:]:
            x = to_subset[w] + deg[w]
            if x > cut:
                top += x
                picked += 1
        if den * top - num * (size - 1 + picked) < slack:
            return False
        for i in range(idx, last):
            v = candidates[i]
            row = cnt[v]
            later = candidates[i + 1 :]
            for w in later:
                to_subset[w] += row[w]
            subset.append(v)
            hit = walk(i + 1, size + 1, inner + to_subset[v])
            subset.pop()
            for w in later:
                to_subset[w] -= row[w]
            if hit:
                return True
        return False

    return walk(0, len(subset), sum(to_subset[v] for v in subset) // 2)


def walk_calls(walk, graph, num, den, slack, make_on_hit, forced=()):
    """Run ``walk`` with a fresh callback from ``make_on_hit``; returns its
    ``on_hit`` calls, each (subset, edges, returned threshold), and its
    result."""
    on_hit = make_on_hit()
    calls = []

    def recorded(subset, edges):
        threshold = on_hit(subset, edges)
        calls.append((tuple(subset), edges, threshold))
        return threshold

    return calls, walk(graph, num, den, slack, recorded, forced=forced)
