"""Embed a qualifying multigraph into a k-dense supergraph.

Given chi'(G) = k >= max(Delta(G)+2, n+1), constructs a supergraph G' on an
odd vertex count with exactly k(n'-1)/2 edges, maximum degree at most k-1
and density at most k, keeping G's vertex and edge ids as a prefix; the
caller's k-edge-coloring of G' settles chi'(G') = k.  The construction is
greedy saturation, then local exchange moves (drop one previously added
edge whose ends avoid every maximal k-dense set, add two edges toward
deficient vertices), then an exact maximum-augmentation branch-and-bound
fallback at small n.

Throughout, feasibility of adding an edge uv means: both endpoint degrees
stay below k, and no odd vertex set exceeds density k afterwards.  Since
parallel additions only raise the ratio of sets containing both endpoints,
the incremental check looks at just those sets.  Every check, the premise
check included, is ``_density_violation``: the odd-set walk of
``oracles._walk_odd_sets`` at threshold k, stopped at its first violating
set.  The walk's pruning never drops a violating set, so the checker's
answers, and with them the greedy's choices and the host, are those of
plain enumeration.

Greedy saturation keeps the host's degrees and pair counts in mutable
lists, adds each chosen edge in place, and builds the host Multigraph once
when it stops.  Adding edges never makes an unaddable pair addable again,
so a pair that fails once is not re-checked until an exchange move removes
an edge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import DEFAULT_CONFIG, RunConfig
from .errors import (
    GuaranteeViolationError,
    HypothesisNotMetError,
    InstanceTooLargeError,
)
from .multigraph import Multigraph, serialize
from .oracles import _walk_odd_sets, maximal_k_dense_subgraphs

__all__ = ["ExchangeMove", "EmbeddingReport", "can_add_edge", "embed_k_dense"]


@dataclass(frozen=True)
class ExchangeMove:
    removed: tuple[int, int]
    added: tuple[tuple[int, int], tuple[int, int]]

    def to_doc(self) -> dict:
        return {"removed": list(self.removed), "added": [list(p) for p in self.added]}


@dataclass(frozen=True)
class EmbeddingReport:
    """Audit trail of the embedding: parity fix, additions and exchanges."""

    parity_vertex_added: bool
    added_edges: tuple[tuple[int, int], ...]
    exchange_moves: tuple[ExchangeMove, ...]
    final_n: int
    final_m: int
    k: int

    def to_doc(self) -> dict:
        return {
            "parity_vertex_added": self.parity_vertex_added,
            "added_edges": [list(p) for p in self.added_edges],
            "exchange_moves": [mv.to_doc() for mv in self.exchange_moves],
            "final_n": self.final_n,
            "final_m": self.final_m,
            "k": self.k,
        }


class _Tally:
    """Degrees and pair counts of a growing host, edited in place.

    Holds the three attributes ``n``, ``degrees`` and ``adjacency_counts``
    that the odd-set walk behind ``_density_violation`` reads from a
    Multigraph, so greedy saturation adds an edge in O(1) instead of
    rebuilding and re-validating the whole graph.  ``live`` lists, in
    lexicographic order, the vertex pairs not yet found unaddable: edges
    are only ever added, so degrees and the edge count of every vertex set
    only grow, and a pair once unaddable stays so.
    """

    def __init__(self, graph: Multigraph) -> None:
        self.n = graph.n
        self.m = graph.m
        self.degrees = list(graph.degrees)
        self.adjacency_counts = [list(row) for row in graph.adjacency_counts]
        self.live = [(u, v) for u in range(self.n) for v in range(u + 1, self.n)]

    def add(self, u: int, v: int) -> None:
        self.m += 1
        self.degrees[u] += 1
        self.degrees[v] += 1
        self.adjacency_counts[u][v] += 1
        self.adjacency_counts[v][u] += 1


def _density_violation(
    graph: Multigraph | _Tally,
    k: int,
    *,
    extra: tuple[int, int] | None = None,
    forced: tuple[int, ...] = (),
) -> bool:
    """True when some odd vertex set of size >= 3 (containing ``forced``)
    has 2|E| > k(|S|-1), counting ``extra`` as one additional edge when both
    its ends lie in the set.  Stops the odd-set walk at its first hit."""
    return _walk_odd_sets(
        graph, k, 1, 1, lambda subset, edges: None, extra=extra, forced=forced
    )


def can_add_edge(
    graph: Multigraph, u: int, v: int, k: int, config: RunConfig = DEFAULT_CONFIG
) -> bool:
    """True when adding one edge uv keeps max degree <= k-1 and density <= k."""
    graph._check_vertex(u)
    graph._check_vertex(v)
    if u == v:
        raise ValueError("cannot add a loop edge")
    if graph.n > config.density_max_n:
        raise InstanceTooLargeError(
            f"density checks capped at n = {config.density_max_n}, got {graph.n}"
        )
    if graph.degrees[u] + 1 > k - 1 or graph.degrees[v] + 1 > k - 1:
        return False
    return not _density_violation(graph, k, extra=(u, v))


def _cheapest_addable_pair(host: _Tally, k: int) -> tuple[int, int] | None:
    """The addable pair minimizing its endpoint degree sum (ties: lexicographic).

    Uses the incremental density test: only odd sets containing both new
    endpoints can change, so only those are enumerated.  A pair found not
    addable leaves ``host.live`` and is not tried again.
    """
    deg = host.degrees
    while host.live:
        # the first minimum of the lexicographically ordered list
        sums = [deg[u] + deg[v] for u, v in host.live]
        pair = host.live[sums.index(min(sums))]
        if _addable_incremental(host, *pair, k):
            return pair
        host.live.remove(pair)
    return None


def _addable_incremental(cur: Multigraph | _Tally, u: int, v: int, k: int) -> bool:
    if cur.degrees[u] >= k - 1 or cur.degrees[v] >= k - 1:
        return False
    return not _density_violation(cur, k, extra=(u, v), forced=(u, v))


def _find_exchange(
    cur: Multigraph,
    k: int,
    base_edges: tuple[tuple[int, int], ...],
    added: list[tuple[int, int]],
    config: RunConfig,
) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]] | None:
    """One accepted exchange move, or None.

    Removes a previously added edge (x, y) with both ends outside every
    maximal k-dense set, then adds (x, a) and (y, b) toward deficient
    vertices; both additions must be feasible.
    """
    dense_sets = maximal_k_dense_subgraphs(cur, k, config)
    covered: set[int] = set()
    for s in dense_sets:
        covered.update(s)
    tried: set[tuple[int, int]] = set()
    for e1 in added:
        if e1 in tried:
            continue
        tried.add(e1)
        x, y = e1
        if x in covered or y in covered:
            continue
        trimmed = list(added)
        trimmed.remove(e1)
        g1 = Multigraph(cur.n, base_edges + tuple(trimmed))
        for a in range(cur.n):
            if a == x or g1.degrees[a] >= k - 1:
                continue
            if not _addable_incremental(g1, x, a, k):
                continue
            g2 = g1.with_edge(x, a)
            for b in range(cur.n):
                if b == y or g2.degrees[b] >= k - 1:
                    continue
                if _addable_incremental(g2, y, b, k):
                    return e1, (x, a), (y, b)
    return None


def _exact_max_augmentation(
    base: Multigraph, k: int, target_2m: int
) -> tuple[list[tuple[int, int]], int]:
    """Branch-and-bound over added-edge multisets.

    Maximizes the edge count subject to the degree cap and density cap,
    stopping early once 2m reaches ``target_2m`` (no feasible graph can
    exceed it: the full odd vertex set bounds 2m by k(n-1)).  Returns the
    best additions and the best edge count reached.
    """
    n = base.n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    best_adds: list[tuple[int, int]] = []
    best_m = base.m
    done = False

    def walk(idx: int, cur: Multigraph, adds: list[tuple[int, int]]) -> None:
        nonlocal best_adds, best_m, done
        if done:
            return
        if 2 * cur.m >= target_2m:
            best_adds, best_m, done = list(adds), cur.m, True
            return
        # degree-slot bound: every new edge consumes two residual slots
        slack = sum(k - 1 - d for d in cur.degrees) // 2
        slack = min(slack, (target_2m - 2 * cur.m) // 2)
        if cur.m + slack <= best_m and idx < len(pairs):
            return
        if idx == len(pairs):
            if cur.m > best_m:
                best_adds, best_m = list(adds), cur.m
            return
        u, v = pairs[idx]
        ladder = [cur]
        while _addable_incremental(ladder[-1], u, v, k):
            ladder.append(ladder[-1].with_edge(u, v))
        for copies in range(len(ladder) - 1, -1, -1):
            walk(idx + 1, ladder[copies], adds + [(u, v)] * copies)
            if done:
                return

    walk(0, base, [])
    return best_adds, best_m


def embed_k_dense(
    graph: Multigraph, k: int, config: RunConfig = DEFAULT_CONFIG
) -> tuple[Multigraph, EmbeddingReport]:
    """Construct a k-dense supergraph of ``graph`` with maximum degree < k.

    Requires chi'(graph) = k (caller-certified) and
    k >= max(Delta + 2, n + 1).  Steps:

    1. If n is even, append one isolated vertex (highest index).
    2. Greedily add the cheapest feasible edge until 2m = k(n-1) or stuck.
    3. If stuck, try exchange moves; each accepted move nets one edge.
    4. If still short and n is within the exact cap, run the
       maximum-augmentation branch-and-bound; a shortfall there is a
       guarantee violation and the maximal graph is emitted as certificate.

    On success the original vertex and edge ids survive as a prefix, the
    density stayed at most k after every accepted step, and the result is
    k-dense.  chi'(G') = k is left to the caller's k-edge-coloring of G'.
    """
    delta = graph.max_degree()
    if k < max(delta + 2, graph.n + 1):
        raise HypothesisNotMetError(k, delta + 2, graph.n + 1)
    work_n = graph.n + 1 if graph.n % 2 == 0 else graph.n
    if work_n > config.density_max_n:
        raise InstanceTooLargeError(
            f"embedding needs density checks; capped at n = {config.density_max_n}"
        )
    start = Multigraph(work_n, graph.edges)
    if _density_violation(start, k, extra=None):
        raise ValueError(
            f"input density exceeds {k}; the chromatic-index premise is violated"
        )
    parity = work_n != graph.n
    base_edges = graph.edges
    target = k * (work_n - 1)
    added: list[tuple[int, int]] = []
    moves: list[ExchangeMove] = []
    host = _Tally(start)

    while 2 * host.m < target:
        pair = _cheapest_addable_pair(host, k)
        if pair is not None:
            added.append(pair)
            host.add(*pair)
            continue
        cur = Multigraph(work_n, base_edges + tuple(added))
        move = _find_exchange(cur, k, base_edges, added, config)
        if move is None:
            break
        e1, e2, e3 = move
        added.remove(e1)
        added.extend((e2, e3))
        moves.append(ExchangeMove(e1, (e2, e3)))
        host = _Tally(Multigraph(work_n, base_edges + tuple(added)))

    cur = Multigraph(work_n, base_edges + tuple(added))
    if 2 * cur.m < target:
        if work_n > config.embed_exact_max_n:
            raise InstanceTooLargeError(
                f"greedy and exchange saturation fell short at n = {work_n}, "
                f"beyond the exact fallback cap {config.embed_exact_max_n}"
            )
        exact_adds, exact_m = _exact_max_augmentation(start, k, target)
        if 2 * exact_m < target:
            stuck = Multigraph(work_n, base_edges + tuple(exact_adds))
            raise GuaranteeViolationError(
                "saturation without density: the maximum feasible supergraph "
                f"has {exact_m} edges, short of {target // 2}; this contradicts "
                "the density identity (or is a bug)",
                certificate=serialize(stuck),
            )
        added = exact_adds
        moves = []  # the exact construction supersedes the local search
        cur = Multigraph(work_n, base_edges + tuple(added))

    report = EmbeddingReport(
        parity_vertex_added=parity,
        added_edges=tuple(added),
        exchange_moves=tuple(moves),
        final_n=cur.n,
        final_m=cur.m,
        k=k,
    )
    return cur, report
