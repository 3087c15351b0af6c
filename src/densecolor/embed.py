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
the incremental check enumerates just those sets.
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
from .oracles import maximal_k_dense_subgraphs

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


def _density_violation(
    graph: Multigraph,
    k: int,
    *,
    extra: tuple[int, int] | None = None,
    forced: tuple[int, ...] = (),
) -> bool:
    """True when some odd vertex set of size >= 3 (containing ``forced``)
    has 2|E| > k(|S|-1), counting ``extra`` as one additional edge when both
    its ends lie in the set."""
    n = graph.n
    cnt = graph.adjacency_counts
    deg = graph.degrees
    forced_set = sorted(graph._vertex_set(forced))
    candidates = [v for v in range(n) if v not in set(forced_set)]
    to_subset = [0] * n
    inner0 = graph.edges_inside(forced_set)
    for v in candidates:
        to_subset[v] = sum(cnt[v][w] for w in forced_set)
    bonus = 0
    if extra is not None:
        eu, ev = extra
        graph._check_vertex(eu)
        graph._check_vertex(ev)
        bonus = 1  # admissible in bounds; exact when both ends are inside
    subset = list(forced_set)

    def extra_inside() -> int:
        if extra is None:
            return 0
        inside = set(subset)
        return 1 if extra[0] in inside and extra[1] in inside else 0

    def walk(idx: int, inner: int) -> bool:
        size = len(subset)
        if size >= 3 and size % 2 == 1:
            if 2 * (inner + extra_inside()) > k * (size - 1):
                return True
        if idx == len(candidates):
            return False
        pool = sorted((deg[candidates[i]] for i in range(idx, len(candidates))), reverse=True)
        gain = 0
        reachable = False
        for more in range(len(pool) + 1):
            total = size + more
            if total >= 3 and total % 2 == 1 and 2 * (inner + gain + bonus) > k * (total - 1):
                reachable = True
                break
            if more < len(pool):
                gain += pool[more]
        if not reachable:
            return False
        for i in range(idx, len(candidates)):
            v = candidates[i]
            added = to_subset[v]
            subset.append(v)
            row = cnt[v]
            for j in range(i + 1, len(candidates)):
                to_subset[candidates[j]] += row[candidates[j]]
            hit = walk(i + 1, inner + added)
            for j in range(i + 1, len(candidates)):
                to_subset[candidates[j]] -= row[candidates[j]]
            subset.pop()
            if hit:
                return True
        return False

    return walk(0, inner0)


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


def _cheapest_addable_pair(
    cur: Multigraph, k: int
) -> tuple[int, int] | None:
    """The addable pair minimizing its endpoint degree sum (ties: lexicographic).

    Uses the incremental density test: only odd sets containing both new
    endpoints can change, so only those are enumerated.
    """
    deg = cur.degrees
    pairs = sorted(
        ((u, v) for u in range(cur.n) for v in range(u + 1, cur.n)),
        key=lambda p: (deg[p[0]] + deg[p[1]], p[0], p[1]),
    )
    for u, v in pairs:
        if deg[u] >= k - 1 or deg[v] >= k - 1:
            continue
        if not _density_violation(cur, k, extra=(u, v), forced=(u, v)):
            return (u, v)
    return None


def _addable_incremental(cur: Multigraph, u: int, v: int, k: int) -> bool:
    if cur.degrees[u] >= k - 1 or cur.degrees[v] >= k - 1:
        return False
    return not _density_violation(cur, k, extra=(u, v), forced=(u, v))


def _find_exchange(
    cur: Multigraph,
    k: int,
    base_edges: tuple[tuple[int, int], ...],
    added: list[tuple[int, int]],
    seen: set[tuple[tuple[int, int], ...]],
    config: RunConfig,
) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]] | None:
    """One accepted exchange move, or None.

    Removes a previously added edge (x, y) with both ends outside every
    maximal k-dense set, then adds (x, a) and (y, b) toward deficient
    vertices; both additions must be feasible and the resulting edge
    multiset must be unseen.
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
                if not _addable_incremental(g2, y, b, k):
                    continue
                outcome = tuple(sorted(trimmed + [(x, a), (y, b)]))
                if outcome in seen:
                    continue
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
    cur = start
    seen: set[tuple[tuple[int, int], ...]] = {tuple(sorted(added))}

    while 2 * cur.m < target:
        pair = _cheapest_addable_pair(cur, k)
        if pair is not None:
            added.append(pair)
            cur = Multigraph(work_n, base_edges + tuple(added))
            seen.add(tuple(sorted(added)))
            continue
        move = _find_exchange(cur, k, base_edges, added, seen, config)
        if move is None:
            break
        e1, e2, e3 = move
        added.remove(e1)
        added.extend((e2, e3))
        moves.append(ExchangeMove(e1, (e2, e3)))
        cur = Multigraph(work_n, base_edges + tuple(added))
        seen.add(tuple(sorted(added)))

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
