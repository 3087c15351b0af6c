"""Exact desk-scale oracles.

Computes the density (maximum of 2|E(H)|/(|V(H)|-1) over odd vertex subsets
of size at least three), the chromatic index and the total chromatic number
by exhaustive backtracking, enumerates k-dense vertex sets, tests edge
criticality, and cross-checks the density identity chi' = ceil(rho) for
graphs with chi' > Delta + 1.

Every odd-set question (density, k-dense sets, the embedding's feasibility
check) goes through one pruned lexicographic walk, ``_walk_odd_sets``.

``chromatic_index`` holds the host route, and the proof of each of its
rules (the pre-walk attempt, own hosts, peeling).

Every returned number comes with a machine-checkable witness, which the
step that builds it checks once (``_checked``, or on the host route the
step ``_add_back`` names), and every "no smaller palette exists" claim is
certified by an exhausted search (or by a bound that makes the search
unnecessary: the max degree or the density).  Caps and the node budget
are explicit errors, never silent truncation.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .coloring import (
    EdgeColoring,
    TotalColoring,
    coloring_to_doc,
    is_proper_edge_coloring,
    is_proper_total_coloring,
)
from .config import DEFAULT_CONFIG, RunConfig
from .errors import (
    BudgetExceededError,
    GuaranteeViolationError,
    HypothesisNotMetError,
    InstanceTooLargeError,
)
from .multigraph import Multigraph, serialize

if TYPE_CHECKING:
    from .embed import DenseHost

__all__ = [
    "DensityWitness",
    "ChromaticCertificate",
    "DensityIdentityReport",
    "density",
    "chromatic_index",
    "total_chromatic_number",
    "find_k_edge_coloring",
    "is_k_dense",
    "maximal_k_dense_subgraphs",
    "gs_verify",
    "is_edge_critical",
]


def _exhausted(limit: int) -> BudgetExceededError:
    """The error of a search that would spend more than ``limit`` nodes."""
    return BudgetExceededError(f"search budget of {limit} nodes exhausted")


def _checked(graph: Multigraph, witness: EdgeColoring | TotalColoring):
    """``witness``, once it is a proper coloring of ``graph``; a clash is a
    bug, and raises with the graph as certificate."""
    if isinstance(witness, TotalColoring):
        proper = is_proper_total_coloring(graph, witness)
    else:
        proper = is_proper_edge_coloring(graph, witness)
    if not proper:
        raise GuaranteeViolationError(
            "solver produced an improper coloring; this is a bug",
            certificate=serialize(graph),
        )
    return witness


@dataclass(frozen=True)
class DensityWitness:
    """Exact density value with a maximizing odd vertex set.

    ``value`` is the exact rational 2|E(H)|/(|V(H)|-1) of the best subset;
    ``witness`` is the lexicographically smallest maximizer, or ``None``
    when the value is zero (fewer than three vertices, or no edges).
    """

    value: Fraction
    witness: tuple[int, ...] | None

    def to_doc(self) -> dict:
        return {
            "value": str(self.value),
            "witness": list(self.witness) if self.witness is not None else None,
        }


@dataclass(frozen=True)
class ChromaticCertificate:
    """An exact chromatic quantity plus the witness coloring.

    ``lower_bound_reason`` records why k-1 colors are impossible:
    ``max-degree`` (k equals the maximum degree, or Delta+1 for the total
    number), ``density`` (k equals the density ceiling), or ``exhaustion``
    (the k-1 search ran to completion without a coloring).  On the host
    route of :func:`chromatic_index`, ``host`` is the k-dense host, with
    its coloring, of G's core, which is G itself when ``peeled`` is empty;
    ``peeled`` lists the vertices of G taken off before embedding, in peel
    order; and ``total`` is the checked total k-coloring of G that the
    route built from the host, whose edge part is the witness.  Off the
    host route ``host`` and ``total`` are None.  The three stay out of the
    document.
    """

    quantity: str
    k: int
    witness: EdgeColoring | TotalColoring
    lower_bound_reason: str
    search_nodes: int
    host: DenseHost | None = field(default=None, repr=False, compare=False)
    peeled: tuple[int, ...] = field(default=(), repr=False, compare=False)
    total: TotalColoring | None = field(default=None, repr=False, compare=False)

    def to_doc(self) -> dict:
        return {
            "quantity": self.quantity,
            "k": self.k,
            "lower_bound_reason": self.lower_bound_reason,
            "search_nodes": self.search_nodes,
            "coloring": coloring_to_doc(self.witness),
        }


@dataclass(frozen=True)
class DensityIdentityReport:
    """Outcome of the chi' = ceil(rho) cross-check."""

    ok: bool
    vacuous: bool
    chi_prime: int
    delta: int
    rho: Fraction
    ceil_rho: int

    def to_doc(self) -> dict:
        return {
            "ok": self.ok,
            "vacuous": self.vacuous,
            "chi_prime": self.chi_prime,
            "delta": self.delta,
            "rho": str(self.rho),
            "ceil_rho": self.ceil_rho,
        }


def _walk_odd_sets(
    graph,
    num: int,
    den: int,
    slack: int,
    on_hit: Callable[[list[int], int], tuple[int, int] | None],
    *,
    forced: tuple[int, ...] = (),
) -> bool:
    """Report the odd vertex sets whose ratio reaches the threshold num/den.

    Walks the odd sets S, |S| >= 3, that contain ``forced``, adding the
    other vertices depth first in index order (lexicographic order when
    nothing is forced).  Let e be the edges inside S.  S is a hit when
    den * 2e - num * (|S| - 1) >= ``slack``, and then ``on_hit(S, e)``
    returns the threshold (num, den) for the rest of the walk, never lower
    than the one it was hit at, or None to stop it.  Returns True when
    ``on_hit`` stopped the walk.

    A branch at the partial set P is dropped when no set it reaches can be
    a hit.  With t(w) the edges from a remaining candidate w into P, any
    P + R has 2|E(P + R)| <= 2|E(P)| + sum over w in R of (t(w) + d(w)):
    an edge inside R is counted at both ends, each time among the
    d(w) - t(w) edges of that end not into P.  So no hit is left when
    den * 2|E(P)| - num * (|P| - 1), plus the positive terms
    den * (t(w) + d(w)) - num, stays below ``slack``.  Reads only ``n``,
    ``degrees`` and ``adjacency_counts``; vertices are not range-checked.

    Parity.  On an odd S, |S| - 1 is even, so the value
    den * 2e - num * (|S| - 1) is even, and a hit's value reaches need,
    ``slack`` rounded up to even (2 at slack 1, 0 at slack 0).  So no hit
    is left already when that bound stays below need, and the cuts below
    compare with need where the hit test compares with ``slack``.

    The same sum also cuts single branches.  With g(w) =
    den * (t(w) + d(w)) - num, every P + R has value
    den * 2|E(P + R)| - num * (|P + R| - 1) <= B + sum over R of g(w),
    where B = den * 2|E(P)| - num * (|P| - 1); the bound above is B plus
    the positive g(w), and when it reaches need let
    spare = bound - need >= 0.  The child that adds v walks the sets
    P + v + R, R among the later candidates.

    - A child v with g(v) < -spare holds no hit: g(v) < 0 is not in the
      bound, so each of its sets has value at most bound + g(v) < need.
      It is skipped.
    - A candidate w with g(w) > spare is in every hit below P: a set
      without w has value at most bound - g(w) < need, as g(w) > 0 is in
      the bound.  The children after w never add w, so the loop stops
      after w's child.
    - Once P, the child's v and the candidates after v are fewer than
      three vertices, the loop stops: that child and every later one walk
      sets inside them, and a hit has at least three.

    The first two cuts use the threshold of the node's entry.  Being a hit
    depends only on the ratio num/den (with slack 0 or 1, S is a hit
    exactly when 2|E(S)|/(|S| - 1) reaches, or at slack 1 passes, it), and
    ``on_hit`` only raises it; so a branch with no hit at that threshold
    has none later.  Every cut drops only subtrees without a hit, so the
    hits, their order and the thresholds returned are those of the walk
    without them.

    Vertices of degree 0 are left out of the walk when the starting
    threshold is at least the maximum degree D: with gap = den * D - num,
    the walk skips them when gap <= 0 and 2 * gap < ``slack`` (gap < 0 at
    slack 0, or gap = 0 at slack 1).
    A set S holding such a vertex w has 2e <= D(|S| - 1), counted at the
    other |S| - 1 vertices, so den * 2e - num * (|S| - 1) <= gap(|S| - 1)
    <= 2 * gap < ``slack``: no hit holds w.  As ``on_hit`` never lowers the
    threshold, this holds for the whole walk; and w's bound term is 0, so
    leaving w out changes neither the hits, nor their order, nor the bound
    at any node.  Padded inputs, whose isolated vertices the hypothesis
    counts, and the class search's uncolored rest, where fully colored
    vertices are isolated, walk far fewer sets.
    """
    cnt = graph.adjacency_counts
    deg = graph.degrees
    subset = sorted(set(forced))
    gap = den * max(deg, default=0) - num
    lone = gap <= 0 and 2 * gap < slack  # no hit holds a vertex of degree 0
    candidates = [
        v for v in range(graph.n) if v not in subset and (deg[v] or not lone)
    ]
    # pair counts are symmetric: sum the forced vertices' own rows
    to_subset = [sum(col) for col in zip([0] * graph.n, *(cnt[w] for w in subset))]
    last = len(candidates)
    need = slack + (slack & 1)  # a hit's value is even, so it reaches this

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
        at_num, at_den = num, den  # the threshold the cuts below are made at
        cut = at_num // at_den  # den * x > num exactly when x > cut, x integral
        top, picked = 2 * inner, 0
        for w in candidates[idx:]:
            x = to_subset[w] + deg[w]
            if x > cut:
                top += x
                picked += 1
        spare = at_den * top - at_num * (size - 1 + picked) - need
        if spare < 0:
            return False
        # from i = last + size - 2 on, P, v and the later candidates are < 3
        for i in range(idx, min(last, last + size - 2)):
            v = candidates[i]
            gain = at_den * (to_subset[v] + deg[v]) - at_num
            if gain < -spare:  # no hit holds v
                continue
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
            if gain > spare:  # every hit holds v, and no later child does
                return False
        return False

    return walk(0, len(subset), sum(to_subset[v] for v in subset) // 2)


def _density_ceiling(
    graph: Multigraph, floor: int
) -> tuple[int, list[list[int]]] | None:
    """L = ceil(rho) with every odd set of density exactly L, when the
    density rho exceeds ``floor``; else None.

    One lexicographic walk over the odd sets from threshold ``floor`` at
    slack 1.  A hit of density r sets K = max(K, ceil(r)) and returns the
    threshold (nK - 1)/n, so a later set S is a hit exactly when
    2e >= K(|S| - 1): the walk tests n(2e - K(|S| - 1)) + (|S| - 1) >= 1,
    and 1 <= |S| - 1 < n.  A hit with 2e = K(|S| - 1) is kept, and the kept
    sets are dropped when K rises.  The threshold never passes L - 1/n,
    where every set of density L is a hit, and pruning drops no hit; so
    every set of density exactly L is kept, in lexicographic order.  These
    are the tight sets that saturation starts from (none when rho < L).
    """
    n = graph.n
    ceiling = floor
    kept: list[list[int]] = []

    def rise(subset: list[int], edges: int) -> tuple[int, int]:
        nonlocal ceiling, kept
        size = len(subset) - 1
        top = -(-2 * edges // size)
        if top > ceiling:
            ceiling, kept = top, []
        if 2 * edges == ceiling * size:
            kept.append(list(subset))
        return n * ceiling - 1, n

    _walk_odd_sets(graph, floor, 1, 1, rise)
    return (ceiling, kept) if ceiling > floor else None


def density(graph: Multigraph, config: RunConfig = DEFAULT_CONFIG) -> DensityWitness:
    """Maximize 2|E(G[S])|/(|S|-1) over odd subsets S with |S| >= 3.

    One lexicographic walk over the odd sets from threshold 0: each set
    strictly denser than the best so far becomes the best and raises the
    threshold to its own ratio, so the walk keeps only branches that can
    still beat it.  A later set of equal ratio is no hit, so the witness is
    the lexicographically smallest maximizer.
    """
    n = graph.n
    if n > config.density_max_n:
        raise InstanceTooLargeError(
            f"density enumeration capped at n = {config.density_max_n}, got {n}"
        )
    best: list = []

    def beat(subset: list[int], edges: int) -> tuple[int, int]:
        best[:] = [Fraction(2 * edges, len(subset) - 1), tuple(subset)]
        return 2 * edges, len(subset) - 1

    _walk_odd_sets(graph, 0, 1, 1, beat)
    return DensityWitness(*best) if best else DensityWitness(Fraction(0), None)


def _is_dense_whole(graph: Multigraph, k: int, n: int | None = None) -> bool:
    """``is_k_dense`` on the whole vertex set: odd n >= 3, 2m = k(n-1).
    With ``n`` given, on a set of n vertices that holds every edge."""
    n = graph.n if n is None else n
    return n >= 3 and n % 2 == 1 and 2 * graph.m == k * (n - 1)


def _denser_by_degrees(graph: Multigraph, k: int) -> bool:
    """True when G's degrees alone prove an odd set of density above k.

    Take G's vertices with edges, V', less its j lowest-degree vertices:
    the set S_j keeps at least m - D_j edges, D_j the sum of those j
    degrees, as each edge it loses has an end among them.  So an odd S_j
    of at least three vertices with 2(m - D_j) > k(|S_j| - 1) is denser
    than k.  One sort, O(n log n), and no walk.
    """
    size, edges = graph.n - graph.degrees.count(0), graph.m
    for d in sorted(d for d in graph.degrees if d):
        if size < 3:
            break
        if size % 2 and 2 * edges > k * (size - 1):
            return True
        size, edges = size - 1, edges - d
    return False


def is_k_dense(graph: Multigraph, vertices, k: int) -> bool:
    """Odd set of at least three vertices inducing exactly k(|S|-1)/2 edges."""
    inside = graph._vertex_set(vertices)
    size = len(inside)
    if size < 3 or size % 2 == 0:
        return False
    return 2 * graph.edges_inside(inside) == k * (size - 1)


def maximal_k_dense_subgraphs(
    graph: Multigraph, k: int, config: RunConfig = DEFAULT_CONFIG
) -> list[tuple[int, ...]]:
    """All inclusion-maximal k-dense vertex sets, sorted lexicographically."""
    n = graph.n
    if n > config.density_max_n:
        raise InstanceTooLargeError(
            f"k-dense enumeration capped at n = {config.density_max_n}, got {n}"
        )
    found: list[frozenset[int]] = []

    def collect(subset: list[int], edges: int) -> tuple[int, int]:
        if 2 * edges == k * (len(subset) - 1):
            found.append(frozenset(subset))
        return k, 1

    _walk_odd_sets(graph, k, 1, 0, collect)
    return sorted(
        tuple(sorted(s)) for s in found if not any(s < other for other in found)
    )


def _parallel_pred(edges) -> list[int]:
    """For each edge id, the largest smaller id on the same pair, or -1."""
    last: dict[tuple[int, int], int] = {}
    pred = [-1] * len(edges)
    for e, (u, v) in enumerate(edges):
        key = (u, v) if u < v else (v, u)
        pred[e] = last.get(key, -1)
        last[key] = e
    return pred


def _edge_color_search(
    graph: Multigraph, k: int, spent: int, limit: int
) -> tuple[list[int] | None, int]:
    """Proper k-edge-coloring by ``_conflict_color_search``, or None when
    none exists, with the nodes spent so far.

    Edge e conflicts with every other edge at its ends.  Twins on the same
    (u, v) share one row, ``inc[u] + inc[v]`` with each id at its first
    position: it holds e itself, which the search skips as colored, so a
    parallel class of p edges costs one row, not p.  Edges are processed
    in order of decreasing endpoint degree sum, with ties broken by
    endpoint pair, so parallel classes stay contiguous, then by id.
    """
    deg = graph.degrees
    if max(deg, default=0) > k:
        return None, spent
    edges = graph.edges
    inc = graph.incidence
    shared = {(u, v): list(dict.fromkeys(inc[u] + inc[v])) for u, v in set(edges)}
    rows = [shared[pair] for pair in edges]

    def rank(e: int) -> tuple[int, int, int, int]:
        u, v = edges[e]
        lo, hi = (u, v) if u < v else (v, u)
        return (-(deg[u] + deg[v]), lo, hi, e)

    order = sorted(range(graph.m), key=rank)
    return _conflict_color_search(rows, order, _parallel_pred(edges), k, spent, limit)


def _no_host_reason(
    graph: Multigraph, k: int, config: RunConfig, core_n: int | None = None
) -> HypothesisNotMetError | InstanceTooLargeError | None:
    """None when ``graph`` has a k-dense host, else the error that says
    why not.

    The host is built on G itself, or, with ``core_n`` given, on G's core
    of ``core_n`` vertices (``_core``).  The hypothesis comes first: k
    below max(Delta+2, n+1), n the host's own vertex count.  Then the cap:
    the walk of G, or the host's density checks, on n vertices plus a
    parity vertex when n is even, would pass ``density_max_n``.
    ``chromatic_index`` picks its route with this O(n) test;
    ``embed_k_dense`` and ``totalize`` raise the error it returns.
    """
    n = graph.n if core_n is None else core_n
    delta = graph.max_degree()
    if k < max(delta + 2, n + 1):
        return HypothesisNotMetError(k, delta + 2, n + 1)
    if max(graph.n, n + 1 - n % 2) > config.density_max_n:
        return InstanceTooLargeError(
            f"embedding needs density checks; capped at n = {config.density_max_n}"
        )
    return None


def _core(
    graph: Multigraph, k: int
) -> tuple[Multigraph, tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """G's core at palette k, the peel order and the core's vertex and
    edge ids in G (as ``induced_subgraph`` gives them).  Again and again
    the lowest-index vertex whose degree among the vertices still left is
    at most k - Delta is taken off (see ``chromatic_index``); the vertices
    never taken off are the core, the same set in any order.  A vertex
    taken off with no edge left to the others lowers no degree, so its
    incidence is not read, and peeling only padding never builds G's.
    The core is copied by ``Multigraph._kept``.  G itself, with
    nothing peeled and empty maps, when k < Delta + 2 or no degree is at
    most k - Delta, so nothing can peel."""
    cap = k - graph.max_degree()
    if cap < 2 or min(graph.degrees) > cap:
        return graph, (), (), ()
    deg = list(graph.degrees)
    edges = graph.edges
    ready = [v for v, d in enumerate(deg) if d <= cap]  # ascending, so a heap
    left = [True] * graph.n
    order: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        left[v] = False
        order.append(v)
        if not deg[v]:  # no edge left to the vertices still in
            continue
        for e in graph.incidence[v]:
            u, w = edges[e]
            w = u if w == v else w
            if left[w]:
                deg[w] -= 1
                if deg[w] == cap:  # pushed once, as it falls to the cap
                    heapq.heappush(ready, w)
    core, core_ids, core_edge_ids = graph._kept(left)
    return core, tuple(order), core_ids, core_edge_ids


def _add_back(
    graph: Multigraph,
    peeled: tuple[int, ...],
    core_ids: tuple[int, ...],
    core_edge_ids: tuple[int, ...],
    host: DenseHost,
) -> TotalColoring:
    """A total k-coloring of G from the host's k-edge-coloring, checked
    once, by the step that builds it.  ``totalize.extend_to_total``
    extends the host's coloring to a total one and checks both; an
    improper host coloring raises with the host.  G's coloring is then
    built in one of three ways:

    - G is its own host: it is the extension, which ``extend_to_total``
      has checked.
    - Nothing peeled, and the host is larger: G's ids are a prefix of the
      host's, and ``totalize.restrict_total`` cuts its coloring from the
      extension and checks it.
    - Peeled vertices come back: the extension is restricted to the core,
      whose vertex ``i`` is G's ``core_ids[i]`` and edge ``j`` G's
      ``core_edge_ids[j]`` (a prefix of the host's ids), the peeled
      vertices are added back greedily in reverse peel order (the bound
      that leaves each a free color is proved in ``chromatic_index``), and
      ``_checked`` checks the result.

    With nothing peeled ``core_ids`` and ``core_edge_ids`` are ignored
    (the caller passes them empty) and G's incidence is not read.  Each
    added vertex takes, edge by edge, the smallest color free at both
    ends of its edges to the vertices already back, then the smallest
    color free of those edges and of its neighbours back.  A peeled
    vertex with no edge in G sees no color, so it comes back with color
    1, the greedy's own answer, without a read of its incidence; G's
    incidence is built only when a peeled vertex has edges."""
    k = host.coloring.k
    try:
        core = totalize.extend_to_total(host.g_prime, host.coloring, k)
    except ValueError:
        raise GuaranteeViolationError(
            "solver produced an improper coloring; this is a bug",
            certificate=serialize(host.g_prime),
        ) from None
    if not peeled:
        if host.g_prime is graph:  # G is its own host
            return core
        return totalize.restrict_total(host.g_prime, core, graph)
    edges, deg = graph.edges, graph.degrees
    vertex = [0] * graph.n  # 0 until the vertex is back
    edge = [0] * graph.m  # 0 until the edge is colored
    for v, c in zip(core_ids, core.vertex_colors):
        vertex[v] = c
    for e, c in zip(core_edge_ids, core.edge_colors):
        edge[e] = c

    def present(x: int) -> int:
        """Bit c: color c is at x's edges; bit 0, no color, is never free."""
        mask = 1
        for e in incidence[x]:
            mask |= 1 << edge[e]
        return mask

    for v in reversed(peeled):
        if not deg[v]:  # no edge and no neighbour: no color is seen
            vertex[v] = 1
            continue
        incidence = graph.incidence  # built at the first vertex with edges
        near = 0  # the colors of v's neighbours that are back
        for e in incidence[v]:
            u, w = edges[e]
            w = u if w == v else w
            if vertex[w]:
                seen = present(v) | present(w) | 1 << vertex[w]
                edge[e] = (~seen & (seen + 1)).bit_length() - 1  # the lowest free color
                near |= 1 << vertex[w]
        seen = present(v) | near
        vertex[v] = (~seen & (seen + 1)).bit_length() - 1
    return _checked(graph, TotalColoring(k, tuple(edge), tuple(vertex)))


CHI_INDEX_MAX_EDGES = 40  # exhaustive chromatic-index search cap (m)
# the nodes, per b + m + 1 (one search that never backtracks), that
# chromatic_index's one coloring at its pre-walk bound b may spend before
# the odd-set walk decides instead; 0 makes no attempt
FIRST_TRY = 4


def chromatic_index(
    graph: Multigraph, config: RunConfig = DEFAULT_CONFIG
) -> ChromaticCertificate:
    """Exact chromatic index with a proper witness coloring.

    L = max(Delta, ceil(rho)) is a lower bound.  G's odd sets are walked
    at most once, from threshold Delta (``_density_ceiling``), and not at
    all when G is colored at its pre-walk bound first (below): only a
    density above Delta moves L or the lower-bound reason, and the walk
    returns ceil(rho) with every odd set of density exactly ceil(rho)
    whenever it finds one.
    The host route settles chi' = k = L when k >= Delta+2, G's core C
    (below) has |C| + 1 <= k, and the host's density checks fit under
    density_max_n (all three decided by
    ``_no_host_reason``): C embeds into a k-dense host, and the host's
    k-edge-coloring, extended to a total one, restricted to C and with the
    peeled vertices added back, is a total k-coloring of G whose edge part
    attains the bound.
    The walk has proved density <= k and found G's tight sets, the blocks
    that saturation starts from, so the embedding walks no more.  The
    certificate keeps that host with its coloring (``host``) and the total
    coloring of G that ``_add_back`` built and checked (``total``), so
    ``totalize`` neither embeds, colors nor checks again.
    Every other graph within ``CHI_INDEX_MAX_EDGES`` is searched from L
    upwards; when the returned k exceeds both bounds, infeasibility of k-1
    was certified by an exhausted backtracking run.  Vizing's bound
    Delta + mu, which ends that climb, is counted only when it searches.

    Before the walk.  Let n <= density_max_n, V' be G's vertices with
    edges and n' = |V'|.  G's bound b is k when V' is k-dense (odd
    n' >= 3, 2m = k(n' - 1)) at k > Delta: V' is then an odd set of
    density k, so b <= L.  Else b = Delta <= L.  G is colored at b by
    ``_color``, the search that the route at b would run, under
    min(node_budget, ``FIRST_TRY`` * (b + m + 1)) nodes: on the host route
    at b (b >= Delta + 2 and ``_no_host_reason`` at n'), G's core at b
    (``_core``); otherwise G itself, as the climb's first step does, and
    only when m <= ``CHI_INDEX_MAX_EDGES``.  A coloring gives
    chi' <= b <= L <= chi', so chi' = L = b with no walk: reason
    ``max-degree`` when b = Delta, else ``density``.  Off the host route
    at b, G has no host at L = b either, as ``_no_host_reason`` that
    fails at n' fails at n >= n'.
    On the host route only the padding peels: each v of V' has
    d(v) >= 2m - Delta(n' - 1) = (b - Delta)(n' - 1) > b - Delta, as the
    other n' - 1 vertices of V' have degree sum 2m - d(v) <= Delta(n' - 1)
    and n' >= 3, and taking off an isolated vertex lowers no degree.  So
    the core is G[V'], with the isolated vertices peeled in ascending
    order, and it is b-dense: ``_color`` picks ``_dense_class_search`` on
    it, and the walk would give L = b, this core and a host (the core
    itself, below) that search colors from 0 nodes.
    G is not tried at b = Delta when its degrees already prove L > Delta
    (``_denser_by_degrees``), as no Delta-coloring exists then.
    When the attempt finds no coloring G is walked as below.  When it ran
    to the end and the walk gives L = b, the climb goes on from b + 1 with
    the attempt's nodes, since its first step would run that search again;
    if the attempt was on the host route at b, so is L = b, with the same
    core, and that route reads neither.  When it ran out of its nodes, or
    the walk gives L > b, it is dropped.  As the attempt is the search
    that the host route or the climb's first step runs at b, stopped
    earlier, k, the reason, the witness and ``search_nodes`` are those the
    walk alone gives, errors included.

    Own hosts.  On either path, a core C that is k-dense at the route's
    k (``_is_dense_whole``) is its own host: the route builds the host
    C, with the report of no parity vertex, no added edge and no move,
    that ``embed_k_dense(C, k, tight_sets=[V(C)])`` returns, without
    calling it.  That call would check ``_no_host_reason`` on C, which
    passes as the route's check on G at |C| did, C's Delta and order
    being no larger, and then add nothing to a graph with k(|C| - 1)/2
    edges and odd |C|.  So ``embed_k_dense`` runs only for a core short
    of edges or of even order.

    Peeling.  With k >= Delta+2, ``_core`` takes off, lowest index first,
    a vertex whose degree d among the vertices still left is at most
    k - Delta; what is never taken off is the core C.  Any total
    k-coloring of the vertices left takes a peeled vertex v back: its
    edges to them are colored one at a time, and the i-th edge vw sees at
    most (d(w) - mu(vw)) + 1 + (i - 1) <= Delta + i - 1 < k colors (w's
    other edges, w, and v's earlier edges), as i <= d <= k - Delta; then v
    sees at most 2d <= 2(k - Delta) <= Delta < k colors, its d edges and
    d neighbours, since k = L <= chi' <= floor(3 Delta / 2) (Shannon).  So
    a total k-coloring of C gives one of G, adding the peeled vertices
    back in reverse peel order (``_add_back``).  If G meets the hypothesis
    so does C, as |C| <= n and Delta(C) <= Delta.

    No odd set S with 2|E(S)| > (k - 1)(|S| - 1) holds a peeled vertex.
    Let v be the first of S to be peeled; all of S was left then, so
    d_S(v) <= k - Delta, and 2|E(S)| = 2|E(S - v)| + 2 d_S(v)
    <= Delta(|S| - 1) - d_S(v) + 2 d_S(v) <= Delta(|S| - 1) + k - Delta.
    With k - Delta >= 2 that bound is below (k - 1)(|S| - 1) once
    |S| >= 3, a contradiction.  So the densest set lies in C, C's L is k
    too, and G's tight sets are C's, which the walk of G has found: C is
    not walked again.  Peeling costs one scan of the degrees when there is
    nothing to peel (every degree above k - Delta); then C is G, and
    ``_core`` returns it as it is.
    """
    if graph.m == 0:
        return ChromaticCertificate(
            "chromatic-index", 0, EdgeColoring(0, ()), "max-degree", 0
        )
    delta = graph.max_degree()
    lower, start, spent, colors, tried = delta, delta, 0, None, None
    if graph.n <= config.density_max_n:
        live = graph.n - graph.degrees.count(0)  # n', the vertices with edges
        whole = 2 * graph.m // (live - 1)  # V''s density, if V' is whole-dense
        bound = whole if whole > delta and _is_dense_whole(graph, whole, live) else delta
        core, peeled, core_ids, core_edge_ids = graph, (), (), ()
        route = bound >= delta + 2 and _no_host_reason(graph, bound, config, live) is None
        if route:  # only the padding peels
            core, peeled, core_ids, core_edge_ids = _core(graph, bound)
        if route or (  # else the climb's first step, unless the degrees prove L > Delta
            graph.m <= CHI_INDEX_MAX_EDGES
            and not (bound == delta and _denser_by_degrees(graph, delta))
        ):
            limit = min(config.node_budget, FIRST_TRY * (bound + graph.m + 1))
            try:
                colors, tried = _color(core, bound, 0, limit)
            except BudgetExceededError:
                pass  # out of nodes: the attempt is dropped
        if colors is not None:  # L = bound; on the host route the core is its own host
            lower, start, spent = bound, bound, tried
        else:  # walk G, and peel at L
            lower, tight = _density_ceiling(graph, delta) or (delta, [])
            start = lower
            if lower == bound and tried is not None:
                start, spent = lower + 1, tried  # the attempt refuted L
            core, peeled, core_ids, core_edge_ids = _core(graph, lower)
            if peeled:
                index = {v: i for i, v in enumerate(core_ids)}
                tight = [[index[v] for v in subset] for subset in tight]
            route = _no_host_reason(graph, lower, config, core.n) is None
        if route:
            if _is_dense_whole(core, lower):  # the core is its own host
                g_prime = core
                report = embed.EmbeddingReport(False, (), (), core.n, core.m, lower)
            else:
                g_prime, report = embed.embed_k_dense(
                    core, lower, config, tight_sets=tight
                )
            if colors is None:
                colors, spent = _color(g_prime, lower, 0, config.node_budget)
            if colors is None:
                raise GuaranteeViolationError(
                    f"no {lower}-edge-coloring of the embedded graph was found; "
                    "this contradicts the density identity (or is a bug)",
                    certificate=serialize(g_prime),
                )
            host = embed.DenseHost(g_prime, report, EdgeColoring(lower, tuple(colors)))
            total = _add_back(graph, peeled, core_ids, core_edge_ids, host)
            return ChromaticCertificate(
                "chromatic-index",
                lower,
                EdgeColoring(lower, total.edge_colors),
                "density",
                spent,
                host,
                peeled,
                total,
            )
    if graph.m > CHI_INDEX_MAX_EDGES:
        raise InstanceTooLargeError(
            f"chromatic-index search capped at m = {CHI_INDEX_MAX_EDGES}, "
            f"got {graph.m}"
        )
    if colors is None:  # the climb searches, up to Vizing's bound
        upper = delta + graph.multiplicity()
    else:  # the attempt colored G at start
        upper = start
    for k in range(start, upper + 1):
        if colors is None:  # else the attempt colored G at k
            colors, spent = _color(graph, k, spent, config.node_budget)
        if colors is not None:
            if k == delta:
                reason = "max-degree"
            elif k == lower:  # past Delta, lower is ceil(rho)
                reason = "density"
            else:
                reason = "exhaustion"
            witness = _checked(graph, EdgeColoring(k, tuple(colors)))
            return ChromaticCertificate("chromatic-index", k, witness, reason, spent)
    raise GuaranteeViolationError(
        "no edge coloring found within Delta + multiplicity; this is a bug"
    )


def _dense_class_search(
    graph: Multigraph, k: int, spent: int, limit: int
) -> tuple[list[int] | None, int]:
    """k-edge-coloring of a k-dense graph, one color class at a time.

    In a k-dense graph every class of a proper k-coloring is forced to be a
    near-perfect matching of exactly (n-1)/2 edges.  Classes are
    interchangeable, so each class is anchored at the smallest edge not yet
    assigned.  Parallel edges are interchangeable too, so a pair only ever
    offers its lowest unassigned edge, and the assigned twins of a pair
    form an id prefix (undo is LIFO).  After c classes, un_deg[v] <= k - c
    (checked at c = 0 and at each class boundary); as
    un_deg[v] = deg(v) - c + a when a of them missed v, this caps a at
    k - deg(v), as any k-coloring must.  A boundary checks one vertex:
    before class c every un_deg is at most k - c + 1, each vertex the
    class covers loses one, and a vertex it misses was loose (below), so
    at most k - c already.  With no vertex missed, the n - 1 vertices its
    (n-1)/2 edges cover pass, and only the one left uncovered is read.

    A class grows from its most constrained vertex.  An uncovered vertex v
    has a choice for each uncovered partner it still shares an edge with,
    plus one for being the single vertex the class misses, allowed while
    no vertex has been missed and v is not tight (un_deg[v] > k - c would
    break the degree bound after this class).  Each growth node picks the
    vertex with the fewest choices, tight vertices first on ties, and
    offers its partners in ascending edge id, then the miss; a vertex with
    no choice ends the branch.  A near-perfect matching through the anchor
    covers or misses the picked vertex in exactly one of these ways, so
    every such class is reached exactly once, and every proper coloring
    canonicalizes into a reached one by relabeling classes and swapping
    twins: the search is exhaustive.

    The uncolored rest must also have density at most k - c: each of the
    k - c classes still to come has at most (|S|-1)/2 edges inside an odd
    set S, so a rest with 2|E(S)| > (k - c)(|S| - 1) extends to no
    coloring.  Once the call has spent twice the nodes of a search that
    never backtracks (one per class, one per edge, one to finish), each
    class boundary walks the rest's odd sets and cuts the branch on such a
    set.  The cut removes only subtrees without a coloring and keeps the
    search order, so the search stays exhaustive and finds the coloring it
    would find without the cut.

    The search is one loop, so its depth meets no recursion limit.  A
    trail lists the edges taken, and a choice point is pushed only where a
    node branches (two or more offered edges, or an edge and the miss): it
    keeps the trail's length, the class state (color, anchor, covered
    vertices, edge count, whether a vertex was missed) and the choices
    still to try.  A dead end gives back the trail's edges past the latest
    choice point, last first, and resumes there with its next choice.  A
    node is spent at each class start and at each edge or miss taken, in
    depth-first order.  The meter counts on from ``spent`` and raises
    once it passes ``limit``; the count comes back with the coloring, or
    with None when there is none.
    """
    n, m = graph.n, graph.m
    size = (n - 1) // 2
    edges = graph.edges
    un_deg = list(graph.degrees)
    if max(un_deg) > k:
        return None, spent
    assign = [0] * m
    # low[v][w]: the lowest unassigned edge on the pair; partners[v]: the
    # vertices w whose pair with v still has one; next_twin[e]: the next id
    # on e's pair, or -1
    low = [[-1] * n for _ in range(n)]
    partners = [0] * n
    next_twin = [-1] * m
    for e in range(m - 1, -1, -1):
        u, v = edges[e]
        next_twin[e] = low[u][v]
        low[u][v] = low[v][u] = e
        partners[u] |= 1 << v
        partners[v] |= 1 << u
    everyone = (1 << n) - 1
    walk_after = spent + 2 * (k + m + 1)

    def rest_too_dense(color: int) -> bool:
        rest = Multigraph(n, [edges[e] for e in range(m) if not assign[e]])
        return _walk_odd_sets(rest, k - color, 1, 1, lambda subset, inner: None)

    trail: list[int] = []
    # choice points: (trail length, color, anchor, covered, count, missed,
    # the choices left, last first); a choice is an edge id, or ~v for
    # missing vertex v, and None opens the next class
    points: list[tuple] = []
    color, anchor, covered, count, missed = 0, -1, 0, 0, False
    choice = None
    while True:
        spent += 1
        if spent > limit:
            raise _exhausted(limit)
        if choice is None:  # a class node: anchor at the lowest unassigned edge
            color += 1
            anchor += 1
            while anchor < m and assign[anchor]:
                anchor += 1
            if anchor == m:
                return assign, spent
            if color <= k:
                choice, covered, count, missed = anchor, 0, 0, False
                continue
        else:
            if choice >= 0:
                u, v = edges[choice]
                assign[choice] = color
                un_deg[u] -= 1
                un_deg[v] -= 1
                twin = low[u][v] = low[v][u] = next_twin[choice]
                if twin < 0:
                    partners[u] ^= 1 << v
                    partners[v] ^= 1 << u
                covered |= (1 << u) | (1 << v)
                count += 1
                trail.append(choice)
            else:
                covered |= 1 << ~choice
                missed = True
            if count == size:
                # everything below the anchor is already assigned; unless a
                # vertex was missed, only the one left uncovered can break
                # the degree bound
                uncovered = (everyone ^ covered).bit_length() - 1
                if (missed or un_deg[uncovered] <= k - color) and not (
                    spent > walk_after and rest_too_dense(color)
                ):
                    choice = None
                    continue
            else:
                free = everyone & ~covered
                cap = k - color
                # a score is twice the choices, plus 1 when not tight, so
                # tight vertices win ties; while no vertex is missed, a
                # vertex that is not tight (loose) has the miss as one more
                # choice
                loose = 1 if missed else 3
                best_score = 2 * n + 2
                best = 0
                rest = free
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    w = bit.bit_length() - 1
                    score = 2 * (partners[w] & free).bit_count()
                    if un_deg[w] > cap:
                        if not score:
                            break  # a tight vertex no partner can cover
                    else:
                        score += loose
                        if score == 1:
                            break  # a loose vertex, with no partner and no miss left
                    if score < best_score:
                        best_score, best = score, w
                else:  # every vertex has a choice: branch on the best one's
                    # partners in ascending edge id, then (an odd score is a
                    # loose vertex) on missing it
                    options = partners[best] & free
                    row = low[best]
                    miss = not missed and best_score & 1
                    if options & (options - 1):
                        left = []
                        while options:
                            bit = options & -options
                            options ^= bit
                            left.append(row[bit.bit_length() - 1])
                        left.sort(reverse=True)
                        if miss:
                            left.insert(0, ~best)
                        choice = left.pop()
                        points.append(
                            (len(trail), color, anchor, covered, count, missed, left)
                        )
                        continue
                    if options:
                        choice = row[options.bit_length() - 1]
                        if miss:
                            points.append(
                                (len(trail), color, anchor, covered, count, missed, [~best])
                            )
                        continue
                    if miss:
                        choice = ~best
                        continue
        # a dead end: back to the latest choice point
        if not points:
            return None, spent
        mark, color, anchor, covered, count, missed, left = points[-1]
        choice = left.pop()
        if not left:
            points.pop()
        while len(trail) > mark:
            e = trail.pop()
            u, v = edges[e]
            assign[e] = 0
            un_deg[u] += 1
            un_deg[v] += 1
            low[u][v] = low[v][u] = e
            partners[u] |= 1 << v
            partners[v] |= 1 << u


def _color(
    graph: Multigraph, k: int, spent: int, limit: int
) -> tuple[list[int] | None, int]:
    """Exhaustive k-edge-coloring search, or None when none exists, with
    the nodes spent so far (counted on from ``spent``, up to ``limit``).

    A k-dense graph is decomposed into exact near-perfect matching classes,
    which handles the large dense hosts produced by the embedding and
    refutes k on dense class-2 graphs in few nodes; any other graph goes to
    the generic edge-by-edge search.
    """
    if _is_dense_whole(graph, k):
        return _dense_class_search(graph, k, spent, limit)
    return _edge_color_search(graph, k, spent, limit)


def find_k_edge_coloring(
    graph: Multigraph, k: int, config: RunConfig = DEFAULT_CONFIG
) -> EdgeColoring | None:
    """Feasibility-only search for a proper k-edge-coloring.

    Unlike :func:`chromatic_index` this has no edge cap (only the node
    budget) and proves nothing about k-1.
    """
    assignment, _ = _color(graph, k, 0, config.node_budget)
    if assignment is None:
        return None
    return _checked(graph, EdgeColoring(k, tuple(assignment)))


def _total_conflicts(graph: Multigraph) -> list[list[int]]:
    """Conflict lists over the n + m total-coloring elements.

    Element i < n is vertex i; element n + e is edge e.  Conflicts: adjacent
    vertices, vertex/incident edge, and edges sharing an endpoint.
    """
    n = graph.n
    adj: list[set[int]] = [set() for _ in range(n + graph.m)]
    for eid, (u, v) in enumerate(graph.edges):
        adj[u].add(v)
        adj[v].add(u)
        adj[u].add(n + eid)
        adj[v].add(n + eid)
        adj[n + eid].update((u, v))
    for ids in graph.incidence:
        for i, e in enumerate(ids):
            for f in ids[i + 1 :]:
                adj[n + e].add(n + f)
                adj[n + f].add(n + e)
    return [sorted(s) for s in adj]


def _conflict_color_search(
    neighbors: list[list[int]],
    order: list[int],
    pred: list[int],
    k: int,
    spent: int,
    limit: int,
) -> tuple[list[int] | None, int]:
    """Proper coloring of a conflict graph with colors 1..k, or None: the
    one backtracking engine of the edge and total searches.

    ``neighbors[i]`` lists the elements that element i conflicts with,
    and maybe i itself, which is colored by then and so skipped.  Twins are elements with the same conflicts, each other
    aside, such as parallel edges; ``pred[i]`` is i's largest twin of
    smaller id, or -1.  Elements are colored in ``order``; each may use at
    most one color beyond those in use, and a color above its pred's (any
    color while pred is uncolored).  A branch ends when an uncolored
    element has every color forbidden.  The search is one loop over an
    explicit stack, so its depth meets no recursion limit.  It spends a
    node at the root and one per color that survives the cut, counting on
    from ``spent`` and raising once it passes ``limit``, and returns the
    count with the coloring, or with None.

    Exhaustive: relabeling colors, or swapping two twins' colors, keeps a
    coloring proper.  Among the colorings these moves reach from a proper
    one, take the lexicographically smallest c, read in ``order``.
    Relabeling by first use gives no larger a coloring, and a smaller one
    unless c uses its colors in first-use order.  Both callers keep twins
    in id order, so pred[i] precedes i, and if c(pred[i]) > c(i), swapping
    the two lowers c at pred[i] and keeps everything before it.  So c
    meets both rules, and as the cut drops only branches with no proper
    extension, the search reaches c unless it stops at an earlier coloring.
    """
    count = len(neighbors)
    if count == 0:
        return [], spent
    full = (1 << k) - 1
    forbidden = [0] * count
    assign = [0] * count
    # per position: the colors left to try, the elements its color newly
    # forbade, and the colors open to it (those in use, plus one)
    avail = [0] * count
    touched: list[list[int]] = [[]] * count
    palette = [1 & full] * count
    pos = 0
    spent += 1
    if spent > limit:
        raise _exhausted(limit)
    while True:
        i = order[pos]
        color = assign[i]
        if color:  # back at this position: take its color back, try the next
            bit = 1 << (color - 1)
            for j in touched[pos]:
                forbidden[j] ^= bit
            assign[i] = 0
            options = avail[pos]
        else:  # a new node
            options = palette[pos] & ~forbidden[i]
            if pred[i] >= 0:
                options &= -1 << assign[pred[i]]  # above the twin's color
        if not options:
            if not pos:
                return None, spent
            pos -= 1
            continue
        bit = options & -options
        avail[pos] = options ^ bit
        assign[i] = bit.bit_length()
        touched[pos] = newly = []
        dead = False
        for j in neighbors[i]:
            if not assign[j] and not forbidden[j] & bit:
                forbidden[j] |= bit
                newly.append(j)
                dead |= forbidden[j] == full
        if dead:
            continue
        spent += 1
        if spent > limit:
            raise _exhausted(limit)
        pos += 1
        if pos == count:
            return assign, spent
        palette[pos] = (palette[pos - 1] | bit << 1) & full


TOTAL_MAX_ELEMENTS = 24  # exhaustive total-coloring search cap (n + m)


def total_chromatic_number(
    graph: Multigraph, config: RunConfig = DEFAULT_CONFIG
) -> ChromaticCertificate:
    """Exact total chromatic number with a total witness coloring.

    ``_conflict_color_search`` over the n + m elements, starting from the
    Delta + 1 lower bound (a maximum-degree vertex and its incident edges
    are mutually conflicting); there is no structural bound beyond that,
    so any climb is certified by exhaustion.  Elements go in order of
    decreasing conflict count, then by element id.  Parallel edges are
    twins, and their conflict rows have equal length, so they come in id
    order and take ascending colors.
    """
    n, m = graph.n, graph.m
    if n + m > TOTAL_MAX_ELEMENTS:
        raise InstanceTooLargeError(
            f"total-coloring search capped at n + m = {TOTAL_MAX_ELEMENTS}, "
            f"got {n + m}"
        )
    if n + m == 0:
        return ChromaticCertificate(
            "total-chromatic-number", 0, TotalColoring(0, (), ()), "max-degree", 0
        )
    neighbors = _total_conflicts(graph)
    order = sorted(range(n + m), key=lambda x: (-len(neighbors[x]), x))
    pred = [-1] * n + [p + n if p >= 0 else -1 for p in _parallel_pred(graph.edges)]
    lower = graph.max_degree() + 1
    spent = 0
    for k in range(lower, n + m + 1):
        assignment, spent = _conflict_color_search(
            neighbors, order, pred, k, spent, config.node_budget
        )
        if assignment is not None:
            reason = "max-degree" if k == lower else "exhaustion"
            witness = _checked(
                graph, TotalColoring(k, tuple(assignment[n:]), tuple(assignment[:n]))
            )
            return ChromaticCertificate(
                "total-chromatic-number", k, witness, reason, spent
            )
    raise GuaranteeViolationError(
        "no total coloring found with n + m colors; this is a bug"
    )


def gs_verify(
    graph: Multigraph, config: RunConfig = DEFAULT_CONFIG
) -> DensityIdentityReport:
    """Check chi' = ceil(rho) for graphs with chi' > Delta + 1.

    Vacuously true when chi' <= Delta + 1; the report carries chi', Delta,
    rho and ceil(rho) either way.
    """
    cert = chromatic_index(graph, config)
    dens = density(graph, config)
    delta = graph.max_degree()
    ceil_rho = math.ceil(dens.value)
    vacuous = cert.k <= delta + 1
    return DensityIdentityReport(
        ok=vacuous or cert.k == ceil_rho,
        vacuous=vacuous,
        chi_prime=cert.k,
        delta=delta,
        rho=dens.value,
        ceil_rho=ceil_rho,
    )


def _critical_at(graph: Multigraph, k: int, config: RunConfig) -> bool:
    """``is_edge_critical`` for a graph whose chromatic index k is known.
    Deleting any edge of a parallel class leaves the same multigraph up to
    edge ids, so each class is tried once, at its lowest id, in id order."""
    pred = _parallel_pred(graph.edges)
    return all(
        chromatic_index(graph.without_edge(eid), config).k < k
        for eid in range(graph.m)
        if pred[eid] < 0
    )


def is_edge_critical(graph: Multigraph, config: RunConfig = DEFAULT_CONFIG) -> bool:
    """True when deleting any single edge lowers the chromatic index."""
    return _critical_at(graph, chromatic_index(graph, config).k, config)


# bound last, as embed and totalize import this module; calls look up
# their functions as attributes, so a replaced function is the one called
from . import embed, totalize  # noqa: E402
