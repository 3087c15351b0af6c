"""Embed a qualifying multigraph into a k-dense supergraph.

Given k >= max(Delta(G)+2, n+1) with density(G) <= k (the theorem's k is
chi'(G)), constructs a supergraph G' on an odd vertex count with exactly
k(n'-1)/2 edges, maximum degree at most k-1 and density at most k, keeping
G's vertex and edge ids as a prefix.  A k-edge-coloring of G', restricted
to G, settles chi'(G') = chi'(G) = k whenever k is a lower bound on
chi'(G).  Only ``oracles.chromatic_index``, on its host route, embeds
and colors, and it embeds G's core (G less the low-degree vertices it
peels); every other embedding is a direct library call, and the pipeline
takes its host from that certificate.  The ``embed`` command prints that
host when nothing peels, as it is then G's own, and otherwise embeds G
itself, padding and all.  ``embed_k_dense``
raises the error of ``oracles._no_host_reason``, the one test of the two
preconditions (the hypothesis and the density cap) that also picks
``chromatic_index``'s route, and so says why an input has no host.  The
construction has one path: a parity vertex when n is even, greedy
saturation, and exchange moves when greedy is stuck (drop one previously
added edge whose ends avoid every maximal k-dense set, add two edges
toward deficient vertices).  A host that neither step can extend raises
``GuaranteeViolationError`` with that host as certificate, at every n.

Throughout, feasibility of adding an edge uv means: both endpoint degrees
stay below k, and no odd vertex set exceeds density k afterwards.
``can_add_edge`` tests this by walking the odd sets of the graph with uv
(``oracles._walk_odd_sets``) at threshold k, stopped at the first
violating set.  The walk's pruning never drops a hit, so its answers are
those of plain enumeration.  The embedding walks only to find the tight
sets (the blocks below); it decides feasibility, and an exchange move's
vertices, from the blocks and the degrees.

The premise, density(G) <= k, and G's tight sets come from one walk of G,
``oracles._density_ceiling``.  ``chromatic_index`` makes that walk from
Delta and passes the sets it keeps, so on its route the embedding does
not walk G.  A G whose vertices with edges, V', are k-dense, and whose
G[V'] ``chromatic_index`` has k-colored before any walk, is not walked
at all.  Nor is a core that is already k-dense embedded, after that
attempt or after the walk: with its one block, the whole vertex set,
``embed_k_dense`` would add nothing, so ``chromatic_index`` builds the
same host, the core itself, and its report (no parity vertex, no edge,
no move) without the call.  A direct call makes the walk from k - 1: None
means no odd set reaches k, so there is no tight set; a ceiling above k
breaks the premise; else the kept sets, those of density exactly k, are
the tight sets.  The parity vertex changes none of this: an odd S
holding it has ratio 2|E(S')|/|S'| < k, with S' the rest of S, as every
degree is below k, so it lies in no tight set.  When n is odd the
embedding starts from G itself.

Tight sets.  Call an odd set S, |S| >= 3, tight (k-dense) when
f(S) = 2|E(S)| - k(|S|-1) = 0; f is even, and at most 0 while the density
is at most k.  Two tight sets S, T never meet in an even, nonempty I:
S - T and T - S are odd, so with the degree cap on I,
2|E(S)| + 2|E(T)| <= k(|S - T| - 1) + k(|T - S| - 1) + 2(k-1)|I|, while
tightness makes the left side that sum with 2k|I| in place of 2(k-1)|I|.
Meeting in an odd set, their union is tight (|E| is supermodular), so the
maximal tight sets, called blocks, are disjoint.  Adding uv raises f by 2
on the sets holding u and v, so it breaks density <= k exactly when u and
v lie in one block.

Greedy saturation (``_saturate``) adds, among the pairs whose degrees are
below k - 1 and whose ends lie in different blocks, the one of least
endpoint degree sum, ties broken lexicographically, until the host has
k(n-1)/2 edges or no such pair is left.  The starting blocks come from
G's tight sets, those of the premise walk.  After uv is added, the new
tight sets are the odd S holding u and v that had f(S) = -2.  The host
with uv still has density at most k and degrees below k, so by the
argument above such an S meets each block B in an odd set or not at all,
and then S + B is tight too: the largest new tight set is a union of
atoms, an atom being a block or a vertex in no block.  On a union
S of t atoms, f(S) = 2E' - k(t - 1), with E' the edges between different
atoms, since f is 0 on every atom; and |S| is odd exactly when t is.  So
one walk over the host with each block contracted to a vertex, forced on
the atoms a, b of u and v at slack 0, reports the new tight sets, and the
union of its hits is the new block.  An atom is named by its smallest
vertex, and a merge zeroes the absorbed atoms' rows and columns in place.
Every atom has degree below k (a block B sends at most
(k - 1)|B| - k(|B| - 1) edges out), so the walk at threshold k leaves the
zero rows out by its degree-0 rule, and the union of its hits does not
depend on how the atoms are numbered.

Most added edges need no walk.  With degrees d and pair counts c of the
contracted host, the new edge counted, a new tight M leaves
R = M - {a, b}, a union of an odd number of atoms, with
f(M) = f(R) + 2(e(a, R) + e(b, R) + c(a, b) - k), and
e(a, R) + e(b, R) + c(a, b) <= d(a) + d(b) - c(a, b).  So when
d(a) + d(b) - c(a, b) < k, f(R) <= 0 leaves no new tight set and no walk
is made; otherwise the forced walk decides.

``_Contracted.grow`` is that upkeep for one added edge, and one
``_Contracted`` holds the blocks for the whole embedding.  When greedy
stalls they are the stuck host's maximal tight sets, and
``_find_exchange`` reads from them the vertices a move avoids.  A move's
removed edge xy has both ends in no block, so removing it lowers f only on
sets that are not tight and changes no block; its two added edges go
through ``grow``, each with its ends in different blocks (below).  So no
walk of the whole host follows a move.

When exchange moves work.  A stuck host misses n(k-1) - 2m >=
k - n + 2 >= 2 degree units below k - 1.  Let (x, y) be an added edge
whose ends are at degree k - 1 and in no tight set.  Removing it lowers f
only on sets holding x and y, so then (x, a) is addable for every a != y
below k - 1; that raises f only on sets holding x and a, which if they
hold y also lost xy, so every set holding y keeps f <= -2 and (y, b) is
addable for every b != y below k - 1.  As the missing units lie off x and
y, such a and b exist: ``_find_exchange`` finds a move whenever such an
edge exists.  The same argument holds for any added xy whose ends lie in
no tight set, whatever their degrees: no odd set holding x or y is tight
before or after (x, a) is added, so each of the two additions is feasible
exactly when both its degrees stay below k - 1, and ``_find_exchange``
walks no odd set to decide them.  Stuck hosts without a move exist
(``tests/test_embed.py`` builds one); greedy is not shown to avoid them,
but seeded sweeps of 55,000 random 3-6-vertex cores on random vertex ids
(n <= 15, 2-4 % stalling) never met one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .coloring import EdgeColoring
from .config import DEFAULT_CONFIG, RunConfig
from .errors import GuaranteeViolationError, InstanceTooLargeError
from .multigraph import Multigraph, serialize
from .oracles import _density_ceiling, _no_host_reason, _walk_odd_sets

__all__ = [
    "ExchangeMove",
    "EmbeddingReport",
    "DenseHost",
    "can_add_edge",
    "embed_k_dense",
]


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


@dataclass(frozen=True)
class DenseHost:
    """A k-dense host of G with a proper k-edge-coloring of it.

    G's edges are the first ``graph.m`` edges of ``g_prime``, so the first
    ``graph.m`` colors of ``coloring`` color G.
    """

    g_prime: Multigraph
    report: EmbeddingReport
    coloring: EdgeColoring


class _Contracted:
    """A host with each block contracted to one vertex, called an atom.

    An atom is named by its smallest vertex, and ``atom[v]`` names the atom
    holding vertex v: its block, or v alone when v lies in no tight set.
    ``members[a]`` is the bitmask of atom a's vertices.  ``n``, ``degrees``
    and ``adjacency_counts`` describe the multigraph on the atoms, edges
    inside an atom dropped, in the form ``_walk_odd_sets`` reads; the row
    and column of a vertex that names no atom are zero.  Built from the
    host, the atoms then join overlapping tight sets, which makes them the
    maximal tight sets.
    """

    def __init__(self, graph: Multigraph, tight_sets) -> None:
        self.n = graph.n
        self.atom = list(range(graph.n))
        self.members = [1 << v for v in range(graph.n)]
        self.adjacency_counts = [list(row) for row in graph.adjacency_counts]
        self.degrees = list(graph.degrees)
        for subset in tight_sets:
            self.merge({self.atom[v] for v in subset})

    def blocks(self) -> list[tuple[int, ...]]:
        """The atoms of two or more vertices, the blocks, in lexicographic
        order (an atom's name is its smallest vertex)."""
        found = []
        for bits in self.members:
            if bits & (bits - 1):
                found.append(tuple(v for v in range(self.n) if bits >> v & 1))
        return found

    def add(self, u: int, v: int, count: int = 1) -> None:
        """Count ``count`` more host edges uv, whose ends lie in different
        atoms; a negative count removes edges."""
        a, b = self.atom[u], self.atom[v]
        self.adjacency_counts[a][b] += count
        self.adjacency_counts[b][a] += count
        self.degrees[a] += count
        self.degrees[b] += count

    def grow(self, u: int, v: int, k: int) -> None:
        """Count one more host edge uv, whose ends lie in different atoms,
        and keep the blocks the maximal tight sets of the host with it: when
        the two atoms' degrees leave room for a new tight set, a walk of the
        contracted host forced on them finds it (see the module docstring)."""
        self.add(u, v)
        a, b = self.atom[u], self.atom[v]
        # a new tight set needs k edges from {a, b} into it
        if self.degrees[a] + self.degrees[b] - self.adjacency_counts[a][b] < k:
            return
        group: set[int] = set()

        def collect(subset: list[int], edges: int) -> tuple[int, int]:
            group.update(subset)
            return k, 1

        _walk_odd_sets(self, k, 1, 0, collect, forced=(a, b))
        if group:
            self.merge(group)

    def merge(self, group: set[int]) -> None:
        """Join the atoms in ``group`` into the one named by the smallest;
        the others' rows and columns become zero."""
        first = min(group)
        cnt = self.adjacency_counts
        joined = cnt[first]
        for a in group - {first}:
            for b, c in enumerate(cnt[a]):
                if c:
                    joined[b] += c
                    cnt[b][first] += c
                    cnt[b][a] = 0
            cnt[a] = [0] * self.n
            self.members[first] |= self.members[a]
            self.members[a] = self.degrees[a] = 0
        joined[first] = 0  # edges between the joined atoms now lie inside
        self.degrees[first] = sum(joined)
        bits = self.members[first]
        while bits:
            low = bits & -bits
            self.atom[low.bit_length() - 1] = first
            bits ^= low


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
    grown = graph.with_edge(u, v)
    return not _walk_odd_sets(grown, k, 1, 1, lambda subset, edges: None)


def _saturate(host: Multigraph, k: int, con: _Contracted) -> list[tuple[int, int]]:
    """Greedy additions to ``host`` (odd n, density at most k, its blocks
    held by ``con``) until it has k(n-1)/2 edges or no pair is addable; see
    the module docstring for the rule.  Returns the added edges.  Each one
    goes through ``con.grow``, so at a stall ``con`` holds the blocks of the
    stuck host; the edge that makes the host k-dense skips it, as the whole
    vertex set is then the one block.
    """
    deg = list(host.degrees)
    missing = k * (host.n - 1) // 2 - host.m
    atom = con.atom  # merges update it in place
    added: list[tuple[int, int]] = []
    while len(added) < missing:
        low = [v for v, d in enumerate(deg) if d < k - 1]
        pairs = [
            (deg[u] + deg[v], u, v)
            for u, v in combinations(low, 2)
            if atom[u] != atom[v]
        ]
        if not pairs:
            break
        _, u, v = min(pairs)
        added.append((u, v))
        deg[u] += 1
        deg[v] += 1
        if len(added) < missing:
            con.grow(u, v, k)
    return added


def _find_exchange(
    cur: Multigraph, k: int, added: list[tuple[int, int]], con: _Contracted
) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]] | None:
    """One accepted exchange move, or None.

    Removes a previously added edge (x, y) with both ends outside every
    block of ``cur`` (its maximal k-dense sets, as ``con`` holds them),
    then adds (x, a) and (y, b), the first pairs in index order that keep
    both degrees below k - 1: with x and y in no tight set, that is all
    either addition needs (see the module docstring), so no odd set is
    walked.
    """
    covered = {v for s in con.blocks() for v in s}
    for e1 in dict.fromkeys(added):  # each distinct pair once, in order
        x, y = e1
        if x in covered or y in covered:
            continue
        deg = list(cur.degrees)
        deg[x] -= 1
        deg[y] -= 1
        for a in range(cur.n):
            if a == x or max(deg[x], deg[a]) >= k - 1:
                continue
            deg[x] += 1
            deg[a] += 1
            for b in range(cur.n):
                if b != y and max(deg[y], deg[b]) < k - 1:
                    return e1, (x, a), (y, b)
            deg[x] -= 1
            deg[a] -= 1
    return None


def embed_k_dense(
    graph: Multigraph,
    k: int,
    config: RunConfig = DEFAULT_CONFIG,
    *,
    tight_sets: list[list[int]] | None = None,
) -> tuple[Multigraph, EmbeddingReport]:
    """Construct a k-dense supergraph of ``graph`` with maximum degree < k.

    Checks k >= max(Delta + 2, n + 1) and density(graph) <= k; the caller's
    k is otherwise taken as given.  The density check is one walk of G
    (``oracles._density_ceiling``) that also finds G's tight sets.  A
    caller that has proved density(graph) <= k passes ``tight_sets`` and
    the walk is skipped: every odd set of density exactly k, or only the
    maximal ones, the blocks, as saturation starts from the blocks and
    joins overlapping sets into them.  Steps:

    1. If n is even, append one isolated vertex (highest index); else
       start from ``graph`` itself.
    2. Greedily add the cheapest feasible edge until 2m = k(n-1) or stuck.
    3. If stuck, make an exchange move, which nets one edge, and go on
       with step 2.
    4. If no exchange move applies, raise ``GuaranteeViolationError``
       with the stuck host as certificate.  Only the ``density_max_n``
       cap raises ``InstanceTooLargeError``.

    On success the original vertex and edge ids survive as a prefix, the
    density stayed at most k after every accepted step, and the result is
    k-dense.  chi'(G') = k is left to the caller's k-edge-coloring of G'.
    """
    reason = _no_host_reason(graph, k, config)
    if reason is not None:
        raise reason
    work_n = graph.n + 1 - graph.n % 2
    start = graph if work_n == graph.n else Multigraph(work_n, graph.edges)
    target = k * (work_n - 1)
    if tight_sets is None:
        ceiling, tight_sets = _density_ceiling(start, k - 1) or (k, [])
        if ceiling > k:
            raise ValueError(
                f"input density exceeds {k}; the chromatic-index premise is violated"
            )
    base_edges = graph.edges
    added: list[tuple[int, int]] = []
    moves: list[ExchangeMove] = []
    cur = start
    if 2 * cur.m < target:
        con = _Contracted(start, tight_sets)

    while 2 * cur.m < target:
        added += _saturate(cur, k, con)
        cur = Multigraph(work_n, base_edges + tuple(added))
        if 2 * cur.m == target:
            break
        move = _find_exchange(cur, k, added, con)
        if move is None:
            raise GuaranteeViolationError(
                f"saturation stalled at {cur.m} edges, short of {target // 2}: "
                "no edge is addable and no exchange move applies",
                certificate=serialize(cur),
            )
        e1, e2, e3 = move
        added.remove(e1)
        added.extend((e2, e3))
        moves.append(ExchangeMove(e1, (e2, e3)))
        # e1's ends lie in no block, so its removal changes no tight set
        con.add(*e1, -1)
        con.grow(*e2, k)
        con.grow(*e3, k)
        cur = Multigraph(work_n, base_edges + tuple(added))

    return cur, EmbeddingReport(
        parity_vertex_added=work_n != graph.n,
        added_edges=tuple(added),
        exchange_moves=tuple(moves),
        final_n=cur.n,
        final_m=cur.m,
        k=k,
    )
