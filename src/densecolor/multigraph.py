"""Loopless multigraph values and their line-oriented text format.

Vertices are the integers 0..n-1.  Parallel edges are first class: an edge
is identified by its position in the edge sequence (a dense integer id),
never by its endpoint pair, so colorings can key on edge ids.  Graph values
are immutable; every edit returns a new value.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

from .errors import GraphFormatError

__all__ = ["Multigraph", "parse", "serialize"]


@dataclass(frozen=True)
class Multigraph:
    """A loopless multigraph with ``n`` vertices and id-indexed edges."""

    n: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        # tuple([...]), not tuple(<generator>): CPython sizes a tuple built
        # from a generator by guess and shrinks it, and each shrunk small
        # tuple stays on its free list, so memory would grow with every
        # graph built (here and in the cached properties below)
        object.__setattr__(self, "edges", tuple([(u, v) for u, v in self.edges]))
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        for eid, (u, v) in enumerate(self.edges):
            if u == v:
                raise ValueError(f"edge {eid}: loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {eid}: endpoint ({u}, {v}) out of range")

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """Edge ids incident to each vertex, in id order."""
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for eid, (u, v) in enumerate(self.edges):
            inc[u].append(eid)
            inc[v].append(eid)
        return tuple([tuple(ids) for ids in inc])

    @cached_property
    def adjacency_counts(self) -> tuple[tuple[int, ...], ...]:
        """Symmetric n-by-n matrix of parallel-edge counts."""
        cnt = [[0] * self.n for _ in range(self.n)]
        for u, v in self.edges:
            cnt[u][v] += 1
            cnt[v][u] += 1
        return tuple([tuple(row) for row in cnt])

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.degrees[v]

    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    def multiplicity(self) -> int:
        """Largest number of parallel edges over any vertex pair (0 if
        edgeless), counted from the edge list in O(m)."""
        pairs = Counter([(u, v) if u < v else (v, u) for u, v in self.edges])
        return max(pairs.values(), default=0)

    def induced_subgraph(
        self, vertices: Iterable[int]
    ) -> tuple["Multigraph", tuple[int, ...], tuple[int, ...]]:
        """Subgraph induced by a vertex set, with maps back to this graph.

        Returns ``(H, vertex_ids, edge_ids)`` where ``vertex_ids[i]`` is the
        original index of H's vertex ``i`` (ascending) and ``edge_ids[j]``
        the original id of H's edge ``j``.
        """
        inside = self._vertex_set(vertices)
        vertex_ids = tuple(sorted(inside))
        relabel = {old: new for new, old in enumerate(vertex_ids)}
        pairs: list[tuple[int, int]] = []
        edge_ids: list[int] = []
        for eid, (u, v) in enumerate(self.edges):
            if u in inside and v in inside:
                pairs.append((relabel[u], relabel[v]))
                edge_ids.append(eid)
        return Multigraph(len(vertex_ids), tuple(pairs)), vertex_ids, tuple(edge_ids)

    def boundary_edges(self, vertices: Iterable[int]) -> frozenset[int]:
        """Ids of edges with exactly one end in the given vertex set."""
        inside = self._vertex_set(vertices)
        return frozenset(
            eid for eid, (u, v) in enumerate(self.edges) if (u in inside) != (v in inside)
        )

    def edges_between(self, xs: Iterable[int], ys: Iterable[int]) -> frozenset[int]:
        """Ids of edges joining the two (disjoint) vertex sets."""
        left = self._vertex_set(xs)
        right = self._vertex_set(ys)
        if left & right:
            raise ValueError(f"vertex sets overlap: {sorted(left & right)}")
        return frozenset(
            eid
            for eid, (u, v) in enumerate(self.edges)
            if (u in left and v in right) or (u in right and v in left)
        )

    def edges_inside(self, vertices: Iterable[int]) -> int:
        """Number of edges with both ends in the given vertex set."""
        inside = self._vertex_set(vertices)
        return sum(1 for u, v in self.edges if u in inside and v in inside)

    def with_edge(self, u: int, v: int) -> "Multigraph":
        return Multigraph(self.n, self.edges + ((u, v),))

    def without_edge(self, eid: int) -> "Multigraph":
        if not 0 <= eid < self.m:
            raise ValueError(f"edge id {eid} out of range")
        return Multigraph(self.n, self.edges[:eid] + self.edges[eid + 1 :])

    def with_extra_vertex(self) -> "Multigraph":
        """Append one isolated vertex (it receives the highest index)."""
        return Multigraph(self.n + 1, self.edges)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range 0..{self.n - 1}")

    def _vertex_set(self, vertices: Iterable[int]) -> frozenset[int]:
        out = frozenset(vertices)
        for v in out:
            self._check_vertex(v)
        return out


def _line_fields(raw: str) -> list[str]:
    """The fields of one line of the format: none for a blank line or a
    comment, which is ``c`` alone or ``c`` and a space, then anything."""
    line = raw.strip()
    if line == "c" or line.startswith("c "):
        return []
    return line.split()


def parse(text: str) -> Multigraph:
    """Parse the line-oriented multigraph format.

    The format is DIMACS-flavored: optional comment lines starting with
    ``c``, one header ``p multigraph <n> <m>``, then m lines ``e <u> <v>``
    with 1-indexed endpoints.  Repeated ``e`` lines encode parallel edges;
    edge ids are assigned 0..m-1 in line order.
    """
    n: int | None = None
    m_declared = 0
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = _line_fields(raw)
        if not fields:
            continue
        if fields[0] == "p":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: duplicate problem line")
            if len(fields) != 4 or fields[1] != "multigraph":
                raise GraphFormatError(
                    f"line {lineno}: expected 'p multigraph <n> <m>'"
                )
            try:
                n, m_declared = int(fields[2]), int(fields[3])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer counts") from None
            if n < 0 or m_declared < 0:
                raise GraphFormatError(f"line {lineno}: negative counts")
        elif fields[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before problem line")
            if len(fields) != 3:
                raise GraphFormatError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer endpoint") from None
            if u == v:
                raise GraphFormatError(f"line {lineno}: loop edge at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(
                    f"line {lineno}: endpoint out of range 1..{n}"
                )
            pairs.append((u - 1, v - 1))
        else:
            raise GraphFormatError(
                f"line {lineno}: unrecognized line kind {fields[0]!r}"
            )
    if n is None:
        raise GraphFormatError("missing problem line 'p multigraph <n> <m>'")
    if len(pairs) != m_declared:
        raise GraphFormatError(
            f"declared {m_declared} edges but found {len(pairs)} 'e' lines"
        )
    return Multigraph(n, tuple(pairs))


def serialize(graph: Multigraph) -> str:
    """Canonical text for a graph; ``parse(serialize(g)) == g``."""
    lines = [f"p multigraph {graph.n} {graph.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"
