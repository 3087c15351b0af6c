"""Coloring values, the missing-color calculus, and coloring verifiers.

An edge coloring assigns every edge id a color in 1..k; a total coloring
additionally assigns every vertex a color.  The calculus functions compute
present/missing color sets at vertices, unions over vertex sets, and the
boundary colors of a vertex set.  The three structural predicates
(elementary, closed, strongly closed) check the coloring-theoretic
properties that drive the dense-embedding pipeline.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .multigraph import Multigraph

__all__ = [
    "EdgeColoring",
    "TotalColoring",
    "present_colors",
    "missing_colors",
    "missing_union",
    "boundary_colors",
    "is_proper_edge_coloring",
    "is_proper_total_coloring",
    "is_elementary",
    "is_closed",
    "is_strongly_closed",
    "permute_colors",
    "coloring_to_doc",
    "coloring_from_doc",
]


def _check_palette(what: str, colors: tuple[int, ...], k: int) -> None:
    """Raise ``ValueError`` naming the first color outside 1..k; colors in
    range cost one ``min`` and one ``max``."""
    if colors and (min(colors) < 1 or max(colors) > k):
        for idx, c in enumerate(colors):
            if not 1 <= c <= k:
                raise ValueError(f"{what} {idx}: color {c} outside 1..{k}")


@dataclass(frozen=True)
class EdgeColoring:
    """Total assignment of colors 1..k to edge ids (index = edge id)."""

    k: int
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "colors", tuple(self.colors))
        if self.k < 0:
            raise ValueError("palette size must be nonnegative")
        _check_palette("edge", self.colors, self.k)


@dataclass(frozen=True)
class TotalColoring:
    """Joint vertex and edge color assignment over the palette 1..k."""

    k: int
    edge_colors: tuple[int, ...]
    vertex_colors: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edge_colors", tuple(self.edge_colors))
        object.__setattr__(self, "vertex_colors", tuple(self.vertex_colors))
        if self.k < 0:
            raise ValueError("palette size must be nonnegative")
        _check_palette("edge", self.edge_colors, self.k)
        _check_palette("vertex", self.vertex_colors, self.k)


def _edge_colors_of(coloring: EdgeColoring | TotalColoring) -> tuple[int, ...]:
    if isinstance(coloring, TotalColoring):
        return coloring.edge_colors
    return coloring.colors


def _check_covers(graph: Multigraph, coloring: EdgeColoring | TotalColoring) -> None:
    edge_colors = _edge_colors_of(coloring)
    if len(edge_colors) != graph.m:
        raise ValueError(
            f"coloring assigns {len(edge_colors)} edges, graph has {graph.m}"
        )
    if isinstance(coloring, TotalColoring) and len(coloring.vertex_colors) != graph.n:
        raise ValueError(
            f"coloring assigns {len(coloring.vertex_colors)} vertices, graph has {graph.n}"
        )


def present_colors(graph: Multigraph, phi: EdgeColoring, v: int) -> frozenset[int]:
    """Colors carried by the edges incident to ``v``."""
    _check_covers(graph, phi)
    graph._check_vertex(v)
    return frozenset(phi.colors[eid] for eid in graph.incidence[v])


def missing_colors(graph: Multigraph, phi: EdgeColoring, v: int) -> frozenset[int]:
    """Palette colors absent at ``v``."""
    return frozenset(range(1, phi.k + 1)) - present_colors(graph, phi, v)


def missing_union(
    graph: Multigraph, phi: EdgeColoring, vertices: Iterable[int]
) -> frozenset[int]:
    """Union of the missing-color sets over a vertex set."""
    out: frozenset[int] = frozenset()
    for v in graph._vertex_set(vertices):
        out |= missing_colors(graph, phi, v)
    return out


def boundary_colors(
    graph: Multigraph, phi: EdgeColoring, vertices: Iterable[int]
) -> frozenset[int]:
    """Colors carried by the boundary edges of a vertex set."""
    _check_covers(graph, phi)
    return frozenset(phi.colors[eid] for eid in graph.boundary_edges(vertices))


def _clash_free(
    graph: Multigraph,
    edge_colors: Sequence[int],
    vertex_colors: Sequence[int] | None = None,
) -> bool:
    """True when the edges at each vertex carry distinct colors and, with
    ``vertex_colors``, each vertex differs from its edges and neighbours.

    One pass over the edges: ``present[v]`` holds a bit for each color seen
    at v so far, seeded with v's own color in the total case, so a repeat
    at either end is a clash.
    """
    total = vertex_colors is not None
    present = [1 << c for c in vertex_colors] if total else [0] * graph.n
    for (u, v), c in zip(graph.edges, edge_colors):
        bit = 1 << c
        if (present[u] | present[v]) & bit:
            return False
        if total and vertex_colors[u] == vertex_colors[v]:
            return False
        present[u] |= bit
        present[v] |= bit
    return True


def is_proper_edge_coloring(graph: Multigraph, phi: EdgeColoring) -> bool:
    """True when no two distinct edges sharing an endpoint share a color."""
    _check_covers(graph, phi)
    return _clash_free(graph, phi.colors)


def is_proper_total_coloring(graph: Multigraph, psi: TotalColoring) -> bool:
    """True when edges are proper, adjacent vertices differ, and every
    vertex differs from each of its incident edges."""
    _check_covers(graph, psi)
    return _clash_free(graph, psi.edge_colors, psi.vertex_colors)


def _require_proper(graph: Multigraph, phi: EdgeColoring) -> None:
    if not is_proper_edge_coloring(graph, phi):
        raise ValueError("edge coloring is not proper")


def is_elementary(
    graph: Multigraph, phi: EdgeColoring, vertices: Iterable[int]
) -> bool:
    """True when the missing-color sets of distinct vertices in the set are
    pairwise disjoint."""
    _require_proper(graph, phi)
    seen: set[int] = set()
    for v in sorted(graph._vertex_set(vertices)):
        miss = missing_colors(graph, phi, v)
        if seen & miss:
            return False
        seen |= miss
    return True


def is_closed(
    graph: Multigraph, phi: EdgeColoring, vertices: Iterable[int]
) -> bool:
    """True when no color missing inside the set appears on its boundary."""
    _require_proper(graph, phi)
    inside = graph._vertex_set(vertices)
    return not (missing_union(graph, phi, inside) & boundary_colors(graph, phi, inside))


def is_strongly_closed(
    graph: Multigraph, phi: EdgeColoring, vertices: Iterable[int]
) -> bool:
    """Closed, and additionally no color repeats on the boundary."""
    _require_proper(graph, phi)
    inside = graph._vertex_set(vertices)
    colors = [phi.colors[eid] for eid in graph.boundary_edges(inside)]
    distinct = set(colors)
    return len(colors) == len(distinct) and not distinct & missing_union(
        graph, phi, inside
    )


def permute_colors(
    coloring: EdgeColoring | TotalColoring, permutation: Sequence[int]
) -> EdgeColoring | TotalColoring:
    """Apply a palette permutation; ``permutation[c-1]`` is the image of c."""
    if sorted(permutation) != list(range(1, coloring.k + 1)):
        raise ValueError(f"not a permutation of 1..{coloring.k}")
    if isinstance(coloring, TotalColoring):
        return TotalColoring(
            coloring.k,
            tuple(permutation[c - 1] for c in coloring.edge_colors),
            tuple(permutation[c - 1] for c in coloring.vertex_colors),
        )
    return EdgeColoring(coloring.k, tuple(permutation[c - 1] for c in coloring.colors))


def coloring_to_doc(coloring: EdgeColoring | TotalColoring) -> dict:
    """Structured document: k, edges [{id, color}], vertices [{v, color}].

    The vertices section is present only for total colorings.
    """
    edge_colors = _edge_colors_of(coloring)
    doc: dict = {
        "k": coloring.k,
        "edges": [{"id": eid, "color": c} for eid, c in enumerate(edge_colors)],
    }
    if isinstance(coloring, TotalColoring):
        doc["vertices"] = [
            {"v": v, "color": c} for v, c in enumerate(coloring.vertex_colors)
        ]
    return doc


def coloring_from_doc(doc: dict) -> EdgeColoring | TotalColoring:
    """Inverse of :func:`coloring_to_doc`; validates id coverage."""
    try:
        k = int(doc["k"])
        edge_entries = list(doc["edges"])
        vertex_entries = list(doc["vertices"]) if "vertices" in doc else None
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed coloring document: {exc}") from None
    edge_colors = _colors_by_index(edge_entries, "id", "edges")
    if vertex_entries is None:
        return EdgeColoring(k, edge_colors)
    vertex_colors = _colors_by_index(vertex_entries, "v", "vertices")
    return TotalColoring(k, edge_colors, vertex_colors)


def _colors_by_index(entries: list, key: str, section: str) -> tuple[int, ...]:
    by_index: dict[int, int] = {}
    for entry in entries:
        try:
            idx, color = int(entry[key]), int(entry["color"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed {section} entry: {exc}") from None
        if idx in by_index:
            raise ValueError(f"duplicate {section} entry for {key}={idx}")
        by_index[idx] = color
    if sorted(by_index) != list(range(len(by_index))):
        raise ValueError(f"{section} section must cover 0..{len(by_index) - 1} exactly")
    return tuple(by_index[i] for i in range(len(by_index)))
