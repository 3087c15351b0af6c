"""Total-coloring extension, restriction, and the certification pipeline.

The pipeline settles k = chi'(G), checks the hypothesis
k >= max(Delta+2, n+1), embeds G into a k-dense supergraph G', k-edge-colors
G', extends that coloring to a total k-coloring by giving each vertex its
smallest missing color (the k-dense structure makes the missing sets
pairwise disjoint), and restricts back to G, so the result witnesses
chi''(G) = chi'(G) = k.

All four steps run inside ``oracles.chromatic_index``, whose docstring
proves its host route, peeling G to its core C included, and
``oracles._add_back`` builds and checks G's total coloring; the pipeline
takes the certificate's host and total coloring as they are.  So the
pipeline needs |C| + 1 <= k where the theorem needs n + 1 <= k.

By Goldberg-Seymour chi'(G) = max(Delta, ceil(rho)) whenever chi'(G)
meets the hypothesis, so an input without a host is refused:
``HypothesisNotMetError`` carries the exact chi'(G) of the search and
the core's n + 1, ``InstanceTooLargeError`` names the density cap, and
an input that meets both is a counterexample (or a bug) and raises
``GuaranteeViolationError`` carrying G.  The same error carries the host
when no k-edge-coloring of it is found.  Every oracle and embedding
error propagates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .coloring import (
    EdgeColoring,
    TotalColoring,
    _check_covers,
    coloring_to_doc,
    is_proper_total_coloring,
)
from .config import DEFAULT_CONFIG, RunConfig
from .errors import GuaranteeViolationError
from .multigraph import Multigraph, serialize
from .oracles import (
    ChromaticCertificate,
    _core,
    _critical_at,
    _is_dense_whole,
    _no_host_reason,
    chromatic_index,
)

if TYPE_CHECKING:  # embed imports the oracles, which import this module
    from .embed import EmbeddingReport

__all__ = [
    "PipelineRecord",
    "TotalizeCertificate",
    "CorollaryReport",
    "extend_to_total",
    "restrict_total",
    "totalize",
    "corollary_inequality",
    "corollary_applicable",
]


@dataclass(frozen=True)
class PipelineRecord:
    """How the pipeline certified G.  ``peeled`` lists G's vertices taken
    off before embedding, in peel order, and is empty when none was; the
    hypothesis and the embedding are then those of G's core, on the
    core's vertex ids.  The document carries ``peeled`` only when it is
    not empty."""

    chi_prime: int
    hypothesis_delta_plus_2: int
    hypothesis_n_plus_1: int
    embedding: EmbeddingReport
    peeled: tuple[int, ...] = ()

    def to_doc(self) -> dict:
        doc = {
            "chi_prime": self.chi_prime,
            "hypothesis": {
                "delta_plus_2": self.hypothesis_delta_plus_2,
                "n_plus_1": self.hypothesis_n_plus_1,
            },
            "embedding": self.embedding.to_doc(),
        }
        if self.peeled:
            doc["peeled"] = list(self.peeled)
        return doc


@dataclass(frozen=True)
class TotalizeCertificate:
    """A verified total k-coloring of the input together with the audit
    trail; ``g_prime`` and ``g_prime_coloring`` back the --witness output."""

    k: int
    coloring: TotalColoring
    pipeline: PipelineRecord
    g_prime: Multigraph
    g_prime_coloring: EdgeColoring

    def to_doc(self, include_witness: bool = False) -> dict:
        doc = {
            "k": self.k,
            "coloring": coloring_to_doc(self.coloring),
            "pipeline": self.pipeline.to_doc(),
        }
        if include_witness:
            doc["g_prime"] = serialize(self.g_prime)
            doc["g_prime_coloring"] = coloring_to_doc(self.g_prime_coloring)
        return doc


def extend_to_total(graph: Multigraph, phi: EdgeColoring, k: int) -> TotalColoring:
    """Extend a proper k-edge-coloring of a k-dense graph to a total one.

    Each vertex receives the smallest color missing at it.  Because the
    graph is k-dense, every color class inside it is a near-perfect
    matching, so the missing sets are pairwise disjoint and any choice is
    proper.  The input is checked on per-vertex bitmasks of the present
    colors: a repeated color leaves fewer bits than edges, and a running
    union of the missing sets catches two vertices missing one color.  One
    pass over the edges then verifies the result.
    """
    if phi.k != k:
        raise ValueError(f"edge coloring has palette {phi.k}, expected {k}")
    if not _is_dense_whole(graph, k):
        raise GuaranteeViolationError(
            f"graph is not {k}-dense: 2m = {2 * graph.m}, "
            f"k(n-1) = {k * (graph.n - 1)}, n = {graph.n}"
        )
    _check_covers(graph, phi)
    colors = phi.colors
    present = [0] * graph.n
    for (u, v), c in zip(graph.edges, colors):
        present[u] |= 1 << c
        present[v] |= 1 << c
    if any(mask.bit_count() < d for mask, d in zip(present, graph.degrees)):
        raise ValueError("edge coloring is not proper")
    palette = (1 << (k + 1)) - 2  # colors 1..k as bits 1..k
    claimed = 0
    vertex_colors: list[int] = []
    for v, mask in enumerate(present):
        miss = palette & ~mask
        if not miss:
            raise GuaranteeViolationError(
                f"vertex {v} has degree {graph.degrees[v]} = k; no color is free"
            )
        if miss & claimed:
            c = ((miss & claimed) & -(miss & claimed)).bit_length() - 1
            u = next(u for u in range(v) if not present[u] >> c & 1)
            raise GuaranteeViolationError(
                f"vertices {u} and {v} both miss color {c}; "
                "the vertex set is not elementary"
            )
        claimed |= miss
        vertex_colors.append((miss & -miss).bit_length() - 1)
    for (u, v), c in zip(graph.edges, colors):
        a, b = vertex_colors[u], vertex_colors[v]
        if a == b or c == a or c == b:
            raise GuaranteeViolationError(
                "extension produced an improper total coloring; this is a bug"
            )
    return TotalColoring(k, colors, tuple(vertex_colors))


def restrict_total(
    g_prime: Multigraph, psi: TotalColoring, graph: Multigraph
) -> TotalColoring:
    """Restrict a total coloring of a host graph to an id-prefix subgraph."""
    if graph.n > g_prime.n or graph.edges != g_prime.edges[: graph.m]:
        raise ValueError(
            "graph is not an id-prefix of the host graph; ids do not map"
        )
    if len(psi.edge_colors) != g_prime.m or len(psi.vertex_colors) != g_prime.n:
        raise ValueError("coloring does not cover the host graph")
    out = TotalColoring(
        psi.k, psi.edge_colors[: graph.m], psi.vertex_colors[: graph.n]
    )
    if not is_proper_total_coloring(graph, out):
        raise GuaranteeViolationError(
            "restriction broke properness; this is a bug"
        )
    return out


def totalize(
    graph: Multigraph, config: RunConfig = DEFAULT_CONFIG
) -> TotalizeCertificate:
    """Produce a verified total chi'(G)-coloring of G via dense embedding.

    ``chromatic_index`` settles chi'(G) and, on its host route, returns
    the host with its coloring and the checked total coloring of G built
    from them, so the call embeds once, colors once and checks once.  The
    errors it raises are listed in the module docstring.
    """
    chi = chromatic_index(graph, config)
    return _totalize_with(graph, chi, config)


def _totalize_with(
    graph: Multigraph, chi: ChromaticCertificate, config: RunConfig
) -> TotalizeCertificate:
    """``totalize`` after its first step: ``chi`` settles chi'(graph), so a
    caller that already holds it does not pay for the search twice.  On
    the host route its total coloring of G is taken as it is.  Without a
    host, k = chi'(graph) is checked against the hypothesis, on G's core
    at k, and the density cap, whose errors say why no host exists; a k
    that passes both means no host where one must exist.
    """
    k = chi.k
    host = chi.host
    delta = graph.max_degree()
    if host is None:
        reason = _no_host_reason(graph, k, config, _core(graph, k)[0].n)
        if reason is not None:
            raise reason
        raise GuaranteeViolationError(
            f"chi' = {k} meets the hypothesis but no {k}-dense host was "
            "built; this contradicts Goldberg-Seymour (or is a bug)",
            certificate=serialize(graph),
        )
    record = PipelineRecord(
        chi_prime=k,
        hypothesis_delta_plus_2=delta + 2,
        hypothesis_n_plus_1=graph.n - len(chi.peeled) + 1,
        embedding=host.report,
        peeled=chi.peeled,
    )
    return TotalizeCertificate(k, chi.total, record, host.g_prime, host.coloring)


def corollary_inequality(
    graph_n: int, subgraph_n: int, chi_prime: int, delta: int
) -> bool:
    """Exact check of |V(H)| >= (|V(G)| - 2) / (chi' - Delta - 1)."""
    if chi_prime < delta + 2:
        raise ValueError("the size inequality needs chi' >= Delta + 2")
    return Fraction(graph_n - 2, chi_prime - delta - 1) <= subgraph_n


@dataclass(frozen=True)
class CorollaryReport:
    """Applicability of the spanning-critical-subgraph route to chi'' = chi'."""

    applicable: bool
    reason: str
    chi_prime: int
    delta: int
    graph_n: int
    subgraph_n: int | None = None
    subgraph_chi_prime: int | None = None
    subgraph_is_critical: bool | None = None
    threshold: Fraction | None = None
    size_ok: bool | None = None

    def to_doc(self) -> dict:
        return {
            "applicable": self.applicable,
            "reason": self.reason,
            "chi_prime": self.chi_prime,
            "delta": self.delta,
            "graph_n": self.graph_n,
            "subgraph_n": self.subgraph_n,
            "subgraph_chi_prime": self.subgraph_chi_prime,
            "subgraph_is_critical": self.subgraph_is_critical,
            "threshold": str(self.threshold) if self.threshold is not None else None,
            "size_ok": self.size_ok,
        }


def corollary_applicable(
    graph: Multigraph,
    vertices,
    edge_ids=None,
    config: RunConfig = DEFAULT_CONFIG,
) -> CorollaryReport:
    """Check whether a designated subgraph H certifies chi''(G) = chi'(G).

    H is given as a vertex subset plus edge ids (``None`` means the induced
    subgraph).  Applicable iff H is edge-chromatic critical,
    chi'(H) = chi'(G), and |V(H)| >= (|V(G)|-2)/(chi'(G)-Delta(G)-1);
    vacuously false when chi'(G) < Delta(G) + 2.
    """
    cert = chromatic_index(graph, config)
    delta = graph.max_degree()
    if cert.k < delta + 2:
        return CorollaryReport(
            applicable=False,
            reason=f"vacuous: chi' = {cert.k} < Delta + 2 = {delta + 2}",
            chi_prime=cert.k,
            delta=delta,
            graph_n=graph.n,
        )
    inside = graph._vertex_set(vertices)
    vertex_ids = tuple(sorted(inside))
    relabel = {old: new for new, old in enumerate(vertex_ids)}
    if edge_ids is None:
        sub, _, _ = graph.induced_subgraph(vertex_ids)
    else:
        pairs = []
        for eid in sorted(set(edge_ids)):
            if not 0 <= eid < graph.m:
                raise ValueError(f"edge id {eid} out of range")
            u, v = graph.edges[eid]
            if u not in inside or v not in inside:
                raise ValueError(
                    f"edge {eid} = ({u}, {v}) leaves the designated vertex set"
                )
            pairs.append((relabel[u], relabel[v]))
        sub = Multigraph(len(vertex_ids), tuple(pairs))
    sub_cert = chromatic_index(sub, config)
    critical = _critical_at(sub, sub_cert.k, config)
    threshold = Fraction(graph.n - 2, cert.k - delta - 1)
    size_ok = threshold <= sub.n
    if not critical:
        reason = "subgraph is not edge-chromatic critical"
    elif sub_cert.k != cert.k:
        reason = f"chi'(H) = {sub_cert.k} differs from chi'(G) = {cert.k}"
    elif not size_ok:
        reason = f"|V(H)| = {sub.n} below threshold {threshold}"
    else:
        reason = "all conditions hold"
    return CorollaryReport(
        applicable=critical and sub_cert.k == cert.k and size_ok,
        reason=reason,
        chi_prime=cert.k,
        delta=delta,
        graph_n=graph.n,
        subgraph_n=sub.n,
        subgraph_chi_prime=sub_cert.k,
        subgraph_is_critical=critical,
        threshold=threshold,
        size_ok=size_ok,
    )
