"""Conjecture-exploration harness.

Scans a corpus of instances for graphs with chi' >= Delta + 3 and checks
whether the total chromatic number collapses to chi'.  When
``chromatic_index`` settled chi' on its host route, the certificate's host
coloring is extended and restricted to a total chi'-coloring (method
``totalize``): no second embedding and no total-coloring search.  Every
other in-hypothesis instance goes to the exhaustive total-coloring
oracle, or is skipped, with the reason it has no host, when it is too
large for that.  Any violation would be emitted as a counterexample
certificate carrying the graph and both exact certificates; a
``GuaranteeViolationError`` (an in-hypothesis graph without a host among
them) propagates with its certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import is_proper_edge_coloring, is_proper_total_coloring
from .config import DEFAULT_CONFIG, RunConfig
from .errors import (
    BudgetExceededError,
    GuaranteeViolationError,
    HypothesisNotMetError,
    InstanceTooLargeError,
)
from .multigraph import Multigraph, serialize
from .oracles import chromatic_index, total_chromatic_number
from .totalize import _totalize_with

__all__ = ["InstanceRecord", "CounterexampleCertificate", "SearchOutcome", "search_goldberg"]


@dataclass(frozen=True)
class InstanceRecord:
    name: str
    n: int
    m: int
    delta: int
    chi_prime: int | None
    chi_total: int | None
    status: str  # "holds", "violation", "out-of-hypothesis", "skipped"
    method: str | None  # "total-oracle" or "totalize"
    detail: str | None

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "m": self.m,
            "delta": self.delta,
            "chi_prime": self.chi_prime,
            "chi_total": self.chi_total,
            "status": self.status,
            "method": self.method,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class CounterexampleCertificate:
    name: str
    graph_text: str
    chi_prime_doc: dict
    chi_total_doc: dict

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "graph": self.graph_text,
            "chi_prime": self.chi_prime_doc,
            "chi_total": self.chi_total_doc,
        }


@dataclass(frozen=True)
class SearchOutcome:
    records: tuple[InstanceRecord, ...]
    violations: tuple[CounterexampleCertificate, ...]

    @property
    def counts(self) -> dict[str, int]:
        out = {"holds": 0, "violation": 0, "out-of-hypothesis": 0, "skipped": 0}
        for rec in self.records:
            out[rec.status] += 1
        return out

    def to_doc(self) -> dict:
        return {
            "counts": self.counts,
            "instances": [rec.to_doc() for rec in self.records],
            "violations": [v.to_doc() for v in self.violations],
        }


def _evaluate(
    item: tuple[str, Multigraph, RunConfig],
) -> tuple[InstanceRecord, CounterexampleCertificate | None]:
    name, graph, config = item
    delta = graph.max_degree()
    try:
        chi_cert = chromatic_index(graph, config)
    except (InstanceTooLargeError, BudgetExceededError) as exc:
        rec = InstanceRecord(
            name, graph.n, graph.m, delta, None, None, "skipped", None, str(exc)
        )
        return rec, None
    k = chi_cert.k
    if k < delta + 3:
        rec = InstanceRecord(
            name, graph.n, graph.m, delta, k, None, "out-of-hypothesis", None,
            f"chi' = {k} < Delta + 3 = {delta + 3}",
        )
        return rec, None
    # inside the conjecture hypothesis: settle chi'' by the host that settled
    # chi', else by the oracle, else skip with the reason there is no host
    if chi_cert.host is None and graph.n + graph.m <= config.total_max_elements:
        try:
            total_cert = total_chromatic_number(graph, config)
        except BudgetExceededError as exc:
            rec = InstanceRecord(
                name, graph.n, graph.m, delta, k, None, "skipped",
                "total-oracle", str(exc),
            )
            return rec, None
        if total_cert.k == k:
            rec = InstanceRecord(
                name, graph.n, graph.m, delta, k, total_cert.k, "holds",
                "total-oracle", None,
            )
            return rec, None
        rec = InstanceRecord(
            name, graph.n, graph.m, delta, k, total_cert.k, "violation",
            "total-oracle", f"chi'' = {total_cert.k} differs from chi' = {k}",
        )
        # both witnesses re-verify before the certificate is emitted
        if not is_proper_edge_coloring(graph, chi_cert.witness) or not (
            is_proper_total_coloring(graph, total_cert.witness)
        ):
            raise GuaranteeViolationError(
                f"counterexample witness for {name} failed re-verification"
            )
        cert = CounterexampleCertificate(
            name, serialize(graph), chi_cert.to_doc(), total_cert.to_doc()
        )
        return rec, cert
    try:
        _totalize_with(graph, chi_cert, config)
    except HypothesisNotMetError as exc:
        rec = InstanceRecord(
            name, graph.n, graph.m, delta, k, None, "skipped", "totalize",
            f"too large for the total oracle and {exc}",
        )
        return rec, None
    except InstanceTooLargeError as exc:
        rec = InstanceRecord(
            name, graph.n, graph.m, delta, k, None, "skipped", "totalize", str(exc)
        )
        return rec, None
    # a verified total k-coloring plus chi'' >= chi' settles equality
    rec = InstanceRecord(
        name, graph.n, graph.m, delta, k, k, "holds", "totalize", None
    )
    return rec, None


def search_goldberg(
    instances,
    config: RunConfig = DEFAULT_CONFIG,
    jobs: int = 1,
) -> SearchOutcome:
    """Evaluate named instances; the report is sorted by instance name.

    ``instances`` is an iterable of (name, graph) pairs.  With ``jobs > 1``
    the instances fan out to a process pool of at most one worker per
    instance (under ``fork`` the pool starts all its workers at the first
    submit); aggregation is order-independent and the outcome is
    canonically sorted either way.
    """
    items = [(name, graph, config) for name, graph in instances]
    workers = min(jobs, len(items))
    if workers > 1:
        # imported here so that ``import densecolor`` stays free of
        # multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_evaluate, items))
    else:
        results = [_evaluate(item) for item in items]
    results.sort(key=lambda rc: rc[0].name)
    records = tuple([rec for rec, _ in results])
    violations = tuple([cert for _, cert in results if cert is not None])
    return SearchOutcome(records, violations)
