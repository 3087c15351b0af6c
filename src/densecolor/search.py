"""Conjecture-exploration harness.

Scans a corpus of instances for graphs with chi' >= Delta + 3 and checks
whether the total chromatic number collapses to chi'.  When
``chromatic_index`` settled chi' on its host route, the certificate's
total chi'-coloring of G settles it (method ``totalize``): no second
embedding and no total-coloring search.  Any other in-hypothesis instance
goes to the exhaustive total-coloring oracle once the pipeline has said
why it has no host, and is skipped, with that reason, when the oracle
refuses it as too large.  Any violation would be
emitted as a counterexample certificate carrying the graph and both
exact certificates, whose witnesses the oracles that made them have
checked, so the harness checks none again; a ``GuaranteeViolationError``
(among them an improper witness, and an in-hypothesis graph with no host
and no reason for none) propagates with its certificate at every size.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import DEFAULT_CONFIG, RunConfig
from .errors import (
    BudgetExceededError,
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

    def record(status, chi_prime=None, chi_total=None, method=None, detail=None):
        return InstanceRecord(
            name, graph.n, graph.m, delta, chi_prime, chi_total, status, method,
            detail,
        )

    try:
        chi_cert = chromatic_index(graph, config)
    except (InstanceTooLargeError, BudgetExceededError) as exc:
        return record("skipped", detail=str(exc)), None
    k = chi_cert.k
    if k < delta + 3:
        detail = f"chi' = {k} < Delta + 3 = {delta + 3}"
        return record("out-of-hypothesis", k, detail=detail), None
    # inside the conjecture hypothesis: settle chi'' by the host that settled
    # chi', else, with the reason there is no host, by the total oracle
    try:
        _totalize_with(graph, chi_cert, config)
    except (HypothesisNotMetError, InstanceTooLargeError) as exc:
        no_host = exc
    else:
        # a verified total k-coloring plus chi'' >= chi' settles equality
        return record("holds", k, k, "totalize"), None
    try:
        total_cert = total_chromatic_number(graph, config)
    except InstanceTooLargeError:
        detail = str(no_host)
        if isinstance(no_host, HypothesisNotMetError):
            detail = f"too large for the total oracle and {detail}"
        return record("skipped", k, method="totalize", detail=detail), None
    except BudgetExceededError as exc:
        return record("skipped", k, method="total-oracle", detail=str(exc)), None
    if total_cert.k == k:
        return record("holds", k, k, "total-oracle"), None
    rec = record(
        "violation", k, total_cert.k, "total-oracle",
        f"chi'' = {total_cert.k} differs from chi' = {k}",
    )
    cert = CounterexampleCertificate(
        name, serialize(graph), chi_cert.to_doc(), total_cert.to_doc()
    )
    return rec, cert


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
