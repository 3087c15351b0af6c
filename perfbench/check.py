"""Independent output checks for the benchmark.

Nothing here imports ``densecolor``: every expected value is recomputed
from the plain edge list the benchmark built, so a fault in the program's
own verifiers cannot hide a wrong answer.

A total coloring that is proper, uses colors 1..k and covers every vertex
and edge shows chi'' <= k.  When k also equals a lower bound on chi' (the
maximum degree, or ceil(2|E(S)|/(|S|-1)) for an odd set S), then
k <= chi' <= chi'' <= k, so chi'' = chi' = k without trusting the program.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil

Edges = tuple[tuple[int, int], ...]


def max_degree(n: int, edges: Edges) -> int:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg, default=0)


def multiplicity(edges: Edges) -> int:
    count: dict[tuple[int, int], int] = {}
    for u, v in edges:
        key = (min(u, v), max(u, v))
        count[key] = count.get(key, 0) + 1
    return max(count.values(), default=0)


def set_density(edges: Edges, subset: tuple[int, ...]) -> Fraction:
    """2|E(S)|/(|S|-1) for one odd vertex set S with |S| >= 3."""
    inside = set(subset)
    if len(inside) < 3 or len(inside) % 2 == 0:
        raise ValueError(f"density needs an odd set of at least 3 vertices: {subset}")
    count = sum(1 for u, v in edges if u in inside and v in inside)
    return Fraction(2 * count, len(inside) - 1)


def densest_odd_set(n: int, edges: Edges) -> tuple[Fraction, tuple[int, ...] | None]:
    """Brute-force rho over every odd subset of the n vertices.

    Returns the density and the first maximizing set, or (0, None) when
    there is no odd set of three or more vertices.
    """
    pairs = [(1 << u) | (1 << v) for u, v in edges]
    best_num, best_den, best_mask = 0, 1, 0
    for mask in range(1 << n):
        size = mask.bit_count()
        if size < 3 or size % 2 == 0:
            continue
        inner = sum(1 for pair in pairs if pair & mask == pair)
        if 2 * inner * best_den > best_num * (size - 1):
            best_num, best_den, best_mask = 2 * inner, size - 1, mask
    if not best_mask:
        return Fraction(0), None
    return Fraction(best_num, best_den), tuple(v for v in range(n) if best_mask >> v & 1)


def fat_cycle_index(length: int, mult: int) -> int:
    """Closed form chi' of the odd cycle C_{2r+1} with every edge taken
    ``mult`` times: ceil((2r+1) mult / r)."""
    r = (length - 1) // 2
    return -(-length * mult // r)


def total_coloring_faults(
    n: int, edges: Edges, k: int, edge_colors, vertex_colors
) -> list[str]:
    """Reasons the coloring is not a proper total k-coloring of (n, edges)."""
    faults = []
    if len(edge_colors) != len(edges):
        faults.append(f"colors {len(edge_colors)} edge ids, graph has {len(edges)}")
    if len(vertex_colors) != n:
        faults.append(f"colors {len(vertex_colors)} vertices, graph has {n}")
    if faults:
        return faults
    for what, colors in (("edge", edge_colors), ("vertex", vertex_colors)):
        for i, c in enumerate(colors):
            if not (isinstance(c, int) and 1 <= c <= k):
                faults.append(f"{what} {i} has color {c!r} outside 1..{k}")
    seen: list[dict[int, int]] = [{} for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        c = edge_colors[eid]
        for w in (u, v):
            if c in seen[w]:
                faults.append(f"edges {seen[w][c]} and {eid} share color {c} at vertex {w}")
            seen[w][c] = eid
            if vertex_colors[w] == c:
                faults.append(f"edge {eid} and its end {w} share color {c}")
        if vertex_colors[u] == vertex_colors[v]:
            faults.append(f"adjacent vertices {u} and {v} share color {vertex_colors[u]}")
    return faults


def check_totalize(
    n: int, edges: Edges, lower_bound: int, k: int, edge_colors, vertex_colors
) -> list[str]:
    """Faults in a totalize answer: k must equal the benchmark's own lower
    bound on chi', and the coloring must be a proper total k-coloring."""
    faults = []
    if k != lower_bound:
        faults.append(f"k = {k}, but the lower bound derived for this input is {lower_bound}")
    return faults + total_coloring_faults(n, edges, k, edge_colors, vertex_colors)


def check_search_record(
    n: int,
    edges: Edges,
    rec: dict,
    rho: Fraction,
    known_index: int | None = None,
) -> list[str]:
    """Faults in one ``search`` record (given as its ``to_doc`` dict).

    A ``skipped`` record has no claim to check.  Any other record must
    describe the input, carry a chi' inside [max(Delta, ceil rho),
    Delta + mu] that equals ceil rho whenever it exceeds Delta + 1, agree
    with ``known_index`` when the benchmark knows chi', and settle chi'' =
    chi' whenever it claims ``holds``.
    """
    delta = max_degree(n, edges)
    faults = []
    if (rec["n"], rec["m"], rec["delta"]) != (n, len(edges), delta):
        faults.append(
            f"record describes n={rec['n']} m={rec['m']} Delta={rec['delta']}, "
            f"input has n={n} m={len(edges)} Delta={delta}"
        )
    status = rec["status"]
    if status == "violation":
        return faults + [f"reports a violation: {rec['detail']}"]
    if status == "skipped":
        return faults
    chi = rec["chi_prime"]
    if not isinstance(chi, int):
        return faults + [f"status {status} without chi'"]
    low, high = max(delta, ceil(rho)), delta + multiplicity(edges)
    if not low <= chi <= high:
        faults.append(f"chi' = {chi} outside [{low}, {high}]")
    if chi > delta + 1 and chi != ceil(rho):
        faults.append(f"chi' = {chi} > Delta + 1 but ceil(rho) = {ceil(rho)}")
    if known_index is not None and chi != known_index:
        faults.append(f"chi' = {chi}, known value is {known_index}")
    if status == "holds":
        if chi < delta + 3:
            faults.append(f"holds with chi' = {chi} < Delta + 3")
        if rec["chi_total"] != chi:
            faults.append(f"holds with chi'' = {rec['chi_total']} != chi' = {chi}")
    elif status == "out-of-hypothesis":
        if chi >= delta + 3:
            faults.append(f"out-of-hypothesis with chi' = {chi} >= Delta + 3")
    else:
        faults.append(f"unknown status {status!r}")
    return faults
