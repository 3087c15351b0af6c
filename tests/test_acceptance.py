"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; each criterion asserts its stated tolerances (exact equalities and
zero violation counts) and its stated runtime budget.
"""

import json
import math
import random
import subprocess
import sys
import time
from functools import lru_cache

from densecolor import (
    HypothesisNotMetError,
    Multigraph,
    chromatic_index,
    corollary_applicable,
    corollary_inequality,
    cycle,
    density,
    disjoint_union,
    embed_k_dense,
    fixture,
    fixture_names,
    gen_fat_cycle,
    gen_random_multigraph,
    is_edge_critical,
    is_elementary,
    is_k_dense,
    is_proper_total_coloring,
    is_strongly_closed,
    maximal_k_dense_subgraphs,
    permute_colors,
    serialize,
    total_chromatic_number,
    totalize,
)

from brute import exhaustive_small_multigraphs

MASTER_SEED = 20260811


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@lru_cache(maxsize=1)
def seeded_random_instances() -> tuple[Multigraph, ...]:
    """500 seeded random instances with n <= 5 and m <= 10."""
    rng = random.Random(MASTER_SEED)
    out = []
    for _ in range(500):
        n = rng.randint(2, 5)
        cap = rng.randint(1, 3)
        m_max = min(10, cap * n * (n - 1) // 2)
        m = rng.randint(0, m_max)
        out.append(gen_random_multigraph(n, m, cap, rng.getrandbits(32)))
    return tuple(out)


def test_criterion_01_fat_triangle_end_to_end():
    t0 = time.perf_counter()
    t2 = gen_fat_cycle(3, 2)
    cert = totalize(t2)
    cross_check = total_chromatic_number(t2).k
    elapsed = time.perf_counter() - t0
    ok = (
        cert.k == 6
        and is_proper_total_coloring(t2, cert.coloring)
        and chromatic_index(t2).k == 6
        and cross_check == 6
        and elapsed < 1.0
    )
    report(1, ok, f"totalize(T2) verified with k=6=chi'=chi'' in {elapsed:.3f}s")


def test_criterion_02_nontrivial_embedding():
    # embed_k_dense builds G's own host; totalize peels the two isolated
    # vertices first and embeds only T2, which is already 6-dense
    t0 = time.perf_counter()
    g = fixture("t2-2k1")
    g_prime, emb = embed_k_dense(g, 6)
    cert = totalize(g)
    elapsed = time.perf_counter() - t0
    ok = (
        cert.k == 6
        and len(emb.added_edges) == 6
        and (emb.final_n, emb.final_m) == (5, 12)
        and is_k_dense(g_prime, range(5), 6)
        and chromatic_index(g_prime).k == 6
        and is_proper_total_coloring(g, cert.coloring)
        and cert.g_prime == gen_fat_cycle(3, 2)
        and cert.pipeline.peeled == (3, 4)
        and elapsed < 5.0
    )
    report(
        2,
        ok,
        f"T2+2K1 embedded with 6 added edges to (n=5, m=12); totalize embeds "
        f"only T2 and gives a verified total 6-coloring in {elapsed:.3f}s",
    )


def test_criterion_03_parity_step():
    g = fixture("t2-k1")
    g_prime, emb = embed_k_dense(g, 6)
    cert = totalize(g)
    ok = (
        emb.parity_vertex_added
        and cert.k == 6
        and is_k_dense(g_prime, range(5), 6)
        and is_proper_total_coloring(g, cert.coloring)
        and cert.g_prime == gen_fat_cycle(3, 2)
        and cert.pipeline.peeled == (3,)
    )
    report(
        3,
        ok,
        "even-order T2+K1 triggers the isolated-vertex parity step, k=6; "
        "totalize embeds only T2",
    )


def test_criterion_04_fat_c5_mult_4():
    t0 = time.perf_counter()
    g = gen_fat_cycle(5, 4)
    dens = density(g)
    cert = totalize(g)
    elapsed = time.perf_counter() - t0
    ok = (
        g.max_degree() == 8
        and dens.value == 10
        and cert.k == 10
        and cert.g_prime == g
        and is_k_dense(g, range(5), 10)
        and is_proper_total_coloring(g, cert.coloring)
        and elapsed < 30.0
    )
    report(4, ok, f"fat C5 (mult 4) totalized in place with k=10 in {elapsed:.3f}s")


def test_criterion_05_hypothesis_boundary():
    c5 = cycle(5)
    rejected = False
    try:
        totalize(c5)
    except HypothesisNotMetError as exc:
        rejected = exc.chi_prime == 3
    ok = (
        rejected
        and chromatic_index(c5).k == 3
        and total_chromatic_number(c5).k == 4
        and is_edge_critical(c5)
        and not is_edge_critical(cycle(6))
    )
    report(
        5,
        ok,
        "C5 rejected (chi'=3 < Delta+2), chi''=4=chi'+1, C5 critical, C6 not",
    )


def test_criterion_06_density_identity_suite():
    t0 = time.perf_counter()
    checked = 0
    violations = []
    for g in exhaustive_small_multigraphs() + seeded_random_instances():
        cert = chromatic_index(g)
        if cert.k < g.max_degree() + 2:
            continue
        checked += 1
        if cert.k != math.ceil(density(g).value):
            violations.append(g)
    elapsed = time.perf_counter() - t0
    ok = checked > 0 and not violations and elapsed < 600.0
    report(
        6,
        ok,
        f"chi' = ceil(rho) on all {checked} instances with chi' >= Delta+2 "
        f"(of {len(exhaustive_small_multigraphs()) + len(seeded_random_instances())} "
        f"enumerated) in {elapsed:.1f}s",
    )


def test_criterion_07_dense_colorings_elementary():
    rng = random.Random(MASTER_SEED)
    failures = []
    cases = [("t2", 6), ("fat-c5-m4", 10), ("fat-c3-m3", 9)]
    for name, k in cases:
        g = fixture(name)
        cert = chromatic_index(g)
        if cert.k != k or not is_k_dense(g, range(g.n), k):
            failures.append((name, "setup"))
            continue
        colorings = [cert.witness]
        for _ in range(20):
            perm = list(range(1, k + 1))
            rng.shuffle(perm)
            colorings.append(permute_colors(cert.witness, tuple(perm)))
        for phi in colorings:
            if not is_elementary(g, phi, range(g.n)) or not is_strongly_closed(
                g, phi, range(g.n)
            ):
                failures.append((name, "predicate"))
    report(
        7,
        not failures,
        f"21 optimal colorings per dense instance {[c[0] for c in cases]} are "
        f"elementary and strongly closed (failures: {failures})",
    )


def test_criterion_08_maximal_dense_disjointness():
    instances = [fixture(name) for name in fixture_names()]
    instances += list(seeded_random_instances()[:150])
    checked = 0
    violations = 0
    for g in instances:
        if g.n > 20:
            continue
        cert = chromatic_index(g)
        if cert.k == 0 or cert.k < g.max_degree() + 1:
            continue
        checked += 1
        seen: set[int] = set()
        for s in maximal_k_dense_subgraphs(g, cert.k):
            if seen & set(s):
                violations += 1
            seen.update(s)
    tt = disjoint_union(gen_fat_cycle(3, 2), gen_fat_cycle(3, 2))
    explicit = maximal_k_dense_subgraphs(tt, 6) == [(0, 1, 2), (3, 4, 5)]
    ok = checked > 0 and violations == 0 and explicit
    report(
        8,
        ok,
        f"maximal dense sets pairwise disjoint on {checked} instances with "
        f"chi' >= Delta+1; T2+T2 yields exactly the two triangles",
    )


def test_criterion_09_bound_sanity_and_monotonicity():
    violations = []
    for g in exhaustive_small_multigraphs() + seeded_random_instances():
        delta, mu = g.max_degree(), g.multiplicity()
        chi = chromatic_index(g).k
        rho = density(g).value
        if not (delta <= chi <= delta + mu or (g.m == 0 and chi == 0)):
            violations.append(("degree-bounds", g))
        if rho > chi:
            violations.append(("density-bound", g))
        if g.n + g.m <= 24 and chi > total_chromatic_number(g).k:
            violations.append(("total-bound", g))
    rng = random.Random(MASTER_SEED + 1)
    pairs_checked = 0
    while pairs_checked < 200:
        n = rng.randint(2, 5)
        cap = rng.randint(1, 3)
        m = rng.randint(0, min(9, cap * n * (n - 1) // 2 - 1))
        g = gen_random_multigraph(n, m, cap, rng.getrandbits(32))
        candidates = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if g.adjacency_counts[u][v] < cap
        ]
        if not candidates:
            continue
        u, v = candidates[rng.randrange(len(candidates))]
        bigger = g.with_edge(u, v)
        pairs_checked += 1
        if density(bigger).value < density(g).value:
            violations.append(("density-monotone", g))
        if chromatic_index(bigger).k < chromatic_index(g).k:
            violations.append(("chi-monotone", g))
        if total_chromatic_number(bigger).k < total_chromatic_number(g).k:
            violations.append(("total-monotone", g))
    report(
        9,
        not violations,
        f"bound chains on all generated instances and monotonicity on "
        f"{pairs_checked} seeded edge-addition pairs (violations: "
        f"{[v[0] for v in violations]})",
    )


def test_criterion_10_corollary_arithmetic_and_spanning_case():
    t2 = gen_fat_cycle(3, 2)
    arithmetic = (
        corollary_inequality(5, 5, 10, 8)  # threshold 3 <= 5
        and not corollary_inequality(10, 3, 4, 2)  # threshold 8 > 3
    )
    small_h = corollary_applicable(t2, {0, 1}, edge_ids=(0, 1))
    critical = is_edge_critical(t2)
    spanning = corollary_applicable(t2, range(3))
    end_to_end = True
    if critical:
        cert = totalize(t2)
        end_to_end = cert.k == chromatic_index(t2).k and is_proper_total_coloring(
            t2, cert.coloring
        )
    ok = (
        arithmetic
        and not small_h.applicable
        and small_h.subgraph_chi_prime == 2
        and critical
        and spanning.applicable
        and end_to_end
    )
    report(
        10,
        ok,
        "size inequality evaluates exactly as stated; T2 is its own spanning "
        "critical subgraph and totalizes with chi'' = chi'",
    )


def test_criterion_11_determinism(tmp_path):
    graph_file = tmp_path / "g.mg"
    graph_file.write_text(serialize(fixture("t2-2k1")))
    coloring_file = tmp_path / "c.json"
    from densecolor import coloring_to_doc

    coloring_file.write_text(
        json.dumps(coloring_to_doc(totalize(fixture("t2-2k1")).coloring))
    )
    invocations = [
        ["density", str(graph_file)],
        ["chi-index", str(graph_file)],
        ["chi-total", "-"],
        ["embed", str(graph_file)],
        ["totalize", "--witness", str(graph_file)],
        ["verify", str(graph_file), str(coloring_file)],
        ["gen", "--random", "5", "8", "2", "--seed", "42"],
        ["search", "--fixtures", "--random-count", "5", "--seed", "7"],
    ]
    stdin_for = {"chi-total": serialize(cycle(5))}
    mismatches = []
    for argv in invocations:
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "densecolor", argv[0], "--format", "json"]
                + argv[1:],
                input=stdin_for.get(argv[0], ""),
                capture_output=True,
                text=True,
            )
            runs.append((proc.returncode, proc.stdout.encode()))
        if runs[0] != runs[1]:
            mismatches.append(argv[0])
    ok = not mismatches
    report(
        11,
        ok,
        f"all {len(invocations)} subcommands byte-identical across repeat runs "
        f"(mismatches: {mismatches})",
    )
