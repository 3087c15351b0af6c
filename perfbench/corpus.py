"""Seeded inputs of the three workloads, with their expected values.

The benchmark builds graphs through ``densecolor``'s generators; the
program receives only the finished inputs.  Every expectation (the dense
odd set, the lower bound, rho) is computed here by brute force, apart from
the program.  A corpus has the same number of cases and the same fixed
cases for every seed; the seed draws only the random cases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from check import Edges, densest_odd_set, fat_cycle_index, max_degree, set_density


@dataclass(frozen=True)
class Case:
    name: str
    n: int
    edges: Edges
    lower_bound: int = 0  # totalize: the k the answer must have
    rho: Fraction = Fraction(0)  # search: brute-forced density
    known_index: int | None = None  # search: chi' known in closed form
    text: str = ""  # search: the serialised input the op parses


def _totalize_case(name: str, n: int, edges: Edges, dense_set: tuple[int, ...]) -> Case:
    bound = max(max_degree(n, edges), ceil(set_density(edges, dense_set)))
    return Case(name, n, edges, lower_bound=bound)


def _meets_hypothesis(case: Case) -> bool:
    """chi' >= max(Delta+2, n+1), judged by the benchmark's own lower bound
    (for k >= Delta+2 the Goldberg-Seymour theorem makes it chi' itself)."""
    return case.lower_bound >= max(max_degree(case.n, case.edges) + 2, case.n + 1)


def _random_dense(dc, rng: random.Random, name: str, n: int, core: int,
                  m_range: tuple[int, int], cap: int, extra_check=lambda case: True) -> Case:
    """A random core on ``core`` vertices with an edge count drawn from
    ``m_range``, padded to n vertices, redrawn until it meets the
    hypothesis and ``extra_check``."""
    while True:
        m = rng.randint(*m_range)
        graph = dc.gen_random_multigraph(core, m, cap, rng.getrandbits(32))
        _, dense_set = densest_odd_set(core, graph.edges)
        if dense_set is None:
            continue
        case = _totalize_case(name, n, graph.edges, dense_set)
        if _meets_hypothesis(case) and extra_check(case):
            return case


def _triangle(a: int, b: int, c: int) -> Edges:
    return ((0, 1),) * a + ((1, 2),) * b + ((0, 2),) * c


def totalize_dense(dc, seed: int) -> list[Case]:
    """chi'-dense or nearly dense inputs on 3, 5 or 7 vertices, m <= 40.

    The fixed cases hold both percentiles of the op time: the cheap
    triangles the median, the dense 5- and 7-vertex graphs the p90.  The
    seeded random 5-vertex graphs cost more than the first and less than
    the second, so a seed moves the total time but not the percentiles.
    The case count is odd, which puts each percentile inside one case's
    samples, not between two cases, where it would follow the outliers of
    both.
    """
    cases = []
    for a in range(2, 12):
        for b in range(a, 12):
            for c in range(b, 14 - a - b):
                cases.append(_totalize_case(f"tri-{a}-{b}-{c}", 3, _triangle(a, b, c), (0, 1, 2)))
    for mult in range(5, 14):
        cases.append(_totalize_case(f"fat-c3-m{mult}", 3, _triangle(mult, mult, mult), (0, 1, 2)))
    for length, mults in ((5, range(3, 8)), (7, (4, 5))):
        for mult in mults:
            g = dc.gen_fat_cycle(length, mult)
            cases.append(_totalize_case(f"fat-c{length}-m{mult}", g.n, g.edges, tuple(range(length))))
            if length == 5 and mult >= 6:
                # nearly dense: one edge fewer, or one chord more
                cases.append(_totalize_case(f"fat-c5-m{mult}-less", 5, g.edges[1:], tuple(range(5))))
                cases.append(_totalize_case(f"fat-c5-m{mult}-chord", 5, g.edges + ((0, 2),), tuple(range(5))))
    for mult in (2, 3):
        edges = dc.complete(5).edges * mult
        cases.append(_totalize_case(f"k5-m{mult}", 5, edges, tuple(range(5))))
    for mult in (2, 3):
        cases.append(_totalize_case(f"k5-m{mult}-less", 5, (dc.complete(5).edges * mult)[1:], tuple(range(5))))
    rng = random.Random(seed)
    # one draw per (m, multiplicity cap) stratum, so a seed changes which
    # graphs are drawn but not how many edges they have
    strata = [(m, cap) for m in (22, 24) for cap in (3, 4, 6)] * 3
    for i, (m, cap) in enumerate(strata):
        cases.append(_random_dense(dc, rng, f"rand5-{i:02d}", 5, 5, (m, m), cap))
    return cases


def _host_edges(case: Case) -> int:
    host_n = case.n + 1 - case.n % 2
    return case.lower_bound * (host_n - 1) // 2


def _multi(counts: dict[tuple[int, int], int]) -> Edges:
    return tuple(pair for pair, count in counts.items() for _ in range(count))


def totalize_padded(dc, seed: int) -> list[Case]:
    """A small dense core padded with isolated vertices to n in 9..15.

    Every host has more than 40 edges, so ``find_k_edge_coloring`` colors
    it and the exact chi' search of the host never runs.  As in
    ``totalize_dense`` the fixed cases hold both percentiles: six cases of
    about the same cost sit at the median and six at the p90, the random
    cores all cost less than the median, and the case count is odd.
    """
    cases = []
    fixed = {
        (3, 4): (9, 11), (3, 5): (9, 10, 12, 13), (3, 6): (9, 12, 13, 14, 15),
        (3, 7): (12, 13), (3, 8): (9, 10, 11, 12, 13),
        (5, 5): (9, 12), (5, 6): (9, 10, 11, 12, 13, 14), (5, 7): (9, 10, 11),
    }
    for (length, mult), sizes in fixed.items():
        g = dc.gen_fat_cycle(length, mult)
        for n in sizes:
            cases.append(_totalize_case(f"fat-c{length}-m{mult}-n{n}", n, g.edges, tuple(range(length))))
    # two 4-vertex cores on which the host's dense-class search backtracks
    # hard: 10x and 40x a typical core of the same size
    for name, counts in (
        ("core4-slow", {(0, 1): 5, (0, 2): 1, (0, 3): 5, (1, 2): 2, (1, 3): 3, (2, 3): 2}),
        ("core4-slower", {(0, 1): 4, (0, 2): 5, (0, 3): 2, (1, 2): 4, (1, 3): 3, (2, 3): 2}),
    ):
        edges = _multi(counts)
        cases.append(_totalize_case(f"{name}-n9", 9, edges, densest_odd_set(4, edges)[1]))
    rng = random.Random(seed)
    # random cores stay at n = 9, k <= 12 and on 3 or 5 vertices: a random
    # 4-vertex core, or a larger one, now and then takes seconds, and the
    # seed would then decide the run's length; these all cost less than
    # the median case
    for i, core in enumerate((3, 5) * 6):
        m_range = (11, 12) if core == 3 else (18, 24)
        cap = 6 if core == 3 else 5
        cases.append(_random_dense(
            dc, rng, f"core{core}-n9-{i:02d}", 9, core, m_range, cap,
            lambda case: _host_edges(case) > 40 and case.lower_bound <= 12,
        ))
    return cases


def _search_case(dc, name: str, graph, known_index: int | None = None) -> Case:
    rho, _ = densest_odd_set(graph.n, graph.edges)
    return Case(name, graph.n, graph.edges, rho=rho, known_index=known_index,
                text=dc.serialize(graph))


def _petersen(dc):
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return dc.Multigraph(10, tuple(outer + spokes + inner))


def search_mixed(dc, seed: int) -> list[Case]:
    """Many small ``search`` instances: fat cycles, simple graphs of known
    chi' (mostly class 2), light random multigraphs and dense random ones.
    The 117 ops that do not fail put both percentiles inside one case's
    samples.

    Fat cycles C5 with multiplicity 6..8 are left out: ``search`` settles
    them through ``totalize`` in 0.2 s, 1.1 s and 6.3 s, which would make
    that route most of the run's time; ``totalize-dense`` covers it.
    """
    cases = []
    for length in (3, 5, 7, 9):
        for mult in range(1, 9):
            if length == 5 and mult > 5:
                continue
            cases.append(_search_case(dc, f"fat-c{length}-m{mult}", dc.gen_fat_cycle(length, mult),
                                      fat_cycle_index(length, mult)))
    petersen = _petersen(dc)
    for name, graph, index in (
        ("petersen", petersen, 4),
        ("petersen-minus-vertex", petersen.induced_subgraph(range(1, 10))[0], 4),
        ("k4", dc.complete(4), 3),
        ("k5", dc.complete(5), 5),
        ("k7", dc.complete(7), 7),
    ):
        cases.append(_search_case(dc, name, graph, index))
    rng = random.Random(seed)
    # one draw per (n, m) stratum: a seed changes the graphs, not their size
    for i, (n, m) in enumerate([(n, m) for n in range(4, 9) for m in (n, n + 2, n + 4, 12)] * 3):
        cases.append(_search_case(dc, f"light-{i:02d}", dc.gen_random_multigraph(n, m, 2, rng.getrandbits(32))))
    # inside the conjecture's hypothesis chi' >= Delta + 3: a fat triangle,
    # sometimes with one or two pendant vertices; n + m <= 24 goes to the
    # total-coloring oracle, larger fat triangles go to totalize
    strata = ([(0, m) for m in (9, 12, 15, 18, 21, 24, 27)] * 2
              + [(1, m) for m in (12, 14, 16, 18)] * 2
              + [(2, m) for m in (12, 14, 16, 17)] * 2)
    for i, (extra, m) in enumerate(strata):
        while True:
            core = dc.gen_random_multigraph(3, m, 9, rng.getrandbits(32))
            edges = list(core.edges)
            for v in range(3, 3 + extra):
                for _ in range(rng.randint(1, 2)):
                    edges.append((rng.randrange(v), v))
            graph = dc.Multigraph(3 + extra, tuple(edges))
            case = _search_case(dc, f"dense-{i:02d}", graph)
            in_hypothesis = ceil(case.rho) >= max_degree(graph.n, graph.edges) + 3
            if in_hypothesis and (extra == 0 or graph.n + graph.m <= 24):
                cases.append(case)
                break
    return cases


WORKLOADS = {
    "totalize-dense": totalize_dense,
    "totalize-padded": totalize_padded,
    "search-mixed": search_mixed,
}
