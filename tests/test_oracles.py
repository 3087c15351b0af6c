import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from densecolor import (
    BudgetExceededError,
    DensecolorError,
    EdgeColoring,
    GuaranteeViolationError,
    InstanceTooLargeError,
    Multigraph,
    RunConfig,
    TotalColoring,
    can_add_edge,
    chromatic_index,
    complete,
    cycle,
    density,
    disjoint_union,
    embed_k_dense,
    find_k_edge_coloring,
    gen_fat_cycle,
    gen_random_multigraph,
    gs_verify,
    is_edge_critical,
    is_k_dense,
    is_proper_edge_coloring,
    is_proper_total_coloring,
    maximal_k_dense_subgraphs,
    search_goldberg,
    serialize,
    total_chromatic_number,
    totalize,
)

import densecolor.embed as embed_mod
from densecolor.embed import DenseHost
import densecolor.oracles as oracles

from brute import (
    brute_chromatic_index,
    brute_density,
    exhaustive_small_multigraphs,
    brute_k_dense_sets,
    brute_maximal_k_dense,
    brute_peel,
    brute_smallest_maximizer,
    brute_total_chromatic,
    reference_walk_odd_sets,
    walk_calls,
)

T2 = gen_fat_cycle(3, 2)
C5 = cycle(5)
K2 = complete(2)
# the Petersen graph (outer 5-cycle, spokes i-(i+5), inner pentagram) less
# vertex 9: 3-dense (n = 9, m = 12) and class 2
PETERSEN_LESS_VERTEX = Multigraph(
    9,
    ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))
    + ((0, 5), (1, 6), (2, 7), (3, 8))
    + ((5, 7), (6, 8), (8, 5)),
)

# the Petersen graph itself: Delta = 3 = L, and class 2
PETERSEN = Multigraph(
    10,
    tuple((i, (i + 1) % 5) for i in range(5))
    + tuple((i, i + 5) for i in range(5))
    + tuple((5 + i, 5 + (i + 2) % 5) for i in range(5)),
)


def planted_core_graphs(seed: int, count: int) -> tuple[Multigraph, ...]:
    """Seeded multigraphs on 3-9 vertices: a random 3- or 5-vertex core of
    multiplicity up to 5, plus up to n simple edges, on shuffled labels."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(3, 9)
        core = rng.choice([c for c in (3, 5) if c <= n])
        dense = gen_random_multigraph(core, rng.randint(2 * core, 4 * core), 5, rng.getrandbits(32))
        sparse = gen_random_multigraph(n, rng.randint(0, n), 1, rng.getrandbits(32))
        label = list(range(n))
        rng.shuffle(label)
        out.append(
            Multigraph(n, tuple((label[u], label[v]) for u, v in dense.edges + sparse.edges))
        )
    return tuple(out)


def whole_dense_graphs(seed: int, count: int) -> tuple[Multigraph, ...]:
    """Seeded multigraphs k-dense on their whole vertex set: n in
    {3, 5, 7, 9}, k(n-1)/2 <= 45 edges placed at random on pairs of
    multiplicity below a cap and ends of degree below k, or k - 1 (so
    k >= Delta, or k > Delta), redrawn when greedy placement gets stuck."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice((3, 5, 7, 9))
        k = rng.randint(2, 90 // (n - 1))
        top, cap = k - rng.choice((0, 0, 1)), rng.choice((1, 2, 3, k))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        deg, edges = [0] * n, []
        for _ in range(k * (n - 1) // 2):
            free = [
                (u, v)
                for u, v in pairs
                if deg[u] < top and deg[v] < top and edges.count((u, v)) < cap
            ]
            if not free:
                break
            u, v = rng.choice(free)
            deg[u] += 1
            deg[v] += 1
            edges.append((u, v))
        else:
            rng.shuffle(edges)
            out.append(Multigraph(n, tuple(edges)))
    return tuple(out)


def counted_walks(monkeypatch) -> list[Multigraph]:
    """The graphs that ``oracles._density_ceiling`` walks from now on."""
    walks = []
    ceiling = oracles._density_ceiling

    def counted(graph, floor):
        walks.append(graph)
        return ceiling(graph, floor)

    monkeypatch.setattr(oracles, "_density_ceiling", counted)
    return walks


def with_isolated(graph: Multigraph, rng: random.Random) -> tuple[Multigraph, list[int]]:
    """``graph`` with 1-3 isolated vertices inserted at random ids, and the
    ids of the inserted vertices."""
    n = graph.n + rng.randint(1, 3)
    ids = sorted(rng.sample(range(n), graph.n))
    edges = tuple((ids[u], ids[v]) for u, v in graph.edges)
    return Multigraph(n, edges), sorted(set(range(n)) - set(ids))


def padded_core_graphs(seed: int, count: int) -> tuple[Multigraph, ...]:
    """Seeded cores with 1-3 isolated vertices inserted at random ids, in
    turn: fat C3, C5 or C7 (mu <= 6), K5 with each edge 1-3-fold, a
    whole-dense core on 3, 5 or 7 vertices (``whole_dense_graphs``), and
    two random cores on 3, 5 or 7 vertices (multiplicity <= 4)."""
    rng = random.Random(seed)
    dense = [g for g in whole_dense_graphs(seed, count) if g.n < 9]
    out = []
    for i in range(count):
        kind = i % 5
        if kind == 0:
            core = gen_fat_cycle(rng.choice((3, 5, 7)), rng.randint(1, 6))
        elif kind == 1:
            core = Multigraph(5, complete(5).edges * rng.randint(1, 3))
        elif kind == 2:
            core = dense[i % len(dense)]
        else:
            c = rng.choice((3, 5, 7))
            core = gen_random_multigraph(c, rng.randint(c, 3 * c), 4, rng.getrandbits(32))
        out.append(with_isolated(core, rng)[0])
    return tuple(out)


# a 4-vertex core padded to n = 9, on which the host's class search
# backtracks hard
CORE4_SLOW = Multigraph(
    9,
    ((0, 1),) * 5 + ((0, 2),) + ((0, 3),) * 5 + ((1, 2),) * 2 + ((1, 3),) * 3
    + ((2, 3),) * 2,
)
# T2 beside the circulant C17(1, 2) on vertices 3..19: n = 20, m = 40
T2_C17 = Multigraph(
    20, T2.edges + tuple((3 + i, 3 + (i + s) % 17) for s in (1, 2) for i in range(17))
)
# the class search's nodes on the host of each padded_fat_cycle(c, n)
# itself (``padded_host_route``), under density_max_n = n + 1
PADDED_NODES = {
    (3, 19): 220, (3, 21): 2174, (3, 23): 2461, (3, 25): 360,
    (5, 19): 210, (5, 21): 261, (5, 23): 310, (5, 25): 380,
    (7, 19): 223, (7, 21): 273, (7, 23): 299, (7, 25): 343,
    (9, 19): 219, (9, 21): 261, (9, 23): 1774, (9, 25): 369,
}


def padded_fat_cycle(c: int, n: int) -> tuple[Multigraph, int]:
    """Fat C_c padded with isolated vertices to n, at the smallest mu whose
    L = ceil(2c mu / (c - 1)) meets max(Delta + 2, n + 1); and that mu."""
    mu = 1
    while math.ceil(2 * c * mu / (c - 1)) < max(2 * mu + 2, n + 1):
        mu += 1
    return Multigraph(n, gen_fat_cycle(c, mu).edges), mu


def padded_host_route(graph: Multigraph, config: RunConfig):
    """The host of G itself, padding and all, colored by the class search:
    the host route as it ran before peeling, which ``embed_k_dense`` and
    ``oracles._color`` still run.  A certificate of G's chi' = L with that
    host."""
    k = max(graph.max_degree(), math.ceil(density(graph, config).value))
    g_prime, report = embed_k_dense(graph, k, config)
    colors, spent = oracles._color(g_prime, k, 0, config.node_budget)
    host = DenseHost(g_prime, report, EdgeColoring(k, tuple(colors)))
    witness = EdgeColoring(k, tuple(colors[: graph.m]))
    return oracles.ChromaticCertificate(
        "chromatic-index", k, witness, "density", spent, host
    )


def exact_meter(oracle, graph: Multigraph, max_n: int, nodes: int):
    """``oracle`` spends exactly ``nodes``: a budget of that many lets it
    finish with the same certificate, and one fewer stops it at its last
    node.  Returns the certificate."""
    cert = oracle(graph, RunConfig(density_max_n=max_n))
    assert cert.search_nodes == nodes
    exact = RunConfig(density_max_n=max_n, node_budget=nodes)
    assert oracle(graph, exact) == cert
    short = RunConfig(density_max_n=max_n, node_budget=nodes - 1)
    with pytest.raises(
        BudgetExceededError, match=f"^search budget of {nodes - 1} nodes exhausted$"
    ):
        oracle(graph, short)
    return cert


def check_ceiling(g: Multigraph, floor: int, value: Fraction) -> bool:
    """``_density_ceiling`` from ``floor`` against the brute density
    ``value``: None exactly when value <= floor, else ceil(value) with the
    odd sets of density exactly that, in lexicographic order (none when
    value is not an integer).  Returns whether the walk found a set."""
    got = oracles._density_ceiling(g, floor)
    if value <= floor:
        assert got is None
        return False
    ceiling = math.ceil(value)
    tight = brute_k_dense_sets(g, ceiling) if value == ceiling else []
    assert got == (ceiling, sorted(map(list, tight)))
    return True


class TestDensity:
    def test_c5(self):
        # frozen from the combinations-based recount oracle
        assert brute_density(C5) == (Fraction(5, 2), (0, 1, 2, 3, 4))
        result = density(C5)
        assert result.value == Fraction(5, 2)
        assert result.witness == (0, 1, 2, 3, 4)

    def test_t2(self):
        assert brute_density(T2) == (Fraction(6), (0, 1, 2))
        result = density(T2)
        assert result.value == 6
        assert result.witness == (0, 1, 2)

    def test_k2_has_no_odd_subset(self):
        result = density(K2)
        assert result.value == 0
        assert result.witness is None

    def test_edgeless_has_no_witness(self):
        result = density(Multigraph(5, ()))
        assert result.value == 0
        assert result.witness is None

    def test_witness_is_lexicographically_smallest(self):
        # two disjoint fat triangles maximize with the same ratio
        g = disjoint_union(T2, T2)
        assert density(g).witness == (0, 1, 2)

    def test_cap_enforced(self):
        with pytest.raises(InstanceTooLargeError):
            density(Multigraph(25, ()), RunConfig())
        assert density(Multigraph(25, ()), RunConfig(density_max_n=30)).value == 0

    @pytest.mark.parametrize("n,mult", [(3, 3), (5, 2), (5, 3), (7, 2)])
    def test_matches_brute_on_fat_cycles(self, n, mult):
        g = gen_fat_cycle(n, mult)
        value, _ = brute_density(g)
        assert density(g).value == value

    def test_walk_from_delta_matches_brute(self):
        # chromatic_index walks from threshold Delta: it finds nothing
        # exactly when the density is at most Delta, else ceil(rho) and the
        # odd sets of density exactly ceil(rho)
        graphs = exhaustive_small_multigraphs() + planted_core_graphs(41, 120)
        above = tight = 0
        for g in graphs:
            value, _ = brute_density(g)
            if check_ceiling(g, g.max_degree(), value):
                above += 1
                tight += value == math.ceil(value)
        assert above >= 400 and tight >= 400

    def test_walk_from_any_floor_below_the_density(self):
        # every start below ceil(rho) ends on the same ceiling and sets
        for g in planted_core_graphs(43, 40):
            value, _ = brute_density(g)
            for floor in range(math.ceil(value) + 1):
                check_ceiling(g, floor, value)

    def test_ceiling_matches_brute_with_isolated_vertices(self):
        # from Delta and from every floor below ceil(rho); below Delta the
        # walk keeps the isolated vertices, which a set of density exactly
        # ceil(rho) <= Delta may hold
        rng = random.Random(59)
        graphs = exhaustive_small_multigraphs() + tuple(
            with_isolated(g, rng)[0] for g in planted_core_graphs(61, 60)
        )
        found = lone = 0
        for g in graphs:
            value, _ = brute_density(g)
            floors = set(range(math.ceil(value))) | {g.max_degree()}
            for floor in sorted(floors):
                if check_ceiling(g, floor, value):
                    found += 1
                    _, kept = oracles._density_ceiling(g, floor)
                    lone += any(g.degrees[v] == 0 for s in kept for v in s)
        assert found >= 9_000 and lone >= 50

    def test_rise_drops_the_kept_sets(self):
        # the 6-dense triangle is kept at K = 6, then the triangle of
        # density 10 raises K and replaces it
        fat = Multigraph(3, ((0, 1),) * 3 + ((1, 2),) * 3 + ((0, 2),) * 4)
        g = disjoint_union(T2, fat)
        assert oracles._density_ceiling(g, 5) == (10, [[3, 4, 5]])


class TestChromaticIndex:
    def test_wide_sparse_graph_stays_small(self):
        # Vizing's bound reads the multiplicity from the edge list; an
        # n-by-n matrix of pair counts would peak at about 70 MB here
        g = Multigraph(3000, ((0, 1),))
        tracemalloc.start()
        try:
            cert = chromatic_index(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.k == 1 and cert.lower_bound_reason == "max-degree"
        assert peak < 4_000_000

    def test_vizing_bound_only_when_the_climb_searches(self, monkeypatch):
        # K4 and a 4-cycle with two opposite edges doubled are colored at
        # Delta before any walk, so the climb searches nothing and needs
        # no multiplicity; Petersen's climb searches past Delta and reads it
        def no_multiplicity(self):
            raise AssertionError("multiplicity read")

        monkeypatch.setattr(Multigraph, "multiplicity", no_multiplicity)
        light = Multigraph(4, ((0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (3, 0)))
        for g, nodes in ((complete(4), 7), (light, 7)):
            cert = chromatic_index(g)
            got = (cert.k, cert.lower_bound_reason, cert.search_nodes)
            assert got == (3, "max-degree", nodes)
            assert is_proper_edge_coloring(g, cert.witness)
        with pytest.raises(AssertionError, match="multiplicity read"):
            chromatic_index(PETERSEN)

    def test_c5_needs_three(self):
        assert brute_chromatic_index(C5) == 3
        cert = chromatic_index(C5)
        assert cert.k == 3
        assert is_proper_edge_coloring(C5, cert.witness)

    def test_t2_needs_six(self):
        assert brute_chromatic_index(T2) == 6
        cert = chromatic_index(T2)
        assert cert.k == 6
        assert cert.lower_bound_reason == "density"
        assert is_proper_edge_coloring(T2, cert.witness)

    def test_k2(self):
        cert = chromatic_index(K2)
        assert cert.k == 1
        assert cert.lower_bound_reason == "max-degree"

    def test_edgeless(self):
        cert = chromatic_index(Multigraph(4, ()))
        assert cert.k == 0
        assert cert.witness == EdgeColoring(0, ())

    def test_witness_palette_matches_k(self):
        cert = chromatic_index(gen_fat_cycle(5, 2))
        assert cert.witness.k == cert.k

    def test_exhaustion_reason_on_simple_delta_graphs(self):
        # K4 has Delta = 3 = chi'; the petersen-free small case where the
        # bound is the degree
        cert = chromatic_index(complete(4))
        assert cert.k == 3
        assert cert.lower_bound_reason == "max-degree"

    def test_star_with_leaves(self):
        star = Multigraph(4, ((0, 1), (0, 2), (0, 3)))
        cert = chromatic_index(star)
        assert cert.k == 3
        assert cert.lower_bound_reason == "max-degree"

    def test_edge_cap(self):
        # n = 45 is past the density cap, so there is no host route
        with pytest.raises(InstanceTooLargeError, match="capped at m = 40, got 45"):
            chromatic_index(gen_fat_cycle(45, 1))

    def test_budget_exhaustion_is_an_error(self):
        with pytest.raises(BudgetExceededError):
            chromatic_index(gen_fat_cycle(7, 3), RunConfig(node_budget=5))

    def test_works_without_density_bound(self):
        # when n exceeds the enumeration cap the search climbs from Delta
        cert = chromatic_index(C5, RunConfig(density_max_n=3))
        assert cert.k == 3
        assert cert.lower_bound_reason == "exhaustion"

    @pytest.mark.parametrize(
        "graph,config,k,nodes",
        [
            # n = 20 puts the host past the density cap: the edge search at
            # 6 (T2 beside the 4-regular circulant C17(1, 2), so every
            # degree is above L - Delta = 2 and nothing is peeled)
            (T2_C17, RunConfig(), 6, 42),
            # K7 is 7-dense: the class search at 7
            (complete(7), RunConfig(), 7, 29),
            # no density bound: 6 is refuted by exhaustion, then 7 colored
            (gen_fat_cycle(7, 3), RunConfig(density_max_n=3), 7, 63),
        ],
        ids=["t2-c17-n20", "k7", "fat-c7-m3-exhaustion"],
    )
    def test_k_loop_visit_order_is_pinned(self, graph, config, k, nodes):
        cert = chromatic_index(graph, config)
        assert (cert.k, cert.search_nodes) == (k, nodes)
        assert is_proper_edge_coloring(graph, cert.witness)

    def test_dense_class_two_refuted_by_exhaustion(self):
        # k = 3 = Delta = ceil(rho) and the graph is 3-dense, so the
        # refutation of 3 runs through the class-by-class search
        assert is_k_dense(PETERSEN_LESS_VERTEX, range(9), 3)
        cert = chromatic_index(PETERSEN_LESS_VERTEX)
        assert cert.k == 4
        assert cert.lower_bound_reason == "exhaustion"
        assert is_proper_edge_coloring(PETERSEN_LESS_VERTEX, cert.witness)

    def test_host_route_beyond_the_k_loop_budget(self):
        # L = ceil(rho) = 12 = Delta + 2 = n + 5: the host's 12-coloring
        # settles chi' in under a hundred nodes, where the plain search of G
        # needs about 97k
        g = gen_fat_cycle(7, 5)
        cert = chromatic_index(g, RunConfig(node_budget=10_000))
        assert cert.k == 12
        assert cert.lower_bound_reason == "density"
        assert cert.host is not None and cert.host.g_prime.m == 36
        assert is_proper_edge_coloring(g, cert.witness)

    def test_host_of_a_padded_core_colors_within_budget(self):
        # L = ceil(rho) = 13 = Delta + 3: without the density prune the
        # host's class search backtracks through ~920k nodes; with it the
        # host colors in a few hundred
        counts = {(0, 1): 4, (0, 2): 5, (0, 3): 1, (1, 2): 4, (1, 3): 1, (2, 3): 1}
        g = Multigraph(9, tuple(p for p, c in counts.items() for _ in range(c)))
        cert = chromatic_index(g, RunConfig(node_budget=10_000))
        assert cert.k == 13
        assert cert.lower_bound_reason == "density"
        assert cert.host is not None
        assert is_proper_edge_coloring(g, cert.witness)

    def test_host_over_the_density_cap_falls_back_to_the_k_loop(self):
        # the 4-vertex core of CORE4_SLOW has nothing to peel (degrees 5 to
        # 11 > L - Delta = 2), and n = 4 = density_max_n is even, so the
        # host would need a 5th vertex; the k-loop settles chi' = L = 13
        g, _, _ = CORE4_SLOW.induced_subgraph(range(4))
        cert = chromatic_index(g, RunConfig(density_max_n=4))
        assert cert.k == 13
        assert cert.host is None
        assert is_proper_edge_coloring(g, cert.witness)
        # padding is no longer what puts a host over the cap: fat C3 with
        # mu = 7 at n = 20 = density_max_n peels to its 3-vertex core
        padded = Multigraph(20, gen_fat_cycle(3, 7).edges)
        cert = chromatic_index(padded)
        assert (cert.k, cert.peeled) == (21, tuple(range(3, 20)))
        assert cert.host is not None
        assert is_proper_edge_coloring(padded, cert.witness)

    @pytest.mark.parametrize("n", [19, 21, 23, 25])
    @pytest.mark.parametrize("c", [3, 5, 7, 9])
    def test_padded_fat_cycle_hosts_color_within_small_budget(self, c, n):
        # the id-order class search needed up to 427k nodes on the hosts of
        # G itself, branching on the most constrained vertex under 2.5k; the
        # counts are pinned, each exactly.  chromatic_index now peels the
        # padding and embeds only the fat cycle
        g, mu = padded_fat_cycle(c, n)
        cert = exact_meter(padded_host_route, g, n + 1, PADDED_NODES[c, n])
        assert cert.k == math.ceil(2 * c * mu / (c - 1))
        assert is_proper_edge_coloring(g, cert.witness)
        routed = chromatic_index(g, RunConfig(density_max_n=n + 1))
        assert routed.k == cert.k
        assert routed.host is not None and routed.host.g_prime.n == c
        assert routed.peeled == tuple(range(c, n))

    @pytest.mark.parametrize("n", [19, 21, 23, 25])
    @pytest.mark.parametrize("c", [3, 5, 7, 9])
    def test_padded_fat_cycles_certify_by_their_core(self, c, n):
        # the host of G itself took up to 0.11 s to build and color; the
        # padding peels, and the fat cycle's host certifies in well under
        # 10 ms
        g, mu = padded_fat_cycle(c, n)
        config = RunConfig(density_max_n=n + 1)
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            cert = totalize(g, config)
            best = min(best, time.perf_counter() - start)
        assert best < 0.010
        assert cert.k == math.ceil(2 * c * mu / (c - 1))
        assert cert.pipeline.peeled == tuple(range(c, n))
        assert is_proper_total_coloring(g, cert.coloring)

    @pytest.mark.parametrize(
        ("oracle", "graph", "k", "nodes"),
        [
            (chromatic_index, PETERSEN_LESS_VERTEX, 4, 28),
            (padded_host_route, CORE4_SLOW, 13, 182),
            (total_chromatic_number, gen_fat_cycle(5, 3), 8, 148),
        ],
        ids=["petersen-less-vertex", "core4-slow", "total-fat-c5-m3"],
    )
    def test_node_meter_is_exact(self, oracle, graph, k, nodes):
        # Petersen less a vertex: the class search refutes k = 3 and the
        # edge search colors at 4; the host of the padded core, padding
        # and all, backtracks hard;
        # the total oracle refutes 7 colors on fat C5 and colors at 8, so
        # its count runs on across the climb
        assert exact_meter(oracle, graph, 20, nodes).k == k

    def test_host_route_matches_brute(self):
        # wherever L = max(Delta, ceil rho) meets max(Delta + 2, n + 1),
        # the route certifies chi' = L through the host, and that is the
        # brute-force chi'; elsewhere there is no host
        rng = random.Random(9)
        routed = 0
        while routed < 30:
            n = rng.choice((3, 4))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = tuple(pair for pair in pairs for _ in range(rng.randint(0, 3)))
            g = Multigraph(n, edges)
            if g.m > 7:
                continue
            delta = g.max_degree()
            lower = max(delta, math.ceil(brute_density(g)[0]))
            cert = chromatic_index(g)
            if lower < max(delta + 2, n + 1):
                assert cert.host is None
                continue
            routed += 1
            assert cert.host is not None
            assert cert.lower_bound_reason == "density"
            assert is_proper_edge_coloring(g, cert.witness)
            assert cert.k == lower == brute_chromatic_index(g)

    def test_whole_dense_graphs_are_colored_before_any_walk(self, monkeypatch):
        # a G k-dense on V at k = 2m/(n-1) >= Delta, colored at k, proves
        # chi' = L = k with no walk of G: k is the walk's L, and the witness
        # and node count are those of the search at k.  Every certificate
        # is the one of the walk alone (no attempt: FIRST_TRY = 0),
        # where the attempt refutes k (Petersen less a vertex), runs out of
        # nodes (the same with mu = 3) or meets L > k (some random graphs)
        triangles = [g for g in exhaustive_small_multigraphs() if g.n == 3 and g.m]
        fallbacks = [
            PETERSEN_LESS_VERTEX,
            Multigraph(9, PETERSEN_LESS_VERTEX.edges * 3),
        ]

        def settle(g):
            try:
                return chromatic_index(g)
            except (InstanceTooLargeError, BudgetExceededError) as exc:
                return type(exc), str(exc)

        walks = counted_walks(monkeypatch)
        colored = brute_checked = walked_graphs = 0
        for g in triangles + fallbacks + list(whole_dense_graphs(30, 200)):
            k, delta = 2 * g.m // (g.n - 1), g.max_degree()
            walks.clear()
            cert = settle(g)
            walked = len(walks)
            with monkeypatch.context() as plain:
                plain.setattr(oracles, "FIRST_TRY", 0)
                alone = settle(g)
            if isinstance(cert, tuple):
                assert cert == alone
                continue
            assert cert.to_doc() == alone.to_doc()
            assert (cert.host is None) == (alone.host is None)
            assert cert.total == alone.total
            if walked:
                assert walks[0] is g
                walked_graphs += 1
                continue
            colored += 1
            assert k >= delta
            walk = oracles._density_ceiling(g, delta)
            assert cert.k == (walk[0] if walk else delta) == k
            colors, spent = oracles._color(g, k, 0, RunConfig().node_budget)
            assert cert.witness.colors == tuple(colors)
            assert cert.search_nodes == spent
            if g.m <= 7:
                brute_checked += 1
                assert cert.k == brute_chromatic_index(g)
        assert colored >= 200 and brute_checked >= 60 and walked_graphs >= 10

    def test_padded_whole_dense_cores_are_colored_before_any_walk(self, monkeypatch):
        # a padded G whose vertices with edges, V', are k-dense at k > Delta
        # has the pre-walk bound b = k, else b = Delta.  On the host route
        # at b it colors G[V'] at b with no walk of G; the isolated
        # vertices, in ascending order, are the peeled ones.  Any other G
        # that is not walked was colored at b on G itself, with reason
        # max-degree exactly when b = Delta.  Every chromatic_index and
        # totalize document, errors included, is the one of the walk alone
        # (no attempt: FIRST_TRY = 0)
        def settle(oracle, g):
            try:
                return oracle(g)
            except DensecolorError as exc:
                return type(exc), str(exc)

        def doc(out):
            return out if isinstance(out, tuple) else out.to_doc(include_witness=True)

        walks = counted_walks(monkeypatch)
        colored = at_delta = off_route = brute_checked = walked_graphs = 0
        for g in padded_core_graphs(32, 250):
            walks.clear()
            cert = settle(chromatic_index, g)
            walked = len(walks)
            pipeline = doc(settle(totalize, g))
            with monkeypatch.context() as plain:
                plain.setattr(oracles, "FIRST_TRY", 0)
                alone = settle(chromatic_index, g)
                assert doc(settle(totalize, g)) == pipeline
            if isinstance(cert, tuple):
                assert cert == alone
                continue
            assert cert.to_doc() == alone.to_doc()
            assert cert.peeled == alone.peeled
            assert cert.total == alone.total
            assert cert.host == alone.host
            if g.m <= 7:
                brute_checked += 1
                assert cert.k == brute_chromatic_index(g)
            if walked:
                walked_graphs += 1
                continue
            delta, live = g.max_degree(), g.n - g.degrees.count(0)
            whole = 2 * g.m // (live - 1)
            dense = live >= 3 and live % 2 and 2 * g.m == whole * (live - 1)
            bound = whole if dense and whole > delta else delta
            assert cert.k == bound
            if cert.host is None:  # colored at b, G itself, before any walk
                assert (cert.lower_bound_reason == "max-degree") == (bound == delta)
                if bound == delta:
                    at_delta += 1
                else:
                    off_route += 1
                continue
            colored += 1
            assert bound > delta
            assert cert.peeled == tuple(v for v in range(g.n) if not g.degrees[v])
            assert cert.host.g_prime.n == live
        assert colored >= 75 and at_delta >= 75 and off_route >= 40
        assert walked_graphs >= 35
        assert brute_checked >= 50

    def test_delta_attempt_keeps_every_document(self, monkeypatch):
        # a G whose pre-walk bound is Delta (its vertices with edges are
        # not whole-dense above Delta), with m within CHI_INDEX_MAX_EDGES
        # and no odd set its degrees prove denser than Delta, is colored at
        # Delta on G itself before any walk.  A coloring proves
        # chi' = L = Delta, reason max-degree, with no walk; a refutation
        # walks G, and at L = Delta the climb goes on from Delta + 1 with
        # the attempt's nodes (Petersen).  Every chromatic_index, totalize
        # --witness and search document, errors included, is the one of
        # the walk alone (no attempt: FIRST_TRY = 0)
        def settle(oracle, g):
            try:
                return oracle(g)
            except DensecolorError as exc:
                return type(exc), str(exc)

        def docs(g):
            cert = settle(chromatic_index, g)
            walked = len(walks)
            out = [
                cert if isinstance(cert, tuple) else cert.to_doc(),
                settle(lambda h: totalize(h).to_doc(include_witness=True), g),
                settle(lambda h: search_goldberg([("g", h)]).to_doc(), g),
            ]
            return cert, walked, out

        rng = random.Random(34)
        light = [
            gen_random_multigraph(n, rng.randint(n - 1, 3 * n), 2, rng.getrandbits(32))
            for n in range(4, 11)
            for _ in range(40)
        ]
        pair = Multigraph(7, ((2, 5),) * 3)
        past_cap = Multigraph(6, cycle(6).edges * 8)  # class 1, but m = 48: walked
        named = [PETERSEN, complete(4), pair, past_cap]
        walks = counted_walks(monkeypatch)
        at_delta = brute_checked = 0
        got = {}
        for g in named + light + list(exhaustive_small_multigraphs()):
            walks.clear()
            cert, walked, out = docs(g)
            with monkeypatch.context() as plain:
                plain.setattr(oracles, "FIRST_TRY", 0)
                assert docs(g)[2] == out
            got[g] = (cert, walked) if isinstance(cert, tuple) else (
                cert.k, cert.lower_bound_reason, cert.search_nodes, walked
            )
            if isinstance(cert, tuple):
                continue
            if g.m <= 7:
                brute_checked += 1
                assert cert.k == brute_chromatic_index(g)
            if walked or not g.m:
                continue
            live = g.n - g.degrees.count(0)
            if not (live % 2 and 2 * g.m == cert.k * (live - 1)):
                at_delta += 1
                assert (cert.k, cert.lower_bound_reason) == (g.max_degree(), "max-degree")
        assert got[PETERSEN] == (4, "exhaustion", 47, 1)
        assert got[complete(4)] == (3, "max-degree", 7, 0)
        assert got[pair] == (3, "max-degree", 4, 0)
        capped = "chromatic-index search capped at m = 40, got 48"
        assert got[past_cap] == ((InstanceTooLargeError, capped), 1)
        assert at_delta >= 1000 and brute_checked >= 1000

    def test_degree_bound_is_sound(self):
        # whenever the degrees prove an odd set denser than k, the brute
        # density exceeds k; they do on fat triangles with one or two
        # pendant vertices and on a 4-vertex dense core padded to n = 9
        rng = random.Random(35)
        sweep = [
            gen_random_multigraph(n, rng.randint(1, 3 * n), 4, rng.getrandbits(32))
            for n in range(3, 9)
            for _ in range(60)
        ]
        fired = 0
        for g in sweep + list(exhaustive_small_multigraphs()):
            delta = g.max_degree()
            for k in {delta, rng.randint(0, 2 * delta + 1)}:
                if oracles._denser_by_degrees(g, k):
                    fired += 1
                    assert brute_density(g)[0] > k
        assert fired >= 500
        t4 = gen_fat_cycle(3, 4)
        for g in (
            Multigraph(4, t4.edges + ((0, 3),)),
            Multigraph(5, t4.edges + ((0, 3), (1, 4), (1, 4))),
            CORE4_SLOW,
        ):
            assert oracles._denser_by_degrees(g, g.max_degree())

    def test_core_peels_only_the_padding_of_a_whole_dense_core(self):
        # V' k-dense at k >= Delta + 2: the core is G[V'], and exactly the
        # isolated vertices peel, in ascending order
        rng = random.Random(36)
        cores = [gen_fat_cycle(5, 4), gen_fat_cycle(3, 6)]
        cores += [Multigraph(5, complete(5).edges * 3)]
        cores += [g for g in whole_dense_graphs(36, 40) if g.n < 9]
        checked = 0
        for c in cores:
            k, delta = 2 * c.m // (c.n - 1), c.max_degree()
            if k < delta + 2:
                continue
            g, padding = with_isolated(c, rng)
            core, peeled, core_ids, core_edge_ids = oracles._core(g, k)
            assert peeled == tuple(sorted(padding))
            live = [v for v in range(g.n) if g.degrees[v]]
            assert (core, core_ids, core_edge_ids) == g.induced_subgraph(live)
            assert core.edges == c.edges and core_edge_ids == tuple(range(g.m))
            checked += 1
        assert checked >= 10

    def test_core_is_g_itself_when_nothing_can_peel(self):
        # at k < Delta + 2, or with every degree above k - Delta, the core
        # is G itself, with nothing peeled and empty maps
        c5 = gen_fat_cycle(5, 4)  # Delta = 8, every degree 8
        padded = Multigraph(9, c5.edges)
        path = Multigraph(4, ((0, 1), (1, 2), (2, 3)))
        for g, k in ((c5, 10), (c5, 14), (padded, 9), (path, 3), (PETERSEN, 4)):
            core, *rest = oracles._core(g, k)
            assert core is g and rest == [(), (), ()]
        # a pendant path does peel at k = 12 >= Delta + 2, in ascending
        # order, and the core is what is left
        path = tuple((v, v + 1) for v in range(2, 11))
        g = Multigraph(12, gen_fat_cycle(3, 4).edges + path)
        core, peeled, core_ids, core_edge_ids = oracles._core(g, 12)
        assert peeled == tuple(range(3, 12))
        assert core_ids == (0, 1, 2) and core.edges == gen_fat_cycle(3, 4).edges
        assert core_edge_ids == tuple(range(12))

    def test_core_peels_a_vertex_once_its_leaf_is_gone(self):
        # vertex 3 joined to leaves 4..8 beside fat C3 with mu = 4: at
        # k = 12 the cap is k - Delta = 4, and 3's degree 5 falls to it
        # only once leaf 4 is off, so 3 peels second
        g = Multigraph(9, gen_fat_cycle(3, 4).edges + ((3, 4), (3, 5), (3, 6), (3, 7), (3, 8)))
        core, peeled, core_ids, core_edge_ids = oracles._core(g, 12)
        assert peeled == (4, 3, 5, 6, 7, 8)
        assert core_ids == (0, 1, 2) and core.edges == gen_fat_cycle(3, 4).edges
        assert core_edge_ids == tuple(range(12))

    def test_core_peel_order_matches_a_rescan(self):
        # pendant trees, edges of multiplicity 1 or 2, hung on random cores
        # on shuffled labels, peeled at k = Delta + 2 .. Delta + 4: the
        # heap's order is the re-scan's, and in many graphs a vertex peels
        # only after a neighbour has gone
        rng = random.Random(41)
        cascades = 0
        for _ in range(150):
            c = rng.randint(3, 5)
            m = rng.randint(c, 4 * c)
            edges = list(gen_random_multigraph(c, m, 4, rng.getrandbits(32)).edges)
            n = c + rng.randint(1, 8)
            for v in range(c, n):
                edges += [(rng.randrange(v), v)] * rng.randint(1, 2)
            label = list(range(n))
            rng.shuffle(label)
            g = Multigraph(n, tuple((label[u], label[v]) for u, v in edges))
            delta = g.max_degree()
            for k in range(delta + 2, delta + 5):
                core, peeled, core_ids, core_edge_ids = oracles._core(g, k)
                assert peeled == brute_peel(g, k)
                if peeled:
                    left = [v for v in range(n) if v not in peeled]
                    assert (core, core_ids, core_edge_ids) == g.induced_subgraph(left)
                cascades += any(g.degrees[v] > k - delta for v in peeled)
        assert cascades >= 200

    def test_edgeless_vertices_peel_and_come_back_without_incidence(self):
        # fat cycles with paths apart from them and pendant chains hung on
        # them, and isolated vertices, on shuffled labels: a vertex whose
        # neighbours all went first pops with no edge left, and an
        # isolated one has none at all; the order, the core and the
        # total coloring are those of the plain rules, every isolated
        # vertex comes back with color 1, and padding alone builds no
        # incidence of G
        rng = random.Random(35)
        emptied = isolated = padded = 0
        for _ in range(120):
            c, mu = rng.choice(((3, 3), (3, 4), (3, 5), (5, 5), (5, 6)))
            edges = list(gen_fat_cycle(c, mu).edges)
            n = c
            for _ in range(rng.randint(0, 2)):  # a path apart from the core
                length = rng.randint(2, 4)
                edges += [(v, v + 1) for v in range(n, n + length - 1)]
                n += length
            for u in rng.sample(range(c), rng.randint(0, 2)):  # chains on the core
                length = rng.randint(1, 3)
                edges += [(u, n)]
                edges += [(v, v + 1) for v in range(n, n + length - 1)]
                n += length
            padding = rng.randint(0, 3)
            label = list(range(n + padding))
            rng.shuffle(label)
            g = Multigraph(n + padding, tuple((label[u], label[v]) for u, v in edges))
            cert = chromatic_index(g)
            assert cert.host is not None
            k = cert.k
            core, peeled, core_ids, core_edge_ids = oracles._core(g, k)
            assert peeled == cert.peeled == brute_peel(g, k)
            if peeled:
                left = [v for v in range(g.n) if v not in peeled]
                assert (core, core_ids, core_edge_ids) == g.induced_subgraph(left)
            gone = set()
            for v in peeled:
                gone.add(v)
                if g.degrees[v] and all(set(e) <= gone for e in g.edges if v in e):
                    emptied += 1  # its neighbours all went first
            for v in peeled:
                if not g.degrees[v]:
                    isolated += 1
                    assert cert.total.vertex_colors[v] == 1
            assert oracles._checked(g, cert.total) is cert.total
            if peeled and not any(g.degrees[v] for v in peeled):
                assert "incidence" not in vars(g)
                padded += 1
        assert emptied >= 100 and isolated >= 80 and padded >= 5

    @pytest.mark.parametrize(
        ("graph", "config", "expected"),
        [
            # k = 3 = Delta: the class search refutes 3 and the walk gives
            # L = 3, so the climb goes on at 4 with the attempt's nodes
            (PETERSEN_LESS_VERTEX, RunConfig(), (4, "exhaustion", 28, 1)),
            # the fat triangle's L = 12 passes k = 8: the attempt is dropped
            # and the host route at 12 peels the 4-fold pair
            (
                Multigraph(5, gen_fat_cycle(3, 4).edges + ((3, 4),) * 4),
                RunConfig(),
                (12, "density", 25, 1),
            ),
            # n = 5 > max_n: neither attempt nor walk, the climb from Delta
            (
                gen_fat_cycle(5, 4),
                RunConfig(density_max_n=4),
                (10, "exhaustion", 290, 0),
            ),
            # padded cores whose V' is whole-dense but has no host at k
            # (k < Delta + 2): G itself is colored at k before any walk, the
            # climb's first step, so neither is walked: C3 and K5
            (
                Multigraph(6, ((1, 3), (1, 4), (3, 4))),
                RunConfig(),
                (3, "density", 4, 0),
            ),
            (
                with_isolated(complete(5), random.Random(5))[0],
                RunConfig(),
                (5, "density", 18, 0),
            ),
            # padded cores whose V' is even, or has fewer than 3 vertices:
            # the degrees prove a 4-vertex core denser than Delta, so it is
            # walked; a 3-fold pair has no odd set, so it is colored at
            # Delta = 3 on G itself, and not walked
            (CORE4_SLOW, RunConfig(), (13, "density", 40, 1)),
            (Multigraph(7, ((2, 5),) * 3), RunConfig(), (3, "max-degree", 4, 0)),
        ],
        ids=[
            "petersen-less-vertex",
            "fat-c3-m4-and-a-pair",
            "fat-c5-m4-past-max-n",
            "c3-padded",
            "k5-padded",
            "core4-slow-n9",
            "pair-padded",
        ],
    )
    def test_whole_dense_fallbacks_keep_their_certificates(
        self, monkeypatch, graph, config, expected
    ):
        # the values are those of chromatic_index before the attempts, but
        # for the walks that an attempt saves
        walks = counted_walks(monkeypatch)
        cert = chromatic_index(graph, config)
        got = (cert.k, cert.lower_bound_reason, cert.search_nodes, len(walks))
        assert got == expected
        assert is_proper_edge_coloring(graph, cert.witness)

    def test_whole_dense_attempt_out_of_budget_walks_and_raises(self, monkeypatch):
        # fat C5 with mu = 4 under a budget of 5, alone or padded to n = 9:
        # the attempt runs out and is dropped, the walk gives L = 10, and
        # the host's coloring runs out with the same message as without
        # the attempt
        walks = counted_walks(monkeypatch)
        c5 = gen_fat_cycle(5, 4)
        for g in (c5, Multigraph(9, c5.edges)):
            walks.clear()
            with pytest.raises(
                BudgetExceededError, match="^search budget of 5 nodes exhausted$"
            ):
                chromatic_index(g, RunConfig(node_budget=5))
            assert walks == [g]

    def test_density_prune_cuts_a_class_search_exactly(self, monkeypatch):
        # a four-vertex core padded to n = 9 with L = ceil(rho) = 13: the
        # host's class search passes the walk's node threshold, and after
        # ten classes the uncolored rest (12 edges) holds an odd set denser
        # than the three classes left (427 nodes without the prune, 182
        # with it)
        counts = {(0, 1): 5, (0, 2): 1, (0, 3): 5, (1, 2): 2, (1, 3): 3, (2, 3): 2}
        g = Multigraph(9, tuple(p for p, c in counts.items() for _ in range(c)))
        walks = []
        walk = oracles._walk_odd_sets

        def counted(graph, num, *args, **kwargs):
            hit = walk(graph, num, *args, **kwargs)
            walks.append((graph.m, num, hit))
            return hit

        monkeypatch.setattr(oracles, "_walk_odd_sets", counted)
        # the host of G itself, padding and all; chromatic_index now peels
        # the padding and colors the host of the 4-vertex core
        cert = padded_host_route(g, RunConfig())
        k = 13
        host_m = k * (9 - 1) // 2
        # the walks of G (density, then the embedding's premise) stop at no
        # set; the walks that do run on a class boundary's uncolored rest
        # (fewer edges, threshold k - c); the first cut comes after c = 10
        # classes of four edges
        assert [w[2] for w in walks[:2]] == [False, False]
        assert walks[0][0] == walks[1][0] == g.m
        cuts = [w for w in walks[2:] if w[2]]
        assert cuts[0] == (host_m - 10 * 4, k - 10, True)
        assert cert.k == k == math.ceil(brute_density(g)[0])
        assert cert.search_nodes == 182
        assert cert.lower_bound_reason == "density"
        assert cert.host is not None and cert.host.g_prime.m == host_m
        assert is_proper_edge_coloring(g, cert.witness)

    @pytest.mark.parametrize(
        "graph",
        [
            cycle(4),
            cycle(6),
            complete(3),
            complete(4),
            gen_fat_cycle(3, 3),
            complete(5),
            gen_fat_cycle(5, 2),
            PETERSEN_LESS_VERTEX,
        ],
        ids=[
            "c4", "c6", "k3", "k4", "fat-c3-m3", "k5", "fat-c5-m2",
            "petersen-less-vertex",
        ],
    )
    def test_matches_brute(self, graph):
        assert chromatic_index(graph).k == brute_chromatic_index(graph)


class TestTotalChromaticNumber:
    def test_c5(self):
        assert brute_total_chromatic(C5) == 4
        cert = total_chromatic_number(C5)
        assert cert.k == 4
        assert is_proper_total_coloring(C5, cert.witness)

    def test_k3(self):
        assert brute_total_chromatic(complete(3)) == 3
        assert total_chromatic_number(complete(3)).k == 3

    def test_k2_needs_three(self):
        # two vertices and their edge are pairwise conflicting
        assert brute_total_chromatic(K2) == 3
        cert = total_chromatic_number(K2)
        assert cert.k == 3
        assert cert.lower_bound_reason == "exhaustion"

    def test_empty_graph(self):
        cert = total_chromatic_number(Multigraph(0, ()))
        assert cert.k == 0
        assert cert.witness == TotalColoring(0, (), ())

    def test_edgeless(self):
        assert total_chromatic_number(Multigraph(3, ())).k == 1

    def test_element_cap(self):
        with pytest.raises(InstanceTooLargeError):
            total_chromatic_number(gen_fat_cycle(5, 4))

    def test_t2_matches_brute(self):
        assert brute_total_chromatic(T2) == 6
        assert total_chromatic_number(T2).k == 6

    def test_parallel_edges_take_ascending_colors(self):
        # fat C5 with mu = 3 has chi'' = 8; trying every order of colors on
        # each parallel class would spend 1,787 nodes
        g = gen_fat_cycle(5, 3)
        cert = total_chromatic_number(g, RunConfig(node_budget=1_000))
        assert (cert.k, cert.search_nodes) == (8, 148)
        assert is_proper_total_coloring(g, cert.witness)
        colors = cert.witness.edge_colors
        for e in range(0, g.m, 3):
            assert g.edges[e] == g.edges[e + 1] == g.edges[e + 2]
            assert colors[e] < colors[e + 1] < colors[e + 2]


class TestKDense:
    def test_t2_is_six_dense(self):
        assert is_k_dense(T2, {0, 1, 2}, 6)

    def test_c5_is_not_three_dense(self):
        assert not is_k_dense(C5, range(5), 3)

    def test_fat_c5_is_ten_dense(self):
        assert is_k_dense(gen_fat_cycle(5, 4), range(5), 10)

    def test_even_sets_never_dense(self):
        assert not is_k_dense(complete(4), range(4), 3)


class TestMaximalKDense:
    def test_two_triangles(self):
        tt = disjoint_union(T2, T2)
        assert brute_maximal_k_dense(tt, 6) == [(0, 1, 2), (3, 4, 5)]
        assert maximal_k_dense_subgraphs(tt, 6) == [(0, 1, 2), (3, 4, 5)]

    def test_c5_has_none(self):
        assert maximal_k_dense_subgraphs(C5, 3) == []

    def test_t2_whole_graph(self):
        assert maximal_k_dense_subgraphs(T2, 6) == [(0, 1, 2)]

    @pytest.mark.parametrize("k", [3, 5, 6, 8])
    def test_matches_brute(self, k):
        g = Multigraph(6, T2.edges + ((3, 4), (4, 5), (3, 5), (2, 3)))
        assert maximal_k_dense_subgraphs(g, k) == brute_maximal_k_dense(g, k)


class TestWalkSkipsIsolatedVertices:
    def test_matches_brute_with_isolated_vertices(self):
        # a walk from a threshold of at least Delta leaves the degree-0
        # vertices out; every answer stays that of plain enumeration, at
        # k = Delta (slack 0) too, where a set holding an isolated vertex
        # can be tight
        rng = random.Random(47)
        graphs = exhaustive_small_multigraphs() + planted_core_graphs(53, 40)
        violated = 0
        for base in graphs:
            g, isolated = with_isolated(base, rng)
            delta = g.max_degree()
            value, _ = brute_density(g)
            full = density(g)
            assert full.value == value
            assert full.witness == brute_smallest_maximizer(g)
            check_ceiling(g, delta, value)
            for k in range(delta, delta + 4):
                assert maximal_k_dense_subgraphs(g, k) == brute_maximal_k_dense(g, k)
                # the embedding's premise walk: a ceiling above k breaks
                # density <= k, else the kept sets are the tight sets
                found = oracles._density_ceiling(g, k - 1)
                if value > k:
                    assert found[0] > k
                else:
                    tight = found[1] if found else []
                    assert sorted(map(tuple, tight)) == sorted(brute_k_dense_sets(g, k))
            w = rng.choice(isolated)
            others = [v for v in range(g.n) if v != w]
            if not others:
                continue
            u = rng.choice(others)
            grown = g.with_edge(u, w)
            denser = brute_density(grown)[0]
            top = grown.max_degree()
            for k in range(top - 1, top + 2):
                hit = oracles._walk_odd_sets(grown, k, 1, 1, lambda subset, edges: None)
                assert hit == (denser > k)
                caps = max(grown.degrees[u], grown.degrees[w]) < k
                assert can_add_edge(g, u, w, k) == (caps and not hit)
                violated += hit
        assert violated >= 500

    def test_padded_fat_triangle_walks_only_its_core(self, monkeypatch):
        # fat C3 with mu = 6 padded to n = 14: Delta = 12, and its three
        # vertices with edges are 18-dense, so chromatic_index colors that
        # core at 18 and walks G not at all; the padding peels.  With the
        # attempt off it walks G once, from 12 (a walk that kept the 11
        # padding vertices would visit 8 nodes), and keeps G's tight sets
        # at 18 on its way: the embedding walks G no more.  Each node but
        # the last stops after one child, as the others cannot reach three
        # vertices
        g = Multigraph(14, gen_fat_cycle(3, 6).edges)
        node = next(
            c for c in oracles._walk_odd_sets.__code__.co_consts
            if getattr(c, "co_name", None) == "walk"
        )
        walks = []

        def traced(walk):
            def counted(graph, *args, **kwargs):
                if getattr(graph, "edges", None) != g.edges:
                    return walk(graph, *args, **kwargs)
                subsets = []

                def profile(frame, event, arg):
                    # each node has restored its subset when it returns
                    if event == "return" and frame.f_code is node:
                        subsets.append(tuple(frame.f_locals["subset"]))

                sys.setprofile(profile)
                try:
                    return walk(graph, *args, **kwargs)
                finally:
                    sys.setprofile(None)
                    walks.append(subsets)

            return counted

        for module in (oracles, embed_mod):
            monkeypatch.setattr(module, "_walk_odd_sets", traced(module._walk_odd_sets))
        cert = chromatic_index(g)
        assert cert.k == 18 and cert.host is not None
        assert cert.peeled == tuple(range(3, 14))
        assert walks == []
        monkeypatch.setattr(oracles, "FIRST_TRY", 0)
        assert chromatic_index(g).to_doc() == cert.to_doc()
        assert len(walks) == 1
        assert walks[0] == [(0, 1, 2), (0, 1), (0,), ()]  # in return order
        assert {v for subsets in walks for s in subsets for v in s} == {0, 1, 2}


def beat():
    """``density``'s callback: each hit raises the threshold to its ratio."""
    return lambda subset, edges: (2 * edges, len(subset) - 1)


def rise(n: int, floor: int):
    """``_density_ceiling``'s callback on n vertices from ``floor``: each
    hit raises the threshold to just below its ceiling."""

    def make():
        top = [floor]

        def on_hit(subset, edges):
            top[0] = max(top[0], -(-2 * edges // (len(subset) - 1)))
            return n * top[0] - 1, n

        return on_hit

    return make


def stop_at(hits: int, k: int):
    """Keeps the threshold k, then stops the walk at hit number ``hits``."""

    def make():
        seen = [0]

        def on_hit(subset, edges):
            seen[0] += 1
            return None if seen[0] == hits else (k, 1)

        return on_hit

    return make


def node_count(walk, graph, num, den, slack, make_on_hit) -> int:
    """The nodes ``walk`` visits: calls of its inner ``walk`` function."""
    node = next(
        c for c in walk.__code__.co_consts if getattr(c, "co_name", None) == "walk"
    )
    nodes = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is node:
            nodes[0] += 1

    sys.setprofile(profile)
    try:
        walk(graph, num, den, slack, make_on_hit())
    finally:
        sys.setprofile(None)
    return nodes[0]


class TestWalkBranchCuts:
    def test_same_calls_as_the_reference_walk(self):
        # the walk's branch cuts drop only subtrees without a hit: every
        # on_hit call, each returned threshold and the result are those of
        # the walk that cuts whole nodes only, at slack 0 and 1, with and
        # without forced vertices, for callbacks that raise the threshold,
        # keep it or stop the walk
        rng = random.Random(23)
        graphs = list(planted_core_graphs(29, 200))
        for _ in range(200):
            n = rng.randint(3, 11)
            cap = rng.randint(1, 4)
            m = rng.randint(0, min(4 * n, cap * n * (n - 1) // 2))
            graphs.append(gen_random_multigraph(n, m, cap, rng.getrandbits(32)))
        walks = hits = 0
        for g in graphs:
            if rng.random() < 0.3:
                g, _ = with_isolated(g, rng)
            delta = g.max_degree()
            pair = tuple(rng.sample(range(g.n), 2))
            runs = [
                (0, 1, 1, beat, ()),
                (delta, 1, 1, rise(g.n, delta), ()),
                (delta // 2, 1, 1, rise(g.n, delta // 2), pair[:1]),
            ]
            for k in range(max(delta - 1, 1), delta + 3):
                runs += [
                    (k, 1, 0, lambda: lambda subset, edges, k=k: (k, 1), forced)
                    for forced in ((), pair[:1], pair)
                ]
                runs.append((k, 1, 1, stop_at(rng.randint(1, 3), k), rng.choice(((), pair))))
            for num, den, slack, make_on_hit, forced in runs:
                args = (g, num, den, slack, make_on_hit, forced)
                calls, result = walk_calls(oracles._walk_odd_sets, *args)
                assert (calls, result) == walk_calls(reference_walk_odd_sets, *args)
                walks += 1
                hits += len(calls)
        assert walks >= 7_000 and hits >= 4_000

    def test_fewer_nodes_than_the_reference_walk(self):
        # density on a sparse random multigraph at n = 17 walks from
        # threshold 0, the walk's deepest use; the cuts halve its nodes
        g = gen_random_multigraph(17, 40, 2, 1)
        ours = node_count(oracles._walk_odd_sets, g, 0, 1, 1, beat)
        theirs = node_count(reference_walk_odd_sets, g, 0, 1, 1, beat)
        assert (ours, theirs) == (1230, 2531)


class TestDensityIdentity:
    def test_c5_vacuous(self):
        report = gs_verify(C5)
        assert report.ok and report.vacuous
        assert (report.chi_prime, report.delta) == (3, 2)

    def test_t2(self):
        report = gs_verify(T2)
        assert report.ok and not report.vacuous
        assert report.chi_prime == 6 == report.ceil_rho

    def test_fat_c5_mult_3(self):
        report = gs_verify(gen_fat_cycle(5, 3))
        assert report.ok and not report.vacuous
        assert report.delta == 6
        assert report.rho == Fraction(15, 2)
        assert report.ceil_rho == 8 == report.chi_prime


class TestEdgeCritical:
    def test_c5_is_critical(self):
        assert is_edge_critical(C5)

    def test_c6_is_not(self):
        c6 = cycle(6)
        assert brute_chromatic_index(c6) == 2
        assert brute_chromatic_index(c6.without_edge(0)) == 2
        assert not is_edge_critical(c6)

    def test_k2_is_critical(self):
        assert is_edge_critical(K2)

    def test_t2_is_critical(self):
        assert is_edge_critical(T2)


class TestRandomizedCrossValidation:
    def test_solvers_match_brute_on_seeded_multigraphs(self):
        import random

        rng = random.Random(4242)
        for _ in range(300):
            n = rng.randint(2, 5)
            cap = rng.randint(1, 4)
            m = rng.randint(0, min(8, cap * n * (n - 1) // 2))
            g = gen_random_multigraph(n, m, cap, rng.getrandbits(32))
            chi = chromatic_index(g).k
            assert chi == brute_chromatic_index(g)
            assert density(g).value == brute_density(g)[0]
            assert density(g).witness == brute_smallest_maximizer(g)
            # at chi - 1 sets denser than k can exist; none may be reported
            below = [chi - 1] if chi - 1 >= 1 else []
            for k in below + [chi, chi + 1]:
                assert maximal_k_dense_subgraphs(g, k) == brute_maximal_k_dense(g, k)

    def test_total_solver_matches_brute_on_seeded_multigraphs(self):
        import random

        # n + m <= 14 on up to 8 vertices: the brute force's first-use
        # rule keeps the 300 graphs under a second
        rng = random.Random(2424)
        widest = largest = 0
        for _ in range(300):
            n = rng.randint(2, 8)
            cap = rng.randint(1, 4)
            m = rng.randint(0, min(14 - n, cap * n * (n - 1) // 2))
            g = gen_random_multigraph(n, m, cap, rng.getrandbits(32))
            cert = total_chromatic_number(g)
            assert cert.k == brute_total_chromatic(g)
            assert is_proper_total_coloring(g, cert.witness)
            widest = max(widest, g.multiplicity())
            largest = max(largest, g.n + g.m)
        assert widest == 4  # the twin rule meets classes of up to four edges
        assert largest == 14


class TestFeasibilitySearch:
    def test_finds_coloring_at_exact_k(self):
        phi = find_k_edge_coloring(T2, 6)
        assert phi is not None
        assert is_proper_edge_coloring(T2, phi)

    def test_none_below_chromatic_index(self):
        assert find_k_edge_coloring(T2, 5) is None

    def test_deep_search_does_not_recurse(self):
        # one search position per edge, past the interpreter's default
        # limit of 1,000 frames; the 1,200 twins share one conflict row,
        # so the search stays within a few MB, and take ascending colors
        g = Multigraph(2, ((0, 1),) * 1200)
        tracemalloc.start()
        try:
            phi = find_k_edge_coloring(g, 1200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert phi.colors == tuple(range(1, 1201))
        assert peak < 10_000_000

    def test_no_edge_cap(self):
        g = gen_fat_cycle(45, 1)  # 45 edges, past the chromatic-index cap
        phi = find_k_edge_coloring(g, 3)
        assert phi is not None and is_proper_edge_coloring(g, phi)

    def test_dense_decomposition_on_large_host(self):
        # heavy parallel classes defeat edge-at-a-time backtracking; the
        # class-by-class decomposition handles the 57-edge 19-dense host
        core = Multigraph(6, ((0, 1),) * 7 + ((0, 2),) * 7 + ((1, 2),) * 5)
        from densecolor import embed_k_dense

        host, _ = embed_k_dense(core, 19)
        assert is_k_dense(host, range(host.n), 19)
        phi = find_k_edge_coloring(host, 19)
        assert phi is not None and is_proper_edge_coloring(host, phi)

    def test_dense_instance_with_denser_core_is_infeasible(self):
        # 10-dense overall, but the fat triangle inside has density 12, so
        # no 10-coloring exists; the class search must prove that
        g = Multigraph(
            5,
            ((0, 1),) * 4
            + ((0, 2),) * 4
            + ((1, 2),) * 4
            + ((3, 4),) * 4
            + ((0, 3), (1, 3), (2, 4), (0, 4)),
        )
        assert is_k_dense(g, range(5), 10)
        assert find_k_edge_coloring(g, 10) is None

    def test_class_search_matches_backtracking_on_dense_instances(self):
        import random

        from densecolor.oracles import _dense_class_search, _edge_color_search

        def check(g, k):
            a, _ = _dense_class_search(g, k, 0, 10**7)
            b, _ = _edge_color_search(g, k, 0, 10**7)
            assert (a is None) == (b is None)
            if a is not None:
                assert is_proper_edge_coloring(g, EdgeColoring(k, tuple(a)))
            return a is not None

        rng = random.Random(2026)
        tested = 0
        while tested < 150:
            n = rng.choice([3, 5, 7])
            cap = rng.randint(1, 4)
            m = rng.randint(0, min(12 if n < 7 else 18, cap * n * (n - 1) // 2))
            if (2 * m) % (n - 1) or m == 0:
                continue
            k = 2 * m // (n - 1)
            g = gen_random_multigraph(n, m, cap, rng.getrandbits(32))
            if not is_k_dense(g, range(n), k):
                continue
            check(g, k)
            tested += 1
        # n = 7 with every degree at most k, so a refutation needs the
        # search: pairs drawn among the vertices still below degree k
        outcomes = []
        while len(outcomes) < 60:
            k = rng.randint(2, 6)
            deg = [0] * 7
            edges = []
            while len(edges) < 3 * k:
                below = [v for v in range(7) if deg[v] < k]
                if len(below) < 2:
                    break
                u, v = rng.sample(below, 2)
                edges.append((u, v))
                deg[u] += 1
                deg[v] += 1
            if len(edges) == 3 * k:
                outcomes.append(check(Multigraph(7, tuple(edges)), k))
        assert outcomes.count(True) >= 40 and outcomes.count(False) >= 5


class TestDensityCapLimit:
    # the odd-set walk recurses once per vertex of its set, so the cap
    # stays where the deepest walk fits the interpreter's frames
    def test_cap_is_at_most_500(self):
        assert RunConfig(density_max_n=500).density_max_n == 500
        with pytest.raises(ValueError, match="density_max_n is at most 500"):
            RunConfig(density_max_n=501)

    def test_walk_499_deep(self):
        # only the whole cycle is denser than Delta = 2, at 499/249
        assert oracles._density_ceiling(cycle(499), 2) == (3, [])


def clash_every_coloring(monkeypatch, elements=None):
    """Make the conflict search return color 1 for every element wherever
    it finds a coloring; with ``elements``, only in searches over that
    many elements."""
    real = oracles._conflict_color_search

    def clashing(neighbors, *args):
        colors, spent = real(neighbors, *args)
        if colors is not None and elements in (None, len(neighbors)):
            colors = [1] * len(neighbors)
        return colors, spent

    monkeypatch.setattr(oracles, "_conflict_color_search", clashing)


class TestEveryColoringIsChecked:
    # the oracle that returns a coloring checks it; a clash raises with the
    # graph as its certificate
    @pytest.mark.parametrize(
        "call",
        [
            total_chromatic_number,
            lambda g: chromatic_index(g, RunConfig(density_max_n=3)),
            lambda g: find_k_edge_coloring(g, 3),
        ],
        ids=["total", "chi-index-exhaustive", "find-k"],
    )
    def test_clashing_engine_raises(self, monkeypatch, call):
        clash_every_coloring(monkeypatch)
        with pytest.raises(GuaranteeViolationError) as info:
            call(C5)
        assert info.value.certificate == serialize(C5)

    def test_clashing_host_coloring_raises(self, monkeypatch):
        # nothing to peel: the extension of the host's coloring meets the
        # clash and raises with the host, which is T2 itself, and for fat
        # C5 with mu = 5 is G with one edge more
        def clashing(graph, k, spent, limit):
            return [1] * graph.m, spent

        c5_host, _ = embed_k_dense(gen_fat_cycle(5, 5), 13)
        assert c5_host.m == 26
        monkeypatch.setattr(oracles, "_dense_class_search", clashing)
        for graph, host in ((T2, T2), (gen_fat_cycle(5, 5), c5_host)):
            with pytest.raises(GuaranteeViolationError) as info:
                chromatic_index(graph)
            assert info.value.certificate == serialize(host)

    def test_clashing_host_coloring_of_a_core_raises(self, monkeypatch):
        # T2 beside an isolated vertex peels to T2, whose host is itself:
        # the extension of the host's coloring meets the clash
        def clashing(graph, k, spent, limit):
            return [1] * graph.m, spent

        monkeypatch.setattr(oracles, "_dense_class_search", clashing)
        with pytest.raises(GuaranteeViolationError) as info:
            chromatic_index(Multigraph(4, T2.edges))
        assert info.value.certificate == serialize(T2)

    def test_search_records_no_clashing_total_coloring(self, monkeypatch):
        # the density cap of 8 keeps the walk of G, and so the host route,
        # off this 9-vertex graph, so the total oracle settles chi'' over
        # n + m = 18 elements; the chi' search over 9 stays intact
        g = Multigraph(9, gen_fat_cycle(3, 3).edges)
        clash_every_coloring(monkeypatch, elements=g.n + g.m)
        with pytest.raises(GuaranteeViolationError) as info:
            search_goldberg([("t3", g)], RunConfig(density_max_n=8))
        assert info.value.certificate == serialize(g)
