import importlib
import json
import math
import os
import pickle
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from densecolor import (
    BudgetExceededError,
    DensecolorError,
    EdgeColoring,
    GraphFormatError,
    GuaranteeViolationError,
    HypothesisNotMetError,
    InstanceTooLargeError,
    Multigraph,
    RunConfig,
    TotalColoring,
    chromatic_index,
    complete,
    corollary_applicable,
    corollary_inequality,
    cycle,
    density,
    embed_k_dense,
    extend_to_total,
    find_k_edge_coloring,
    fixture,
    gen_fat_cycle,
    is_k_dense,
    is_proper_edge_coloring,
    is_proper_total_coloring,
    missing_colors,
    permute_colors,
    restrict_total,
    serialize,
    total_chromatic_number,
    totalize,
)

import densecolor.coloring as coloring_mod
import densecolor.embed as embed_mod
import densecolor.oracles as oracles_mod
from densecolor.oracles import CHI_INDEX_MAX_EDGES
from densecolor.totalize import _totalize_with

# the package's ``totalize`` function shadows the module of that name
totalize_mod = importlib.import_module("densecolor.totalize")

from brute import brute_chromatic_index, brute_is_proper, brute_total_chromatic

T2 = gen_fat_cycle(3, 2)
C5 = cycle(5)


def multi_core(n, counts):
    """n vertices holding a core given by its pair multiplicities."""
    return Multigraph(n, tuple(p for p, c in counts.items() for _ in range(c)))


def clique(lo, hi):
    """The edges of the complete graph on vertices lo..hi-1."""
    return tuple((u, v) for u in range(lo, hi) for v in range(u + 1, hi))


# L = 13 = Delta + 2 and n = 4: every degree is above L - Delta = 2, so
# nothing peels, and the host adds a parity vertex
CORE4 = multi_core(4, {(0, 1): 5, (0, 2): 1, (0, 3): 5, (1, 2): 2, (1, 3): 3, (2, 3): 2})


class TestExtend:
    def test_fat_triangle(self):
        phi = chromatic_index(T2).witness
        psi = extend_to_total(T2, phi, 6)
        assert is_proper_total_coloring(T2, psi)
        assert psi.edge_colors == phi.colors
        assert len(set(psi.vertex_colors)) == 3
        for v in range(3):
            assert psi.vertex_colors[v] in missing_colors(T2, phi, v)

    def test_fat_c5(self):
        g = gen_fat_cycle(5, 4)
        phi = chromatic_index(g).witness
        psi = extend_to_total(g, phi, 10)
        assert is_proper_total_coloring(g, psi)
        assert len(set(psi.vertex_colors)) == 5

    def test_not_dense_rejected(self):
        phi = EdgeColoring(3, (1, 2, 1, 2, 3))
        with pytest.raises(GuaranteeViolationError, match="dense"):
            extend_to_total(C5, phi, 3)

    def test_full_degree_vertex_rejected(self):
        # 4-dense triangle with a degree-4 vertex: no color is free there
        g = Multigraph(3, ((0, 1), (0, 1), (0, 2), (0, 2)))
        phi = EdgeColoring(4, (1, 2, 3, 4))
        with pytest.raises(GuaranteeViolationError, match="no color is free"):
            extend_to_total(g, phi, 4)

    def test_palette_mismatch_rejected(self):
        phi = chromatic_index(T2).witness
        with pytest.raises(ValueError, match="palette"):
            extend_to_total(T2, phi, 7)

    def test_improper_input_rejected(self):
        phi = EdgeColoring(6, (1, 1, 2, 3, 4, 5))
        with pytest.raises(ValueError, match="not proper"):
            extend_to_total(T2, phi, 6)

    def test_repeat_at_the_last_vertex_rejected(self):
        # an edge at the last vertex recolored to a color missing at its
        # other end: the only repeated color sits at the last vertex
        g = gen_fat_cycle(5, 4)
        phi = chromatic_index(g).witness
        last = g.n - 1
        eid = g.incidence[last][0]
        other = sum(g.edges[eid]) - last
        colors = list(phi.colors)
        colors[eid] = min(missing_colors(g, phi, other))
        repeats = [
            v for v in range(g.n)
            if len({colors[e] for e in g.incidence[v]}) < g.degrees[v]
        ]
        assert repeats == [last]
        with pytest.raises(ValueError, match="not proper"):
            extend_to_total(g, EdgeColoring(10, tuple(colors)), 10)

    @pytest.mark.parametrize(
        ("graph", "k"),
        [(T2, 6), (gen_fat_cycle(3, 3), 9), (gen_fat_cycle(5, 2), 5)],
        ids=["t2", "fat-c3-m3", "fat-c5-m2"],
    )
    def test_matches_brute_on_recolored_edges(self, graph, k):
        # permuted palettes stay proper and extend to a total coloring the
        # brute checker accepts; one edge recolored is rejected exactly
        # when the brute checker finds a clash
        rng = random.Random(17)
        phi = chromatic_index(graph).witness
        assert phi.k == k
        rejected = 0
        for _ in range(40):
            perm = list(range(1, k + 1))
            rng.shuffle(perm)
            colors = list(permute_colors(phi, perm).colors)
            colors[rng.randrange(graph.m)] = rng.randint(1, k)
            if brute_is_proper(graph, colors):
                psi = extend_to_total(graph, EdgeColoring(k, tuple(colors)), k)
                assert brute_is_proper(graph, psi.edge_colors, psi.vertex_colors)
            else:
                rejected += 1
                with pytest.raises(ValueError, match="not proper"):
                    extend_to_total(graph, EdgeColoring(k, tuple(colors)), k)
        assert 0 < rejected < 40

    def test_extension_commutes_with_permutation_up_to_vertex_choice(self):
        # the edge part permutes identically; the vertex part is drawn from
        # the permuted missing sets (the smallest-missing-color rule is not
        # itself permutation-equivariant)
        import random

        from densecolor import permute_colors

        phi = chromatic_index(T2).witness
        rng = random.Random(5)
        for _ in range(10):
            perm = list(range(1, 7))
            rng.shuffle(perm)
            sigma = permute_colors(phi, tuple(perm))
            psi = extend_to_total(T2, sigma, 6)
            assert is_proper_total_coloring(T2, psi)
            assert psi.edge_colors == sigma.colors
            for v in range(3):
                assert psi.vertex_colors[v] in missing_colors(T2, sigma, v)


class TestRestrict:
    def test_identity(self):
        phi = chromatic_index(T2).witness
        psi = extend_to_total(T2, phi, 6)
        assert restrict_total(T2, psi, T2) == psi

    def test_pipeline_restriction(self):
        # CORE4 has nothing to peel, so the pipeline's host is its own: a
        # parity vertex and eight added edges
        cert = totalize(CORE4)
        assert (cert.g_prime.n, cert.pipeline.peeled) == (5, ())
        psi = restrict_total(
            cert.g_prime, extend_to_total(cert.g_prime, cert.g_prime_coloring, 13), CORE4
        )
        assert is_proper_total_coloring(CORE4, psi)
        # original edge ids keep their colors
        assert psi.edge_colors == cert.g_prime_coloring.colors[: CORE4.m]

    def test_restrict_to_empty_graph(self):
        phi = chromatic_index(T2).witness
        psi = extend_to_total(T2, phi, 6)
        empty = Multigraph(0, ())
        assert restrict_total(T2, psi, empty) == TotalColoring(6, (), ())

    def test_id_mismatch_rejected(self):
        phi = chromatic_index(T2).witness
        psi = extend_to_total(T2, phi, 6)
        other = Multigraph(3, ((0, 2),))
        with pytest.raises(ValueError, match="prefix"):
            restrict_total(T2, psi, other)


class TestTotalize:
    def test_fat_triangle(self):
        cert = totalize(T2)
        assert cert.k == 6
        assert is_proper_total_coloring(T2, cert.coloring)
        assert total_chromatic_number(T2).k == 6

    def test_fat_c5(self):
        g = gen_fat_cycle(5, 4)
        cert = totalize(g)
        assert cert.k == 10
        assert is_proper_total_coloring(g, cert.coloring)
        # already 10-dense: the embedding adds nothing
        assert cert.g_prime == g
        assert cert.pipeline.embedding.added_edges == ()

    def test_c5_out_of_hypothesis(self):
        with pytest.raises(HypothesisNotMetError) as info:
            totalize(C5)
        assert info.value.chi_prime == 3
        assert info.value.delta_plus_2 == 4

    def test_every_error_round_trips_through_pickle(self):
        # a process pool hands a worker's exception back pickled, so
        # totalize(C5) there must raise the hypothesis error itself
        with pytest.raises(HypothesisNotMetError) as info:
            totalize(C5)
        samples = [
            DensecolorError("base"),
            GraphFormatError("line 2: expected 'e u v'"),
            InstanceTooLargeError("capped at m = 40, got 45"),
            BudgetExceededError("search budget of 5 nodes exhausted"),
            info.value,
            GuaranteeViolationError("stalled", certificate=serialize(T2)),
        ]

        def subclasses(cls):
            return {cls}.union(*(subclasses(sub) for sub in cls.__subclasses__()))

        assert {type(exc) for exc in samples} == subclasses(DensecolorError)
        for exc in samples:
            back = pickle.loads(pickle.dumps(exc))
            assert type(back) is type(exc)
            assert (str(back), vars(back)) == (str(exc), vars(exc))

    def test_nontrivial_embedding(self):
        g = fixture("t2-2k1")
        cert = totalize(g)
        assert cert.k == 6
        assert is_proper_total_coloring(g, cert.coloring)
        assert brute_total_chromatic(g) == 6

    def test_host_finished_by_exchange_move(self):
        # G's own host stalls in greedy and is finished by one exchange
        # move; its coloring extends and restricts as the pipeline's does.
        # totalize peels the isolated pair and embeds T2, with no move (no
        # seeded input without a vertex to peel has needed one)
        g = fixture("2k1-t2")
        g_prime, report = embed_k_dense(g, 6)
        assert len(report.exchange_moves) == 1
        phi = find_k_edge_coloring(g_prime, 6)
        psi = restrict_total(g_prime, extend_to_total(g_prime, phi, 6), g)
        assert is_proper_total_coloring(g, psi)
        cert = totalize(g)
        assert cert.k == 6
        assert is_proper_total_coloring(g, cert.coloring)
        assert cert.pipeline.peeled == (0, 1)
        assert cert.pipeline.embedding.exchange_moves == ()

    def test_vertex_colors_come_from_host_missing_sets(self):
        # CORE4's host adds a parity vertex; G's vertices keep the colors
        # they miss in the host's coloring
        cert = totalize(CORE4)
        assert cert.pipeline.embedding.parity_vertex_added
        for v in range(CORE4.n):
            assert cert.coloring.vertex_colors[v] in missing_colors(
                cert.g_prime, cert.g_prime_coloring, v
            )

    def test_host_beyond_oracle_cap(self):
        # the 48-edge host exceeds the exact oracle cap, but a found
        # k-coloring plus monotonicity from the input still pins chi'(G) = k;
        # fat C3 (mult 4) beside K6, whose degrees 5 > k - Delta = 4 keep
        # every vertex in the core
        g = Multigraph(9, gen_fat_cycle(3, 4).edges + clique(3, 9))
        cert = totalize(g)
        assert cert.k == 12
        assert cert.pipeline.peeled == ()
        assert cert.g_prime.m == 48 > CHI_INDEX_MAX_EDGES
        assert is_k_dense(cert.g_prime, range(cert.g_prime.n), 12)
        assert is_proper_edge_coloring(cert.g_prime, cert.g_prime_coloring)
        assert is_proper_total_coloring(g, cert.coloring)

    def test_heavy_parallel_core_beyond_cap(self):
        # chi' = 19 host with 76 edges and huge parallel classes: the heavy
        # triangle beside K6 plus a perfect matching, whose degrees
        # 6 > k - Delta = 5 keep every vertex in the core
        heavy = ((0, 1),) * 7 + ((0, 2),) * 7 + ((1, 2),) * 5
        g = Multigraph(9, heavy + clique(3, 9) + ((3, 4), (5, 6), (7, 8)))
        cert = totalize(g)
        assert cert.k == 19
        assert cert.pipeline.peeled == ()
        assert cert.g_prime.m == 76 > CHI_INDEX_MAX_EDGES
        assert is_k_dense(cert.g_prime, range(cert.g_prime.n), 19)
        assert is_proper_total_coloring(g, cert.coloring)

    @pytest.mark.parametrize(
        ("graph", "k"),
        [
            (Multigraph(5, complete(5).edges * 4), 20),
            (gen_fat_cycle(5, 8), 20),
            (Multigraph(9, gen_fat_cycle(5, 7).edges), 18),
            (Multigraph(11, gen_fat_cycle(5, 8).edges), 20),
        ],
        ids=["k5x4", "fat-c5-m8", "fat-c5-m7-n9", "fat-c5-m8-n11"],
    )
    def test_dense_input_within_small_budget(self, graph, k):
        # the first two are already k-dense, so the host is G itself and the
        # class-by-class search colors it; the padded ones are not k-dense,
        # and an exact chi'(G) search would backtrack edge at a time through
        # tens of thousands of nodes before the host is even built
        cert = totalize(graph, RunConfig(node_budget=10_000))
        assert cert.k == k
        assert is_proper_total_coloring(graph, cert.coloring)

    @pytest.mark.parametrize(
        "graph",
        [
            Multigraph(17, gen_fat_cycle(3, 12).edges),
            Multigraph(19, gen_fat_cycle(3, 13).edges),
            multi_core(9, {(0, 1): 4, (0, 2): 5, (0, 3): 1, (1, 2): 4, (1, 3): 1, (2, 3): 1}),
            multi_core(9, {(0, 1): 4, (0, 2): 5, (0, 3): 2, (1, 2): 4, (1, 3): 3, (2, 3): 2}),
        ],
        ids=["fat-c3-m12-n17", "fat-c3-m13-n19", "core4-n9", "core4-slower-n9"],
    )
    def test_padded_core_host_colors_within_small_budget(self, graph):
        # small dense cores padded with isolated vertices: the host's class
        # search spends 50k to over 1M nodes in id order without the density
        # prune, and at most about 400 branching on the most constrained
        # vertex
        config = RunConfig(node_budget=1_000)
        lower = max(graph.max_degree(), math.ceil(density(graph).value))
        cert = totalize(graph, config)
        assert cert.k == lower
        assert is_proper_total_coloring(graph, cert.coloring)
        assert chromatic_index(graph, config).host is not None

    def test_in_hypothesis_beyond_chi_index_cap(self):
        # m = 49 > CHI_INDEX_MAX_EDGES, but L = ceil(rho) = 17 meets the
        # hypothesis, so the host's 17-coloring certifies chi'(G) = 17 in
        # both totalize and chromatic_index
        g = gen_fat_cycle(7, 7)
        cert = totalize(g)
        assert cert.k == 17
        assert is_proper_total_coloring(g, cert.coloring)
        chi = chromatic_index(g)
        assert chi.k == 17
        assert chi.lower_bound_reason == "density"
        assert is_proper_edge_coloring(g, chi.witness)

    def test_host_route_matches_exact_chi_prime(self):
        # random 3-4 vertex multigraphs on which L = max(Delta, ceil(rho))
        # meets the hypothesis: the host route's chi' is the exact chi'(G)
        # of the k-loop, which a density cap below n keeps off the route
        # and searches from Delta; and a certificate without a host, for
        # such a graph, is refused with G as the counterexample
        rng = random.Random(11)
        config = RunConfig()
        checked = brute_checked = 0
        while checked < 100:
            n = rng.choice((3, 4))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = tuple(
                pair for pair in pairs for _ in range(rng.randint(0, 3))
            )
            g = Multigraph(n, edges)
            delta = g.max_degree()
            lower = max(delta, math.ceil(density(g).value))
            if lower < max(delta + 2, n + 1):
                continue
            checked += 1
            cert = totalize(g, config)
            chi = chromatic_index(g, config)
            loop = chromatic_index(g, RunConfig(density_max_n=n - 1))
            assert loop.host is None
            assert chi.lower_bound_reason == "density"
            assert cert.k == chi.k == loop.k
            with pytest.raises(GuaranteeViolationError) as info:
                _totalize_with(g, loop, config)
            assert info.value.certificate == serialize(g)
            if g.m <= 7:
                brute_checked += 1
                assert cert.k == brute_chromatic_index(g)
        assert brute_checked >= 20

    @pytest.mark.parametrize(
        ("graph", "walks"),
        [
            (T2, 0),
            (gen_fat_cycle(5, 4), 0),
            (Multigraph(9, gen_fat_cycle(5, 5).edges), 1),
            (Multigraph(9, gen_fat_cycle(3, 4).edges), 0),
        ],
        ids=[
            "t2-dense",
            "fat-c5-m4-dense",
            "fat-c5-m5-n9-below-k",
            "fat-c3-m4-n9-at-k",
        ],
    )
    def test_host_route_walks_the_graph_once(self, monkeypatch, graph, walks):
        # chromatic_index's walk from Delta proves density <= k and keeps
        # G's tight sets, so the embedding walks G no more, rho == k with
        # edges missing included; that walk comes before saturation.  A G
        # whose vertices with edges, V', are whole-dense, colored at
        # k = 2m/(|V'|-1), has V' as its host and density witness, and is
        # not walked at all, padded (fat C3 with mu = 4 at n = 9) or not
        events = []

        def counting(walk):
            def counted(g, *args, **kwargs):
                events.append("G" if getattr(g, "edges", None) == graph.edges else "other")
                return walk(g, *args, **kwargs)

            return counted

        for module in (oracles_mod, embed_mod):
            monkeypatch.setattr(module, "_walk_odd_sets", counting(module._walk_odd_sets))
        saturate = embed_mod._saturate

        def marked(*args):
            events.append("saturate")
            return saturate(*args)

        monkeypatch.setattr(embed_mod, "_saturate", marked)
        cert = totalize(graph)
        assert is_proper_total_coloring(graph, cert.coloring)
        assert events[:walks] == ["G"] * walks
        assert events.count("G") == walks
        saturated = "saturate" in events
        assert saturated == (2 * graph.m < cert.k * (cert.g_prime.n - 1))
        if saturated:
            assert events[walks] == "saturate"

    @staticmethod
    def count_checks(monkeypatch, g):
        """totalize(g), with the graphs of its properness checks (and
        whether each was of a total coloring) and of its extensions."""
        checks = []
        clash_free = coloring_mod._clash_free

        def counted(graph, edge_colors, vertex_colors=None):
            checks.append((graph, vertex_colors is not None))
            return clash_free(graph, edge_colors, vertex_colors)

        monkeypatch.setattr(coloring_mod, "_clash_free", counted)
        extended = []
        extend = totalize_mod.extend_to_total

        def counted_extend(graph, phi, k):
            extended.append(graph)
            return extend(graph, phi, k)

        monkeypatch.setattr(totalize_mod, "extend_to_total", counted_extend)
        return totalize(g), checks, extended

    @pytest.mark.parametrize(
        "graph",
        [gen_fat_cycle(5, 5), Multigraph(9, gen_fat_cycle(3, 4).edges)],
        ids=["nothing-to-peel", "peeled"],
    )
    def test_each_coloring_checked_once(self, monkeypatch, graph):
        # the host coloring in the extension pass, then G's total coloring,
        # restricted from the host's and with any peeled vertices back, in
        # chromatic_index; its edge part is the chi' witness, and totalize
        # takes it as it is
        cert, checks, extended = self.count_checks(monkeypatch, graph)
        assert checks == [(graph, True)]
        assert extended == [cert.g_prime]

    def test_matches_exhaustive_total_oracle(self):
        for name in ("t2", "t2-k1", "t2-2k1"):
            g = fixture(name)
            assert totalize(g).k == brute_total_chromatic(g)
        # too heavy for the naive brute force: cross-check the pipeline
        # against the element-coloring search instead
        g = fixture("fat-c3-m3")
        assert totalize(g).k == total_chromatic_number(g).k == 9


def padded_cores(seed, count):
    """Seeded multigraphs: a 3-, 4- or 5-vertex core with every pair
    present (multiplicity up to 4, 3 or 2), up to two isolated vertices
    and up to two pendant vertices, each joined to a vertex before it, on
    shuffled labels."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        c = rng.choice((3, 3, 4, 5))
        top = {3: 4, 4: 3, 5: 2}[c]
        pairs = [(u, v) for u in range(c) for v in range(u + 1, c)]
        edges = [p for p in pairs for _ in range(rng.randint(1, top))]
        n = c + rng.randint(0, 2)
        for _ in range(rng.randint(0, 2)):
            edges.append((n, rng.randrange(n)))
            n += 1
        label = list(range(n))
        rng.shuffle(label)
        out.append(Multigraph(n, tuple((label[u], label[v]) for u, v in edges)))
    return out


# fat C3 with mu = 4 beside a 9-vertex path on vertices 3..11: n = 12 and
# chi' = L = 12, so G itself misses the hypothesis, but the path peels
PENDANT_PATH = Multigraph(
    12, gen_fat_cycle(3, 4).edges + tuple((v, v + 1) for v in range(3, 11))
)


def best_time(call, *args, runs=3):
    """The least wall time of ``runs`` calls, and the last call's result."""
    best = math.inf
    for _ in range(runs):
        start = time.perf_counter()
        out = call(*args)
        best = min(best, time.perf_counter() - start)
    return best, out


class TestPeeling:
    def test_reduced_route_matches_the_exact_oracles(self):
        # every graph the host route certifies after peeling has the
        # total chromatic number k = chi' of its certificate: checked by
        # the total oracle at n + m <= 24 and by brute force at n <= 4
        reduced = oracle_checked = brute_checked = 0
        for g in padded_cores(3, 1000):
            chi = chromatic_index(g)
            if not chi.peeled:
                continue
            reduced += 1
            assert chi.host is not None
            assert is_proper_total_coloring(g, chi.total)
            assert is_proper_edge_coloring(g, chi.witness)
            cert = totalize(g)
            assert cert.k == chi.k == chi.total.k
            assert cert.coloring == chi.total
            assert cert.pipeline.peeled == chi.peeled
            assert cert.pipeline.hypothesis_n_plus_1 == cert.g_prime.n + 1 - (
                cert.pipeline.embedding.parity_vertex_added
            )
            if g.n + g.m <= 24:
                oracle_checked += 1
                assert total_chromatic_number(g).k == chi.k
            if g.n <= 4:
                brute_checked += 1
                assert brute_total_chromatic(g) == chi.k
        assert reduced >= 130
        assert oracle_checked >= 125
        assert brute_checked >= 30

    @pytest.mark.parametrize(
        ("graph", "host_m"),
        [(gen_fat_cycle(3, 4), 12), (gen_fat_cycle(5, 5), 26)],
        ids=["host-is-g", "host-gains-an-edge"],
    )
    def test_unpeeled_total_is_the_hosts_prefix(self, graph, host_m):
        # with nothing peeled G's ids are a prefix of the host's, so G's
        # total coloring is the prefix of the host's extension, and G's
        # incidence is never built
        g = Multigraph(graph.n, graph.edges)  # no cached properties yet
        chi = chromatic_index(g)
        assert chi.peeled == ()
        assert chi.host.g_prime.edges[: g.m] == g.edges
        assert chi.host.g_prime.m == host_m
        assert "incidence" not in g.__dict__
        full = extend_to_total(chi.host.g_prime, chi.host.coloring, chi.k)
        assert chi.total == TotalColoring(
            chi.k, full.edge_colors[: g.m], full.vertex_colors[: g.n]
        )
        assert chi.witness.colors == chi.total.edge_colors

    def test_pendant_path_on_the_core_adds_back(self):
        # a path hung on vertex 2 of fat C3 with mu = 4 peels whole; the
        # core keeps the host's colors, and the path's edges and vertices
        # take the lowest free colors in reverse peel order
        g = Multigraph(
            12, gen_fat_cycle(3, 4).edges + tuple((v, v + 1) for v in range(2, 11))
        )
        chi = chromatic_index(g)
        assert chi.peeled == tuple(range(3, 12))
        assert "incidence" in g.__dict__
        full = extend_to_total(chi.host.g_prime, chi.host.coloring, chi.k)
        assert chi.total.edge_colors[:12] == full.edge_colors
        assert chi.total.vertex_colors[:3] == full.vertex_colors
        assert chi.total.edge_colors[12:] == (2, 1, 2, 3, 1, 2, 3, 1, 2)
        assert chi.total.vertex_colors[3:] == (4, 3, 1, 2, 3, 1, 2, 3, 1)
        assert is_proper_total_coloring(g, chi.total)

    def test_pendant_path_certifies_fast(self):
        # the k-loop settles chi' = 12 < n + 1 = 13 here, and G had no host
        elapsed, cert = best_time(totalize, PENDANT_PATH)
        assert elapsed < 0.010
        assert cert.k == 12
        assert cert.pipeline.peeled == tuple(range(3, 12))
        assert cert.pipeline.hypothesis_n_plus_1 == 4
        assert cert.g_prime == gen_fat_cycle(3, 4)
        assert is_proper_total_coloring(PENDANT_PATH, cert.coloring)

    def test_cascade_peel_certifies(self):
        # vertex 3 joined to leaves 4..8 beside fat C3 with mu = 4: 3 peels
        # once leaf 4 is off, and the triangle's host certifies chi'' = 12
        g = Multigraph(9, gen_fat_cycle(3, 4).edges + ((3, 4), (3, 5), (3, 6), (3, 7), (3, 8)))
        cert = totalize(g)
        assert (cert.k, cert.pipeline.peeled) == (12, (4, 3, 5, 6, 7, 8))
        assert cert.g_prime == gen_fat_cycle(3, 4)
        assert is_proper_total_coloring(g, cert.coloring)

    def test_peel_order_does_not_depend_on_the_hash_seed(self, tmp_path):
        # fat C3 (mu = 4, cap L - Delta = 4) beside K6 less the edge 7-8 on
        # vertices 3..8: 7 and 8 are at the cap, and 7 goes first; then
        # 3..6 fall to the cap and go in index order before 8
        path = tmp_path / "g.mg"
        graph = Multigraph(9, gen_fat_cycle(3, 4).edges + clique(3, 9)[:-1])
        path.write_text(serialize(graph))
        outputs = []
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "densecolor", "totalize", "--format", "json",
                 str(path)],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["pipeline"]["peeled"] == [7, 3, 4, 5, 6, 8]


class TestCorollary:
    def test_inequality_examples(self):
        # threshold (5-2)/1 = 3 <= 5
        assert corollary_inequality(5, 5, 10, 8)
        # threshold (10-2)/1 = 8 > 3
        assert not corollary_inequality(10, 3, 4, 2)

    def test_inequality_needs_gap(self):
        with pytest.raises(ValueError):
            corollary_inequality(5, 5, 5, 4)

    def test_spanning_fat_triangle(self):
        report = corollary_applicable(T2, range(3))
        assert report.applicable
        assert report.subgraph_is_critical
        assert report.threshold == Fraction(1)
        assert report.reason == "all conditions hold"

    def test_vacuous_below_delta_plus_2(self):
        report = corollary_applicable(C5, range(5))
        assert not report.applicable
        assert report.reason.startswith("vacuous")

    def test_smaller_chi_subgraph_rejected(self):
        # H = one parallel pair of T2: chi'(H) = 2 < 6
        report = corollary_applicable(T2, {0, 1}, edge_ids=(0, 1))
        assert not report.applicable
        assert report.subgraph_chi_prime == 2
        assert "differs" in report.reason

    def test_bad_designation(self):
        with pytest.raises(ValueError, match="leaves"):
            corollary_applicable(T2, {0, 1}, edge_ids=(2,))

    def test_subgraph_chromatic_index_computed_once(self, monkeypatch):
        # chi'(H) feeds both the equality test and the criticality test
        g = fixture("t2-k1")
        sub, _, _ = g.induced_subgraph((0, 1, 2))
        calls = []
        real = oracles_mod.chromatic_index

        def counted(graph, config):
            calls.append(graph)
            return real(graph, config)

        for module in (oracles_mod, totalize_mod):
            monkeypatch.setattr(module, "chromatic_index", counted)
        report = corollary_applicable(g, {0, 1, 2})
        assert calls.count(sub) == 1
        assert report.to_doc() == {
            "applicable": True,
            "reason": "all conditions hold",
            "chi_prime": 6,
            "delta": 4,
            "graph_n": 4,
            "subgraph_n": 3,
            "subgraph_chi_prime": 6,
            "subgraph_is_critical": True,
            "threshold": "2",
            "size_ok": True,
        }
