"""Property tests for the library invariants on random small multigraphs."""

import math
import random

from hypothesis import given, settings, strategies as st

from densecolor import (
    Multigraph,
    boundary_colors,
    can_add_edge,
    chromatic_index,
    density,
    find_k_edge_coloring,
    gen_fat_cycle,
    is_closed,
    is_elementary,
    is_k_dense,
    is_proper_edge_coloring,
    is_strongly_closed,
    maximal_k_dense_subgraphs,
    missing_colors,
    missing_union,
    parse,
    permute_colors,
    present_colors,
    serialize,
    total_chromatic_number,
)

from densecolor.oracles import _walk_odd_sets

from brute import brute_density, count_edges_inside


@st.composite
def multigraphs(draw, max_n=6, max_m=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n < 2:
        return Multigraph(n, ())
    m = draw(st.integers(min_value=0, max_value=max_m))
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    ).filter(lambda p: p[0] != p[1])
    edges = tuple(draw(st.lists(pairs, min_size=m, max_size=m)))
    return Multigraph(n, edges)


@st.composite
def colored_multigraphs(draw):
    graph = draw(multigraphs(max_n=5, max_m=7))
    cert = chromatic_index(graph)
    extra = draw(st.integers(min_value=0, max_value=2))
    k = max(cert.k + extra, 1)
    phi = find_k_edge_coloring(graph, k)
    assert phi is not None
    return graph, phi


@st.composite
def vertex_subsets(draw, graph):
    if graph.n == 0:
        return frozenset()
    return frozenset(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=graph.n - 1),
                max_size=graph.n,
            )
        )
    )


class TestGraphInvariants:
    @given(multigraphs())
    def test_degree_sum_is_twice_edge_count(self, graph):
        assert sum(graph.degrees) == 2 * graph.m

    @given(multigraphs())
    def test_round_trip(self, graph):
        assert parse(serialize(graph)) == graph

    @given(multigraphs())
    def test_multiplicity_at_most_max_degree(self, graph):
        if graph.m >= 1:
            assert graph.multiplicity() <= graph.max_degree()

    @given(st.data())
    def test_boundary_and_induced_partition_edges(self, data):
        graph = data.draw(multigraphs())
        inside = data.draw(vertex_subsets(graph))
        outside = frozenset(range(graph.n)) - inside
        sub_in, _, ids_in = graph.induced_subgraph(inside)
        sub_out, _, ids_out = graph.induced_subgraph(outside)
        boundary = graph.boundary_edges(inside)
        pieces = [set(ids_in), set(ids_out), set(boundary)]
        assert set().union(*pieces) == set(range(graph.m))
        assert sum(len(p) for p in pieces) == graph.m


class TestColoringInvariants:
    @given(colored_multigraphs())
    def test_present_plus_missing_is_palette(self, graph_phi):
        graph, phi = graph_phi
        for v in range(graph.n):
            present = present_colors(graph, phi, v)
            missing = missing_colors(graph, phi, v)
            assert len(present) == graph.degrees[v]
            assert len(present) + len(missing) == phi.k
            assert not present & missing

    @given(st.data())
    def test_strongly_closed_implies_closed(self, data):
        graph, phi = data.draw(colored_multigraphs())
        subset = data.draw(vertex_subsets(graph))
        if is_strongly_closed(graph, phi, subset):
            assert is_closed(graph, phi, subset)

    @given(colored_multigraphs())
    def test_tiny_sets_elementary_and_full_set_closed(self, graph_phi):
        graph, phi = graph_phi
        assert is_elementary(graph, phi, ())
        if graph.n:
            assert is_elementary(graph, phi, {0})
        everything = range(graph.n)
        assert is_closed(graph, phi, everything)
        assert is_strongly_closed(graph, phi, everything)

    @given(st.data())
    def test_predicates_invariant_under_palette_permutation(self, data):
        graph, phi = data.draw(colored_multigraphs())
        subset = data.draw(vertex_subsets(graph))
        perm = list(range(1, phi.k + 1))
        data.draw(st.randoms(use_true_random=False)).shuffle(perm)
        sigma = permute_colors(phi, tuple(perm))
        assert is_proper_edge_coloring(graph, sigma)
        assert is_elementary(graph, phi, subset) == is_elementary(graph, sigma, subset)
        assert is_closed(graph, phi, subset) == is_closed(graph, sigma, subset)
        assert is_strongly_closed(graph, phi, subset) == is_strongly_closed(
            graph, sigma, subset
        )

    @given(st.data())
    def test_union_functions_match_pointwise_definitions(self, data):
        graph, phi = data.draw(colored_multigraphs())
        subset = data.draw(vertex_subsets(graph))
        expected_missing = frozenset()
        for v in subset:
            expected_missing |= missing_colors(graph, phi, v)
        assert missing_union(graph, phi, subset) == expected_missing
        expected_boundary = frozenset(
            phi.colors[e] for e in graph.boundary_edges(subset)
        )
        assert boundary_colors(graph, phi, subset) == expected_boundary


class TestOracleInvariants:
    @settings(max_examples=40, deadline=None)
    @given(multigraphs(max_n=5, max_m=7))
    def test_bound_chain(self, graph):
        delta = graph.max_degree()
        mu = graph.multiplicity()
        rho = density(graph).value
        chi = chromatic_index(graph).k
        assert delta <= chi <= delta + mu or graph.m == 0
        assert rho <= chi
        if graph.n + graph.m <= 24:
            assert chi <= total_chromatic_number(graph).k

    @settings(max_examples=40, deadline=None)
    @given(multigraphs(max_n=6, max_m=8))
    def test_density_matches_brute_recount(self, graph):
        value, _ = brute_density(graph)
        ours = density(graph)
        assert ours.value == value
        if ours.witness is not None:
            size = len(ours.witness)
            recount = count_edges_inside(graph, ours.witness)
            assert value == 2 * recount / (size - 1) or 2 * recount == value * (size - 1)

    @settings(max_examples=30, deadline=None)
    @given(multigraphs(max_n=5, max_m=6), st.integers(min_value=0, max_value=4))
    def test_monotone_under_edge_addition(self, graph, salt):
        if graph.n < 2:
            return
        rng = random.Random(salt)
        u, v = rng.sample(range(graph.n), 2)
        bigger = graph.with_edge(u, v)
        assert density(bigger).value >= density(graph).value
        assert chromatic_index(bigger).k >= chromatic_index(graph).k
        if bigger.n + bigger.m <= 24:
            assert (
                total_chromatic_number(bigger).k
                >= total_chromatic_number(graph).k
            )

    @settings(max_examples=30, deadline=None)
    @given(multigraphs(max_n=5, max_m=7))
    def test_maximal_dense_sets_disjoint_at_chi(self, graph):
        cert = chromatic_index(graph)
        if cert.k < graph.max_degree() + 1 or cert.k == 0:
            return
        sets = maximal_k_dense_subgraphs(graph, cert.k)
        seen: set[int] = set()
        for s in sets:
            assert not (seen & set(s))
            seen.update(s)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=1))
    def test_dense_instances_are_elementary_and_strongly_closed(self, mult, which):
        # fat odd cycles are chi'-dense as a whole, so any optimal coloring
        # partitions the palette among the vertices
        n = 3 + 2 * which
        graph = gen_fat_cycle(n, mult)
        cert = chromatic_index(graph)
        rho = density(graph).value
        if not is_k_dense(graph, range(n), cert.k):
            return
        assert is_elementary(graph, cert.witness, range(n))
        assert is_strongly_closed(graph, cert.witness, range(n))
        assert math.ceil(rho) == cert.k


class TestFeasibilityChecker:
    @settings(max_examples=60, deadline=None)
    @given(multigraphs())
    def test_matches_brute_density(self, graph):
        # the embedding's checker, and the odd-set walk of the graph with
        # the new pair, plain and forced to it, against recounting every
        # odd set of that graph
        delta = graph.max_degree()
        for k in range(delta + 1, delta + 5):
            within = brute_density(graph)[0] <= k
            for u in range(graph.n):
                for v in range(u + 1, graph.n):
                    fits = brute_density(graph.with_edge(u, v))[0] <= k
                    caps = graph.degrees[u] < k - 1 and graph.degrees[v] < k - 1
                    assert can_add_edge(graph, u, v, k) == (caps and fits)
                    grown = graph.with_edge(u, v)
                    violated = _walk_odd_sets(grown, k, 1, 1, lambda subset, edges: None)
                    assert violated == (not fits)
                    if within:
                        violated = _walk_odd_sets(
                            grown, k, 1, 1, lambda subset, edges: None, forced=(u, v)
                        )
                        assert violated == (not fits)
