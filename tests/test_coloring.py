import random

import pytest

from densecolor import (
    EdgeColoring,
    Multigraph,
    TotalColoring,
    boundary_colors,
    chromatic_index,
    coloring_from_doc,
    coloring_to_doc,
    complete,
    cycle,
    gen_fat_cycle,
    gen_random_multigraph,
    is_closed,
    is_elementary,
    is_proper_edge_coloring,
    is_proper_total_coloring,
    is_strongly_closed,
    missing_colors,
    missing_union,
    permute_colors,
    present_colors,
    total_chromatic_number,
)

from brute import brute_is_proper

T2 = gen_fat_cycle(3, 2)
C5 = cycle(5)
K2 = complete(2)

# a fixed proper 6-coloring of the fat triangle: its six edges are pairwise
# incident, so the colors are forced to be distinct
T2_COLORING = EdgeColoring(6, (1, 2, 3, 4, 5, 6))


def t2_with_pendant():
    return Multigraph(4, T2.edges + ((0, 3),))


class TestValues:
    def test_color_out_of_palette(self):
        with pytest.raises(ValueError):
            EdgeColoring(2, (3,))

    def test_zero_palette_empty_assignment(self):
        assert EdgeColoring(0, ()).colors == ()

    def test_total_coloring_validates_both_parts(self):
        with pytest.raises(ValueError):
            TotalColoring(2, (1,), (0,))

    @pytest.mark.parametrize(
        ("make", "message"),
        [
            (lambda: EdgeColoring(3, (1, 4, 0, 5)), "edge 1: color 4 outside 1..3"),
            (lambda: EdgeColoring(3, (2, 0, 4)), "edge 1: color 0 outside 1..3"),
            (lambda: TotalColoring(2, (1, 2), (2, 3, 0)), "vertex 1: color 3 outside 1..2"),
            (lambda: TotalColoring(2, (3,), (0,)), "edge 0: color 3 outside 1..2"),
        ],
        ids=["edge-above", "edge-below", "vertex", "edge-before-vertex"],
    )
    def test_range_error_names_the_first_bad_color(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()


class TestPresentMissing:
    def test_k2_single_edge(self):
        phi = EdgeColoring(1, (1,))
        assert present_colors(K2, phi, 0) == {1}
        assert missing_colors(K2, phi, 0) == frozenset()

    def test_t2_proper_coloring(self):
        assert present_colors(T2, T2_COLORING, 0) == {1, 2, 5, 6}
        assert len(missing_colors(T2, T2_COLORING, 0)) == 2

    def test_isolated_vertex(self):
        g = Multigraph(1, ())
        phi = EdgeColoring(3, ())
        assert present_colors(g, phi, 0) == frozenset()
        assert missing_colors(g, phi, 0) == {1, 2, 3}

    def test_coverage_checked(self):
        with pytest.raises(ValueError, match="assigns"):
            present_colors(T2, EdgeColoring(6, (1, 2)), 0)


class TestUnions:
    def test_empty_set(self):
        assert missing_union(T2, T2_COLORING, ()) == frozenset()
        assert boundary_colors(T2, T2_COLORING, ()) == frozenset()

    def test_pendant_boundary_color(self):
        g = t2_with_pendant()
        phi = EdgeColoring(6, (1, 2, 3, 4, 6, 5, 5))  # pendant edge carries 5
        assert boundary_colors(g, phi, {0, 1, 2}) == {5}

    def test_no_boundary_for_full_set(self):
        phi = EdgeColoring(3, (1, 2, 1, 2, 3))
        assert boundary_colors(C5, phi, range(5)) == frozenset()


class TestProperEdge:
    def test_c5_hand_coloring(self):
        assert is_proper_edge_coloring(C5, EdgeColoring(3, (1, 2, 1, 2, 3)))

    def test_parallel_edges_conflict(self):
        phi = EdgeColoring(6, (1, 1, 2, 3, 4, 5))
        assert not is_proper_edge_coloring(T2, phi)

    def test_edgeless_vacuous(self):
        assert is_proper_edge_coloring(Multigraph(3, ()), EdgeColoring(4, ()))


class TestProperTotal:
    def test_k3_opposite_pattern(self):
        # vertices 1,2,3; each edge gets the color of its opposite vertex
        k3 = complete(3)
        psi = TotalColoring(3, (3, 2, 1), (1, 2, 3))
        assert is_proper_total_coloring(k3, psi)

    def test_adjacent_vertices_clash(self):
        psi = TotalColoring(3, (2,), (1, 1))
        assert not is_proper_total_coloring(K2, psi)

    def test_vertex_edge_clash(self):
        psi = TotalColoring(3, (2,), (2, 1))
        assert not is_proper_total_coloring(K2, psi)


    def test_vertex_cover_mismatch_raises(self):
        with pytest.raises(ValueError, match="assigns 2 vertices"):
            is_proper_total_coloring(complete(3), TotalColoring(3, (3, 2, 1), (1, 2)))


def test_checkers_match_brute():
    # the edge and total checks share one clash check; both agree with the
    # pairwise definitions on random colorings of small multigraphs
    rng = random.Random(23)
    proper_edge = proper_total = 0
    for _ in range(400):
        n = rng.randint(2, 5)
        g = gen_random_multigraph(n, rng.randint(0, min(6, n * (n - 1))), 2, rng.getrandbits(32))
        k = rng.randint(1, 7)
        edge = tuple(rng.randint(1, k) for _ in range(g.m))
        vertex = tuple(rng.randint(1, k) for _ in range(g.n))
        ok_edge = is_proper_edge_coloring(g, EdgeColoring(k, edge))
        ok_total = is_proper_total_coloring(g, TotalColoring(k, edge, vertex))
        assert ok_edge == brute_is_proper(g, edge)
        assert ok_total == brute_is_proper(g, edge, vertex)
        proper_edge += ok_edge
        proper_total += ok_total
    assert proper_edge >= 50 and proper_total >= 20


def test_checkers_match_brute_next_to_proper_colorings():
    # proper edge and total colorings of seeded multigraphs, each element
    # then recolored to every palette color: single clashes, such as an
    # edge taking an end's own color, that random colorings rarely show
    rng = random.Random(29)
    improper = 0
    for _ in range(30):
        n = rng.randint(2, 5)
        g = gen_random_multigraph(n, rng.randint(1, min(6, n * (n - 1))), 2, rng.getrandbits(32))
        phi = chromatic_index(g).witness
        psi = total_chromatic_number(g).witness
        for edge, vertex, k in (
            (list(phi.colors), None, phi.k),
            (list(psi.edge_colors), list(psi.vertex_colors), psi.k),
        ):
            for colors in (edge, vertex or []):
                for i, kept in enumerate(colors):
                    for c in range(1, k + 1):
                        colors[i] = c
                        if vertex is None:
                            ok = is_proper_edge_coloring(g, EdgeColoring(k, tuple(edge)))
                        else:
                            psi_c = TotalColoring(k, tuple(edge), tuple(vertex))
                            ok = is_proper_total_coloring(g, psi_c)
                        assert ok == brute_is_proper(g, edge, vertex)
                        improper += not ok
                    colors[i] = kept
    assert improper >= 500


class TestElementary:
    def test_dense_t2_is_elementary(self):
        # forced by 6-density: each color class inside is a near-perfect
        # matching, so missing sets partition the palette
        phi = chromatic_index(T2).witness
        assert is_elementary(T2, phi, range(3))

    def test_c5_with_three_colors_is_not(self):
        phi = EdgeColoring(3, (1, 2, 1, 2, 3))
        assert not is_elementary(C5, phi, range(5))

    def test_k2_full_palette(self):
        assert is_elementary(K2, EdgeColoring(1, (1,)), range(2))

    def test_small_sets_trivially_elementary(self):
        phi = EdgeColoring(3, (1, 2, 1, 2, 3))
        assert is_elementary(C5, phi, ())
        assert is_elementary(C5, phi, {3})

    def test_improper_input_rejected(self):
        bad = EdgeColoring(6, (1, 1, 2, 3, 4, 5))
        with pytest.raises(ValueError, match="not proper"):
            is_elementary(T2, bad, range(3))


class TestClosed:
    def test_improper_input_rejected(self):
        bad = EdgeColoring(6, (1, 1, 2, 3, 4, 5))
        for predicate in (is_closed, is_strongly_closed):
            with pytest.raises(ValueError, match="not proper"):
                predicate(T2, bad, range(3))

    def test_full_vertex_set_always_closed(self):
        phi = EdgeColoring(3, (1, 2, 1, 2, 3))
        assert is_closed(C5, phi, range(5))
        assert is_strongly_closed(C5, phi, range(5))

    def test_constructed_violation(self):
        # inside T2, W = {0, 1}: colors 3..6 sit on the boundary while 3, 4
        # are missing at vertex 0
        assert not is_closed(T2, T2_COLORING, {0, 1})

    def test_dense_subgraph_strongly_closed(self):
        g = t2_with_pendant()
        cert = chromatic_index(g)
        assert cert.k == 6
        assert is_strongly_closed(g, cert.witness, {0, 1, 2})

    def test_strongly_closed_needs_injective_boundary(self):
        # path 0-1-2-3 colored 1,2,1 with k=2: both boundary edges of
        # {1, 2} carry color 1, and no color is missing inside
        path = Multigraph(4, ((0, 1), (1, 2), (2, 3)))
        phi = EdgeColoring(2, (1, 2, 1))
        assert is_proper_edge_coloring(path, phi)
        assert is_closed(path, phi, {1, 2})
        assert not is_strongly_closed(path, phi, {1, 2})


class TestPermutation:
    def test_predicates_are_permutation_equivariant(self):
        g = t2_with_pendant()
        phi = chromatic_index(g).witness
        perm = (3, 1, 6, 2, 5, 4)
        sigma = permute_colors(phi, perm)
        for w in ({0, 1, 2}, {0, 1}, {1, 3}, set(range(4))):
            assert is_elementary(g, phi, w) == is_elementary(g, sigma, w)
            assert is_closed(g, phi, w) == is_closed(g, sigma, w)
            assert is_strongly_closed(g, phi, w) == is_strongly_closed(g, sigma, w)

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            permute_colors(T2_COLORING, (1, 1, 2, 3, 4, 5))


class TestSerialization:
    def test_edge_round_trip(self):
        doc = coloring_to_doc(T2_COLORING)
        assert "vertices" not in doc
        assert coloring_from_doc(doc) == T2_COLORING

    def test_total_round_trip(self):
        psi = TotalColoring(3, (3, 2, 1), (1, 2, 3))
        doc = coloring_to_doc(psi)
        assert [v["color"] for v in doc["vertices"]] == [1, 2, 3]
        assert coloring_from_doc(doc) == psi

    def test_gap_in_ids_rejected(self):
        doc = {"k": 2, "edges": [{"id": 0, "color": 1}, {"id": 2, "color": 2}]}
        with pytest.raises(ValueError, match="cover"):
            coloring_from_doc(doc)

    def test_duplicate_id_rejected(self):
        doc = {"k": 2, "edges": [{"id": 0, "color": 1}, {"id": 0, "color": 2}]}
        with pytest.raises(ValueError, match="duplicate"):
            coloring_from_doc(doc)
