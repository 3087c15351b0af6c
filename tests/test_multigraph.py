import gc
import sys

import pytest

from densecolor import (
    GraphFormatError,
    Multigraph,
    complete,
    cycle,
    disjoint_union,
    gen_fat_cycle,
    parse,
    serialize,
)

T2 = gen_fat_cycle(3, 2)
C5 = cycle(5)


def t2_with_pendant() -> Multigraph:
    return Multigraph(4, T2.edges + ((0, 3),))


class TestConstruction:
    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            Multigraph(2, ((0, 0),))

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Multigraph(2, ((0, 2),))

    def test_negative_vertex_count(self):
        with pytest.raises(ValueError):
            Multigraph(-1, ())

    def test_parallel_edges_distinct_ids(self):
        g = Multigraph(2, ((0, 1), (0, 1)))
        assert g.m == 2
        assert g.edges[0] == g.edges[1]

    @pytest.mark.skipif(
        not hasattr(sys, "getallocatedblocks"), reason="CPython allocator count"
    )
    def test_building_graphs_keeps_memory_flat(self):
        # a tuple built from a generator is sized by guess and shrunk, and
        # CPython keeps every shrunk small tuple on its free list: built
        # that way, each graph with fewer than 20 edges leaves about one
        # block behind
        def build(count: int) -> None:
            for i in range(count):
                g = Multigraph(3, ((0, 1),) * (1 + i % 19))
                g.incidence, g.adjacency_counts

        # a full collection empties the free lists, so none may run here
        gc.disable()
        try:
            build(3000)
            before = sys.getallocatedblocks()
            build(2000)
            grown = sys.getallocatedblocks() - before
        finally:
            gc.enable()
        assert grown < 200


class TestDegree:
    def test_fat_triangle(self):
        assert T2.degree(0) == 4

    def test_cycle(self):
        assert all(C5.degree(v) == 2 for v in range(5))

    def test_isolated(self):
        assert Multigraph(1, ()).degree(0) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            T2.degree(3)


class TestMaxDegreeAndMultiplicity:
    def test_max_degree(self):
        assert T2.max_degree() == 4
        assert gen_fat_cycle(5, 4).max_degree() == 8
        assert Multigraph(3, ()).max_degree() == 0

    def test_multiplicity(self):
        assert T2.multiplicity() == 2
        assert C5.multiplicity() == 1
        assert Multigraph(3, ()).multiplicity() == 0
        # both orientations count toward one pair
        assert Multigraph(3, ((0, 1), (1, 0), (1, 2))).multiplicity() == 2


class TestInducedSubgraph:
    def test_drops_pendant(self):
        sub, vertex_ids, edge_ids = t2_with_pendant().induced_subgraph({0, 1, 2})
        assert sub == T2
        assert vertex_ids == (0, 1, 2)
        assert edge_ids == (0, 1, 2, 3, 4, 5)

    def test_full_vertex_set_is_identity(self):
        sub, vertex_ids, edge_ids = C5.induced_subgraph(range(5))
        assert sub == C5
        assert vertex_ids == (0, 1, 2, 3, 4)
        assert edge_ids == tuple(range(5))

    def test_path_inside_cycle(self):
        sub, _, edge_ids = C5.induced_subgraph({0, 1, 2})
        assert sub.m == 2
        assert sorted(sub.degrees) == [1, 1, 2]
        assert edge_ids == (0, 1)

    def test_invalid_vertex(self):
        with pytest.raises(ValueError):
            C5.induced_subgraph({0, 9})


class TestBoundary:
    def test_pendant_edge(self):
        assert t2_with_pendant().boundary_edges({0, 1, 2}) == {6}

    def test_whole_graph_empty(self):
        assert T2.boundary_edges(range(3)) == frozenset()

    def test_single_vertex_of_cycle(self):
        # edges 0 = (0,1) and 4 = (4,0) touch vertex 0
        assert C5.boundary_edges({0}) == {0, 4}


class TestEdgesBetween:
    def test_parallel_pair(self):
        assert T2.edges_between({0}, {1}) == {0, 1}

    def test_disjoint_triangles(self):
        tt = disjoint_union(complete(3), complete(3))
        assert tt.edges_between({0, 1, 2}, {3, 4, 5}) == frozenset()

    def test_cycle_cut(self):
        assert C5.edges_between({0, 1}, {2, 4}) == {1, 4}

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            C5.edges_between({0, 1}, {1, 2})


class TestEditing:
    def test_without_edge(self):
        g = T2.without_edge(0)
        assert g.m == 5
        assert g.edges == T2.edges[1:]

    def test_with_extra_vertex(self):
        g = T2.with_extra_vertex()
        assert g.n == 4
        assert g.edges == T2.edges
        assert g.degree(3) == 0

    def test_values_are_immutable(self):
        with pytest.raises(AttributeError):
            T2.n = 5  # type: ignore[misc]


class TestTextFormat:
    def test_parse_k2(self):
        g = parse("p multigraph 2 1\ne 1 2\n")
        assert g == Multigraph(2, ((0, 1),))

    def test_round_trip_t2(self):
        text = serialize(T2)
        assert text.count("\ne ") == 6
        assert parse(text) == T2

    def test_serialize_is_canonical(self):
        text = serialize(C5)
        assert serialize(parse(text)) == text

    def test_comments_ignored(self):
        g = parse("c a comment\np multigraph 2 1\nc another\ne 1 2\n")
        assert g.m == 1

    def test_loop_edge_rejected(self):
        with pytest.raises(GraphFormatError, match="line 2.*loop"):
            parse("p multigraph 2 1\ne 1 1\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            parse("p multigraph 2 1\ne 1 3\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError, match="declared 2"):
            parse("p multigraph 2 2\ne 1 2\n")

    def test_missing_header(self):
        with pytest.raises(GraphFormatError, match="problem line"):
            parse("e 1 2\n")

    def test_unknown_line_kind(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse("p multigraph 2 1\nx 1 2\n")

    def test_garbage_counts(self):
        with pytest.raises(GraphFormatError, match="non-integer"):
            parse("p multigraph two 1\ne 1 2\n")
