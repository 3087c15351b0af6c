"""The benchmark's output checks must reject wrong answers.

Run with ``python3 -m pytest perfbench``.
"""

from fractions import Fraction

from check import (
    check_search_record,
    check_totalize,
    densest_odd_set,
    fat_cycle_index,
)

# fat triangle, every pair doubled: Delta = 4, rho = 6, so chi'' = chi' = 6
N = 3
EDGES = ((0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (2, 0))
EDGE_COLORS = (1, 2, 3, 4, 5, 6)
VERTEX_COLORS = (3, 5, 1)


def test_accepts_a_proper_total_coloring_at_the_bound():
    assert check_totalize(N, EDGES, 6, 6, EDGE_COLORS, VERTEX_COLORS) == []


def test_rejects_an_edge_recolored_to_clash():
    clash = (1, 1) + EDGE_COLORS[2:]
    assert check_totalize(N, EDGES, 6, 6, clash, VERTEX_COLORS)


def test_rejects_an_edge_recolored_to_its_end():
    clash = (3,) + EDGE_COLORS[1:]  # vertex 0 has color 3
    assert check_totalize(N, EDGES, 6, 6, clash, VERTEX_COLORS)


def test_rejects_a_wrong_k():
    # proper with 7 colors, but k must equal the lower bound 6
    assert check_totalize(N, EDGES, 6, 7, EDGE_COLORS, VERTEX_COLORS)
    # a palette smaller than the colors used
    assert check_totalize(N, EDGES, 6, 5, EDGE_COLORS, VERTEX_COLORS)


def test_rejects_a_coloring_missing_an_edge_id():
    assert check_totalize(N, EDGES, 6, 6, EDGE_COLORS[:-1], VERTEX_COLORS)


def test_rejects_a_coloring_missing_a_vertex():
    assert check_totalize(N, EDGES, 6, 6, EDGE_COLORS, VERTEX_COLORS[:-1])


def test_densest_odd_set_of_a_padded_fat_triangle():
    rho, subset = densest_odd_set(5, EDGES)
    assert (rho, subset) == (Fraction(6), (0, 1, 2))


def test_fat_cycle_closed_form():
    assert fat_cycle_index(3, 4) == 12
    assert fat_cycle_index(5, 3) == 8
    assert fat_cycle_index(7, 5) == 12


# fat triangle with every pair tripled: Delta = 6, chi' = rho = 9 >= Delta + 3
C3X3 = EDGES + ((0, 1), (1, 2), (2, 0))


def _record(**changes):
    rec = {"n": 3, "m": 9, "delta": 6, "chi_prime": 9, "chi_total": 9,
           "status": "holds", "method": "total-oracle", "detail": None}
    rec.update(changes)
    return rec


def test_search_record_checks():
    rho = Fraction(9)
    assert check_search_record(N, C3X3, _record(), rho, 9) == []
    assert check_search_record(N, C3X3, _record(status="skipped", chi_prime=None), rho) == []
    assert check_search_record(N, C3X3, _record(chi_total=10), rho)
    assert check_search_record(N, C3X3, _record(chi_prime=10, chi_total=10), rho)
    assert check_search_record(N, C3X3, _record(status="out-of-hypothesis", chi_total=None), rho)
    assert check_search_record(N, C3X3, _record(status="violation", detail="x"), rho)
    assert check_search_record(N, C3X3, _record(), rho, known_index=8)
    assert check_search_record(N, C3X3, _record(delta=5), rho)
