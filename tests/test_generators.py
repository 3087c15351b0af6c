import pytest

from densecolor import (
    Multigraph,
    fixture,
    fixture_names,
    gen_fat_cycle,
    gen_random_multigraph,
)


class TestFatCycle:
    def test_t2(self):
        g = gen_fat_cycle(3, 2)
        assert (g.n, g.m, g.max_degree()) == (3, 6, 4)

    def test_fat_c5(self):
        g = gen_fat_cycle(5, 4)
        assert (g.n, g.m, g.max_degree()) == (5, 20, 8)

    def test_plain_cycle(self):
        g = gen_fat_cycle(5, 1)
        assert (g.n, g.m) == (5, 5)
        assert g.multiplicity() == 1

    @pytest.mark.parametrize("n,mult", [(2, 1), (4, 2), (1, 1), (3, 0)])
    def test_bad_parameters(self, n, mult):
        with pytest.raises(ValueError):
            gen_fat_cycle(n, mult)


class TestRandomMultigraph:
    def test_zero_edges(self):
        g = gen_random_multigraph(4, 0, 1, seed=7)
        assert g == Multigraph(4, ())

    def test_forced_parallel_triple(self):
        g = gen_random_multigraph(2, 3, 3, seed=123)
        assert g == Multigraph(2, ((0, 1), (0, 1), (0, 1)))

    def test_deterministic_for_fixed_seed(self):
        a = gen_random_multigraph(5, 8, 2, seed=42)
        b = gen_random_multigraph(5, 8, 2, seed=42)
        assert a == b
        assert a.m == 8

    def test_seed_changes_output(self):
        samples = {gen_random_multigraph(5, 8, 2, seed=s) for s in range(10)}
        assert len(samples) > 1

    def test_multiplicity_cap_respected(self):
        g = gen_random_multigraph(4, 10, 2, seed=1)
        assert g.multiplicity() <= 2

    def test_infeasible(self):
        with pytest.raises(ValueError, match="infeasible"):
            gen_random_multigraph(3, 10, 3, seed=0)


class TestFixtures:
    def test_all_names_build(self):
        for name in fixture_names():
            g = fixture(name)
            assert isinstance(g, Multigraph)

    def test_expected_shapes(self):
        expectations = {
            "k2": (2, 1),
            "k3": (3, 3),
            "k4": (4, 6),
            "c5": (5, 5),
            "c6": (6, 6),
            "t2": (3, 6),
            "fat-c3-m3": (3, 9),
            "fat-c5-m3": (5, 15),
            "fat-c5-m4": (5, 20),
            "t2-k1": (4, 6),
            "t2-2k1": (5, 6),
            "t2-t2": (6, 12),
            "2k1-t2": (5, 6),
        }
        assert set(expectations) == set(fixture_names())
        for name, (n, m) in expectations.items():
            g = fixture(name)
            assert (g.n, g.m) == (n, m), name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown fixture"):
            fixture("petersen")
