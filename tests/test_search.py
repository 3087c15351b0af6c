import dataclasses
import importlib
import os
import subprocess
import sys

import pytest

import densecolor
from densecolor import (
    GuaranteeViolationError,
    Multigraph,
    RunConfig,
    cycle,
    gen_fat_cycle,
    search_goldberg,
    serialize,
)
import densecolor.search as search_mod

# the package's ``totalize`` function shadows the module of that name
totalize_mod = importlib.import_module("densecolor.totalize")

# the octahedron K(2,2,2) on vertices 3..8, its parts {3, 4}, {5, 6}, {7, 8}
OCTAHEDRON = tuple(
    (u, v) for u in range(3, 9) for v in range(u + 1, 9) if (u - 3) // 2 != (v - 3) // 2
)


class TestFatCycleCorpus:
    def test_zero_violations(self):
        instances = [
            (f"fat-c{n}-m{m}", gen_fat_cycle(n, m))
            for n in (3, 5, 7)
            for m in (2, 3, 4)
        ]
        outcome = search_goldberg(instances)
        assert outcome.violations == ()
        assert outcome.counts["violation"] == 0
        by_name = {rec.name: rec for rec in outcome.records}
        # only the dense fat triangles clear chi' >= Delta + 3 here
        assert by_name["fat-c3-m3"].status == "holds"
        assert by_name["fat-c3-m4"].status == "holds"
        assert by_name["fat-c5-m4"].status == "out-of-hypothesis"

    def test_fat_cycles_past_the_chi_index_cap(self):
        # m = 42..72 > CHI_INDEX_MAX_EDGES; L = ceil(rho) meets
        # max(Delta + 2, n + 1), so the host route settles chi' and only
        # C7 with mu = 7, 8 (L = Delta + 3) are inside the search hypothesis
        instances = [(f"c{n}-m{m}", gen_fat_cycle(n, m)) for n, m in (
            (7, 6), (7, 7), (7, 8), (9, 5), (9, 6), (9, 7), (9, 8),
        )]
        outcome = search_goldberg(instances)
        for rec in outcome.records:
            n, mult = (int(part[1:]) for part in rec.name.split("-"))
            r = (n - 1) // 2
            assert rec.chi_prime == -(-n * mult // r)
            if rec.name in ("c7-m7", "c7-m8"):
                assert (rec.status, rec.method) == ("holds", "totalize")
                assert rec.chi_total == rec.chi_prime
            else:
                assert rec.status == "out-of-hypothesis"

    def test_records_sorted_by_name(self):
        instances = [("b", cycle(5)), ("a", cycle(6))]
        outcome = search_goldberg(instances)
        assert [rec.name for rec in outcome.records] == ["a", "b"]


class TestStatuses:
    def test_c5_is_out_of_hypothesis(self):
        outcome = search_goldberg([("c5", cycle(5))])
        rec = outcome.records[0]
        assert rec.status == "out-of-hypothesis"
        assert rec.chi_prime == 3 and rec.chi_total is None

    def test_empty_corpus(self):
        outcome = search_goldberg([])
        assert outcome.records == () and outcome.violations == ()
        assert outcome.counts["holds"] == 0

    def test_large_instance_settled_by_pipeline(self):
        # 35 total elements, past the exhaustive oracle, but inside the
        # embedding pipeline's own precondition
        g = gen_fat_cycle(5, 6)
        outcome = search_goldberg([("fat-c5-m6", g)])
        rec = outcome.records[0]
        assert rec.status == "holds"
        assert rec.method == "totalize"
        assert rec.chi_total == rec.chi_prime == 15

    def test_large_instance_outside_pipeline_is_skipped(self):
        # fat triangle (mult 3) beside the octahedron K(2,2,2) on vertices
        # 3..8: every degree is above chi' - Delta = 3, so nothing peels;
        # chi' = 9 clears Delta + 3 = 9 but not n + 1 = 10, and
        # n + m = 30 is past the oracle cap, so the instance is skipped
        # with a reason
        g = Multigraph(9, gen_fat_cycle(3, 3).edges + OCTAHEDRON)
        outcome = search_goldberg([("t3-octahedron", g)])
        rec = outcome.records[0]
        assert (rec.n, rec.m, rec.chi_prime) == (9, 21, 9)
        assert rec.status == "skipped"
        assert rec.method == "totalize"
        assert rec.detail.startswith(
            "too large for the total oracle and hypothesis not met"
        )

    def test_padded_instance_holds_by_its_core(self):
        # fat triangle (mult 5) plus 12 isolated vertices: chi' = 15 is
        # below n + 1 = 16, but the isolated vertices peel, and the
        # triangle's host settles chi'' = chi' (it was skipped before)
        g = Multigraph(15, gen_fat_cycle(3, 5).edges)
        outcome = search_goldberg([("t5-12k1", g)])
        rec = outcome.records[0]
        assert (rec.status, rec.method) == ("holds", "totalize")
        assert rec.chi_total == rec.chi_prime == 15


    @pytest.mark.parametrize(
        "config", [RunConfig(density_max_n=8), RunConfig(density_max_n=8, node_budget=34)]
    )
    def test_hostless_instance_holds_by_the_total_oracle(self, config):
        # fat triangle (mult 3) plus 6 isolated vertices: the density cap
        # of 8 leaves it no host, and n + m = 18 is inside the total
        # oracle's cap, which settles chi'' = chi' = 9 within 34 nodes
        g = Multigraph(9, gen_fat_cycle(3, 3).edges)
        rec = search_goldberg([("t3", g)], config).records[0]
        assert (rec.status, rec.method, rec.chi_prime, rec.chi_total) == (
            "holds", "total-oracle", 9, 9,
        )
        assert rec.detail is None

    @pytest.mark.parametrize("budget", [31, 32, 33])
    def test_total_oracle_out_of_budget_is_skipped(self, budget):
        # the same instance: chi' = 9 settles within 31 nodes, but the
        # total oracle needs 34
        config = RunConfig(density_max_n=8, node_budget=budget)
        g = Multigraph(9, gen_fat_cycle(3, 3).edges)
        rec = search_goldberg([("t3", g)], config).records[0]
        assert (rec.status, rec.method, rec.chi_prime, rec.chi_total) == (
            "skipped", "total-oracle", 9, None,
        )
        assert rec.detail == f"search budget of {budget} nodes exhausted"


class TestViolationPlumbing:
    def test_doctored_oracle_produces_certificate(self, monkeypatch):
        # no real violation is known, so fake one: report the true witness
        # under an inflated k and check the counterexample wiring
        real = search_mod.total_chromatic_number

        def doctored(graph, config):
            cert = real(graph, config)
            return dataclasses.replace(cert, k=cert.k + 1)

        monkeypatch.setattr(search_mod, "total_chromatic_number", doctored)
        # the density cap of 8 keeps this 9-vertex graph off the host
        # route, so the oracle settles chi'' (n + m = 18)
        g = Multigraph(9, gen_fat_cycle(3, 3).edges)
        outcome = search_goldberg([("t3", g)], RunConfig(density_max_n=8))
        rec = outcome.records[0]
        assert rec.status == "violation"
        assert rec.method == "total-oracle"
        assert len(outcome.violations) == 1
        cert = outcome.violations[0]
        assert cert.name == "t3"
        assert cert.graph_text.startswith("p multigraph 9 9")
        assert cert.chi_prime_doc["k"] == 9
        assert cert.chi_total_doc["k"] == 10


class TestGuaranteeViolations:
    # a guarantee violation carries the certificate the harness exists to
    # find, so it propagates instead of being recorded as skipped; fat C5
    # with mu = 6 (n + m = 35) is past the oracle and settled by its host
    graph = gen_fat_cycle(5, 6)

    def test_hostless_in_hypothesis_graph_raises(self, monkeypatch):
        real = search_mod.chromatic_index

        def hostless(graph, config):
            return dataclasses.replace(real(graph, config), host=None)

        monkeypatch.setattr(search_mod, "chromatic_index", hostless)
        # fat C3 with mu = 3 (n + m = 12) fits the total oracle, which
        # must not record it as holding in place of the missing host
        for name, graph in (
            ("fat-c5-m6", self.graph),
            ("fat-c3-m3", gen_fat_cycle(3, 3)),
        ):
            with pytest.raises(GuaranteeViolationError) as info:
                search_goldberg([(name, graph)])
            assert info.value.certificate == serialize(graph)

    def test_failed_extension_raises(self, monkeypatch):
        def refuse(graph, phi, k):
            raise GuaranteeViolationError("doctored", certificate="host")

        monkeypatch.setattr(totalize_mod, "extend_to_total", refuse)
        with pytest.raises(GuaranteeViolationError) as info:
            search_goldberg([("fat-c5-m6", self.graph)])
        assert info.value.certificate == "host"


class TestJobs:
    def test_pool_has_at_most_one_worker_per_instance(self, monkeypatch):
        # a recording stand-in for the pool starts no process
        import concurrent.futures

        sizes = []

        class Recording:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        instances = [(f"c{n}", cycle(n)) for n in (3, 4, 5)]
        alone = search_goldberg(instances)
        assert search_goldberg(instances, jobs=5000) == alone
        assert search_goldberg(instances, jobs=2) == alone
        assert search_goldberg(instances[:1], jobs=5000) == search_goldberg(instances[:1])
        assert search_goldberg([], jobs=5000).records == ()
        assert sizes == [3, 2]


class TestImport:
    def test_package_import_leaves_multiprocessing_unloaded(self):
        # the process pool of ``jobs > 1`` is imported only when used
        src = os.path.dirname(os.path.dirname(densecolor.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, densecolor; print('multiprocessing' in sys.modules)",
            ],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"
