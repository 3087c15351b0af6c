import dataclasses
import importlib
import io
import json
import subprocess
import sys

import pytest

from densecolor import (
    Multigraph,
    chromatic_index,
    coloring_from_doc,
    coloring_to_doc,
    embed_k_dense,
    fixture,
    gen_fat_cycle,
    is_proper_edge_coloring,
    is_proper_total_coloring,
    serialize,
    totalize,
)
from densecolor.cli import main

import densecolor.cli as cli_mod
import densecolor.oracles as oracles_mod

# the package's ``totalize`` function shadows the module of that name
totalize_mod = importlib.import_module("densecolor.totalize")


def run_cli(*args: str, stdin: str = "") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "densecolor", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


T2_TEXT = serialize(fixture("t2"))
C5_TEXT = serialize(fixture("c5"))


class TestDensity:
    def test_text(self):
        result = run_cli("density", stdin=T2_TEXT)
        assert result.returncode == 0
        assert "rho = 6" in result.stdout
        assert "witness: 0 1 2" in result.stdout

    def test_json(self):
        result = run_cli("density", "--format", "json", stdin=C5_TEXT)
        doc = json.loads(result.stdout)
        assert doc == {"value": "5/2", "witness": [0, 1, 2, 3, 4]}


class TestChiCommands:
    def test_chi_index(self):
        result = run_cli("chi-index", "--format", "json", stdin=T2_TEXT)
        doc = json.loads(result.stdout)
        assert doc["k"] == 6
        assert doc["quantity"] == "chromatic-index"
        assert len(doc["coloring"]["edges"]) == 6

    def test_chi_total(self):
        result = run_cli("chi-total", "--format", "json", stdin=C5_TEXT)
        doc = json.loads(result.stdout)
        assert doc["k"] == 4
        assert "vertices" in doc["coloring"]

    def test_chi_index_text(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(T2_TEXT))
        assert main(["chi-index"]) == 0
        assert capsys.readouterr().out.splitlines()[:3] == [
            "chi' = 6",
            "lower bound reason: density",
            "search nodes: 13",
        ]

    def test_chi_total_text(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(C5_TEXT))
        assert main(["chi-total"]) == 0
        assert capsys.readouterr().out.splitlines()[:3] == [
            "chi'' = 4",
            "lower bound reason: exhaustion",
            "search nodes: 28",
        ]

    def test_clashing_total_coloring_exits_5(self, capsys, monkeypatch):
        # the total oracle checks its witness; a clash is a guarantee
        # violation that prints the graph
        real = oracles_mod._conflict_color_search

        def clashing(neighbors, *args):
            colors, spent = real(neighbors, *args)
            return (None if colors is None else [1] * len(colors)), spent

        monkeypatch.setattr(oracles_mod, "_conflict_color_search", clashing)
        monkeypatch.setattr(sys, "stdin", io.StringIO(C5_TEXT))
        assert main(["chi-total"]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: solver produced an improper coloring")
        assert C5_TEXT in err

    def test_too_large_exit_code(self):
        big = serialize(fixture("fat-c5-m4"))
        result = run_cli("chi-total", stdin=big)
        assert result.returncode == 3
        assert "capped" in result.stderr


class TestEmbedCommand:
    def test_embed_emits_graph_and_report(self, tmp_path):
        path = tmp_path / "g.mg"
        path.write_text(serialize(fixture("t2-2k1")))
        result = run_cli("embed", str(path))
        assert result.returncode == 0
        assert result.stdout.startswith("p multigraph 5 12")
        assert "final n = 5, final m = 12" in result.stdout

    def test_embed_json(self):
        result = run_cli(
            "embed", "--format", "json", stdin=serialize(fixture("t2-k1"))
        )
        doc = json.loads(result.stdout)
        assert doc["report"]["parity_vertex_added"] is True
        assert doc["report"]["final_m"] == 12
        assert len(doc["graph"]["edges"]) == 12

    def test_embed_json_reports_exchange_move(self):
        result = run_cli(
            "embed", "--format", "json", stdin=serialize(fixture("2k1-t2"))
        )
        assert result.returncode == 0
        report = json.loads(result.stdout)["report"]
        assert report["exchange_moves"] == [
            {"removed": [0, 1], "added": [[0, 2], [1, 3]]}
        ]
        assert report["final_m"] == 12

    @pytest.mark.parametrize(
        ("graph", "embeds"),
        [
            (gen_fat_cycle(3, 4), 0),
            (gen_fat_cycle(5, 5), 0),
            (fixture("t2-k1"), 1),
            (fixture("2k1-t2"), 1),
        ],
        ids=["fat-c3-m4", "fat-c5-m5", "t2-k1", "2k1-t2"],
    )
    def test_embed_prints_the_certificate_host_when_nothing_peels(
        self, graph, embeds, tmp_path, capsys, monkeypatch
    ):
        # with nothing peeled chi-index's host is G's own and is printed as
        # it is; a G that peels is embedded whole, padding and all.  Either
        # way the document is that of a fresh embed_k_dense(G, chi'(G))
        path = tmp_path / "g.mg"
        path.write_text(serialize(graph))
        expected_graph, expected_report = embed_k_dense(graph, chromatic_index(graph).k)
        calls = []
        embed = cli_mod.embed_k_dense

        def counted(*args, **kwargs):
            calls.append(args[0])
            return embed(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "embed_k_dense", counted)
        assert main(["embed", "--format", "json", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        edges = [list(e) for e in expected_graph.edges]
        assert doc == {
            "graph": {"n": expected_graph.n, "edges": edges},
            "report": expected_report.to_doc(),
        }
        assert calls == [graph] * embeds

    @pytest.mark.parametrize(
        ("args", "graph", "code", "message"),
        [
            (["embed"], fixture("c5"), 2, "hypothesis not met: chi' = 3 <"),
            # n = 21 is past the density cap, so chi' comes from the k-loop
            (
                ["embed"],
                Multigraph(21, gen_fat_cycle(3, 5).edges),
                2,
                "hypothesis not met: chi' = 15 <",
            ),
            (["embed", "--max-n", "4"], fixture("t2-2k1"), 3, "capped at n = 4"),
            (["totalize", "--max-n", "4"], fixture("t2-2k1"), 3, "capped at n = 4"),
        ],
        ids=["c5", "fat-c3-m5-n21", "embed-t2-2k1-max-n-4", "totalize-t2-2k1-max-n-4"],
    )
    def test_no_host_exit_codes(self, args, graph, code, message, tmp_path, capsys):
        path = tmp_path / "g.mg"
        path.write_text(serialize(graph))
        assert main(args + [str(path)]) == code
        assert message in capsys.readouterr().err


class TestTotalizeCommand:
    def test_success(self):
        result = run_cli("totalize", "--format", "json", stdin=T2_TEXT)
        doc = json.loads(result.stdout)
        assert doc["k"] == 6
        coloring = coloring_from_doc(doc["coloring"])
        assert is_proper_total_coloring(fixture("t2"), coloring)
        assert "g_prime" not in doc

    def test_witness_flag(self):
        result = run_cli(
            "totalize", "--witness", "--format", "json", stdin=T2_TEXT
        )
        doc = json.loads(result.stdout)
        assert doc["g_prime"].startswith("p multigraph 3 6")
        assert doc["g_prime_coloring"]["k"] == 6

    def test_hypothesis_not_met_exit_code(self):
        result = run_cli("totalize", stdin=C5_TEXT)
        assert result.returncode == 2
        assert "hypothesis not met" in result.stderr

    def test_in_hypothesis_graph_without_host_is_a_violation(
        self, tmp_path, capsys, monkeypatch
    ):
        # chromatic_index builds every host; an in-hypothesis certificate
        # without one is refused with G on stderr, never re-embedded
        real = totalize_mod.chromatic_index

        def hostless(graph, config):
            return dataclasses.replace(real(graph, config), host=None)

        monkeypatch.setattr(totalize_mod, "chromatic_index", hostless)
        graph = fixture("t2-2k1")
        path = tmp_path / "g.mg"
        path.write_text(serialize(graph))
        assert main(["totalize", str(path)]) == 5
        assert serialize(graph) in capsys.readouterr().err


class TestVerifyCommand:
    def test_valid_total_coloring(self, tmp_path):
        g = fixture("t2")
        cert = totalize(g)
        graph_path = tmp_path / "g.mg"
        graph_path.write_text(serialize(g))
        coloring_path = tmp_path / "c.json"
        coloring_path.write_text(json.dumps(coloring_to_doc(cert.coloring)))
        result = run_cli("verify", str(graph_path), str(coloring_path))
        assert result.returncode == 0
        assert "valid: True" in result.stdout

    def test_invalid_coloring_exit_code(self, tmp_path):
        graph_path = tmp_path / "g.mg"
        graph_path.write_text("p multigraph 2 1\ne 1 2\n")
        coloring_path = tmp_path / "c.json"
        coloring_path.write_text(
            json.dumps({"k": 2, "edges": [{"id": 0, "color": 1}],
                        "vertices": [{"v": 0, "color": 1}, {"v": 1, "color": 2}]})
        )
        result = run_cli("verify", str(graph_path), str(coloring_path))
        assert result.returncode == 1
        assert "valid: False" in result.stdout

    def test_malformed_graph_exit_code(self, tmp_path):
        graph_path = tmp_path / "g.mg"
        graph_path.write_text("p multigraph 2 1\ne 1 1\n")
        coloring_path = tmp_path / "c.json"
        coloring_path.write_text(json.dumps({"k": 1, "edges": []}))
        result = run_cli("verify", str(graph_path), str(coloring_path))
        assert result.returncode == 4

    def test_malformed_coloring_exit_code(self, tmp_path):
        # vertices that are not a list are an input error, not a traceback
        graph_path = tmp_path / "g.mg"
        graph_path.write_text("p multigraph 2 1\ne 1 2\n")
        coloring_path = tmp_path / "c.json"
        coloring_path.write_text(
            json.dumps({"k": 3, "edges": [{"id": 0, "color": 1}], "vertices": None})
        )
        result = run_cli("verify", str(graph_path), str(coloring_path))
        assert result.returncode == 4
        assert "Traceback" not in result.stderr
        assert "malformed coloring document" in result.stderr


class TestGenCommand:
    def test_fixture(self):
        result = run_cli("gen", "--fixture", "t2")
        assert result.stdout == T2_TEXT

    def test_fat_cycle(self):
        result = run_cli("gen", "--fat-cycle", "5", "4")
        assert result.stdout == serialize(fixture("fat-c5-m4"))

    def test_random_respects_seed(self):
        a = run_cli("gen", "--random", "5", "8", "2", "--seed", "42")
        b = run_cli("gen", "--random", "5", "8", "2", "--seed", "42")
        assert a.stdout == b.stdout

    def test_list_fixtures(self):
        result = run_cli("gen", "--list-fixtures")
        assert "t2-2k1" in result.stdout.split()

    def test_requires_exactly_one_source(self):
        result = run_cli("gen")
        assert result.returncode == 4

    def test_gen_output_parses_back(self):
        result = run_cli("gen", "--fixture", "t2-t2")
        reparse = run_cli("density", stdin=result.stdout)
        assert reparse.returncode == 0


class TestSearchCommand:
    def test_fixture_corpus(self):
        result = run_cli("search", "--format", "json")
        doc = json.loads(result.stdout)
        assert doc["counts"]["violation"] == 0
        assert doc["violations"] == []
        names = [rec["name"] for rec in doc["instances"]]
        assert names == sorted(names)

    def test_corpus_file_with_multiple_graphs(self, tmp_path):
        path = tmp_path / "corpus.mg"
        path.write_text(T2_TEXT + C5_TEXT)
        result = run_cli("search", "--corpus", str(path), "--format", "json")
        doc = json.loads(result.stdout)
        assert len(doc["instances"]) == 2

    def test_corpus_rejects_content_that_parse_rejects(self, tmp_path):
        # "cxyz" is no comment to ``parse``, so it may not open a corpus file
        path = tmp_path / "corpus.mg"
        path.write_text("cxyz junk\n" + T2_TEXT)
        assert run_cli("density", stdin="cxyz junk\n" + T2_TEXT).returncode == 4
        result = run_cli("search", "--corpus", str(path), "--format", "json")
        assert result.returncode == 4
        assert "content before the first problem line" in result.stderr

    def test_corpus_splits_where_parse_reads_a_problem_line(self, tmp_path):
        # ``parse`` splits a line at any whitespace, a tab included
        text = "c two graphs\np\tmultigraph 3 1\ne 1 2\n" + C5_TEXT
        path = tmp_path / "corpus.mg"
        path.write_text(text)
        result = run_cli("search", "--corpus", str(path), "--format", "json")
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        assert [(rec["n"], rec["m"]) for rec in doc["instances"]] == [(3, 1), (5, 5)]

    def test_corpus_directory(self, tmp_path):
        (tmp_path / "a.mg").write_text(T2_TEXT)
        (tmp_path / "b.mg").write_text(C5_TEXT)
        result = run_cli("search", "--corpus", str(tmp_path), "--format", "json")
        doc = json.loads(result.stdout)
        assert [rec["name"] for rec in doc["instances"]] == ["a.mg", "b.mg"]

    def test_empty_corpus_gives_empty_report(self, tmp_path):
        path = tmp_path / "empty.mg"
        path.write_text("c nothing here\n")
        result = run_cli("search", "--corpus", str(path), "--format", "json")
        doc = json.loads(result.stdout)
        assert doc["instances"] == [] and doc["violations"] == []

    def test_worker_pool_matches_serial(self, tmp_path):
        path = tmp_path / "corpus.mg"
        path.write_text(T2_TEXT + C5_TEXT + serialize(fixture("fat-c3-m3")))
        serial = run_cli("search", "--corpus", str(path), "--format", "json")
        pooled = run_cli(
            "search", "--corpus", str(path), "--jobs", "2", "--format", "json"
        )
        assert serial.returncode == pooled.returncode == 0
        assert serial.stdout == pooled.stdout


class TestDeepHosts:
    """Fat triangles with about 500 to 1,200 edges: the class search takes
    one node per edge, well past the interpreter's 1,000 frames."""

    @pytest.mark.parametrize("mu", [165, 300, 400])
    def test_each_command_settles_a_fat_triangle(self, mu, tmp_path, capsys):
        g = gen_fat_cycle(3, mu)
        path = tmp_path / "g.mg"
        path.write_text(serialize(g))

        def run(*args: str) -> dict:
            assert main([*args, str(path), "--format", "json"]) == 0
            return json.loads(capsys.readouterr().out)

        doc = run("chi-index")
        assert doc["k"] == 3 * mu and doc["search_nodes"] == 6 * mu + 1
        assert is_proper_edge_coloring(g, coloring_from_doc(doc["coloring"]))
        doc = run("totalize")
        assert doc["k"] == 3 * mu
        assert is_proper_total_coloring(g, coloring_from_doc(doc["coloring"]))
        doc = run("embed")
        assert doc["report"]["k"] == 3 * mu
        assert [tuple(e) for e in doc["graph"]["edges"]] == list(g.edges)
        (rec,) = run("search", "--corpus")["instances"]
        assert (rec["status"], rec["chi_prime"], rec["chi_total"]) == (
            "holds", 3 * mu, 3 * mu,
        )

    def test_corpus_with_a_deep_host_settles_every_record(self, tmp_path, capsys):
        path = tmp_path / "corpus.mg"
        path.write_text(serialize(gen_fat_cycle(3, 165)) + serialize(fixture("fat-c3-m3")))
        assert main(["search", "--corpus", str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [(rec["chi_total"], rec["status"]) for rec in doc["instances"]] == [
            (495, "holds"), (9, "holds"),
        ]


class TestMainFunction:
    def test_in_process_entry_point(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(T2_TEXT))
        assert main(["density", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == "6"

    def test_input_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.mg"
        assert main(["density", str(missing)]) == 4


# every (subcommand, setting) pair where the subcommand reads no such setting
UNREAD_SETTINGS = [
    ("density", "--seed"),
    ("chi-index", "--seed"),
    ("chi-total", "--seed"),
    ("embed", "--seed"),
    ("totalize", "--seed"),
    ("verify", "--seed"),
    ("density", "--budget"),
    ("verify", "--budget"),
    ("gen", "--budget"),
    ("chi-total", "--max-n"),
    ("verify", "--max-n"),
    ("gen", "--max-n"),
]


class TestSettingsFlags:
    @staticmethod
    def _valid_args(command: str, tmp_path) -> list[str]:
        if command == "gen":
            return ["gen", "--fixture", "t2"]
        graph_path = tmp_path / "g.mg"
        graph_path.write_text(T2_TEXT)
        if command != "verify":
            return [command, str(graph_path)]
        coloring_path = tmp_path / "c.json"
        coloring_path.write_text(
            json.dumps(coloring_to_doc(totalize(fixture("t2")).coloring))
        )
        return ["verify", str(graph_path), str(coloring_path)]

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["totalize", "--bogus"])
        assert info.value.code == 4
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err

    def test_unknown_flag_shows_subcommand_usage(self):
        result = run_cli("totalize", "--seed", "1")
        assert result.returncode == 4
        usage, error = result.stderr.splitlines()[0], result.stderr.splitlines()[-1]
        assert usage.startswith("usage: densecolor totalize ")
        assert error == "densecolor totalize: error: unrecognized arguments: --seed"

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["totalize", "--help"])
        assert info.value.code == 0
        assert "--budget" in capsys.readouterr().out

    @pytest.mark.parametrize(("command", "flag"), UNREAD_SETTINGS)
    def test_unread_setting_is_usage_error(self, command, flag, tmp_path, capsys):
        args = self._valid_args(command, tmp_path)
        assert main(args) == 0
        with pytest.raises(SystemExit) as info:
            main(args + [flag, "1"])
        assert info.value.code == 4

    def test_max_n_caps_density(self, tmp_path, capsys):
        path = tmp_path / "c5.mg"
        path.write_text(C5_TEXT)
        assert main(["density", "--max-n", "3", str(path)]) == 3
        assert "capped" in capsys.readouterr().err

    def test_max_n_is_at_most_500(self, tmp_path, capsys):
        path = tmp_path / "t2.mg"
        path.write_text(T2_TEXT)
        assert main(["density", "--max-n", "501", str(path)]) == 4
        assert "density_max_n is at most 500" in capsys.readouterr().err
        assert main(["density", "--max-n", "500", str(path)]) == 0

    def test_budget_caps_chi_total(self, tmp_path, capsys):
        path = tmp_path / "c5.mg"
        path.write_text(C5_TEXT)
        assert main(["chi-total", "--budget", "1", str(path)]) == 3
        assert "budget" in capsys.readouterr().err

    def test_budget_caps_totalize_host_coloring(self, tmp_path, capsys):
        path = tmp_path / "g.mg"
        path.write_text(serialize(fixture("t2-2k1")))
        assert main(["totalize", "--budget", "5", str(path)]) == 3
        assert "budget" in capsys.readouterr().err
