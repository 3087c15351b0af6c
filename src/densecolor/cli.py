"""Command-line front end: one verb per computed artifact.

Graphs are read from a file path (or standard input with ``-``) in the
line-oriented text format.  Output is human-readable text by default;
``--format json`` switches to the structured documents.  Exit codes:
0 success, 1 failed verification, 2 hypothesis not met, 3 instance too
large or budget exhausted, 4 input error (usage errors included), 5 internal
guarantee violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .coloring import (
    coloring_from_doc,
    coloring_to_doc,
    is_proper_edge_coloring,
    is_proper_total_coloring,
    TotalColoring,
)
from .config import DEFAULT_CONFIG, RunConfig
from .errors import (
    BudgetExceededError,
    GraphFormatError,
    GuaranteeViolationError,
    HypothesisNotMetError,
    InstanceTooLargeError,
    EXIT_GUARANTEE_VIOLATION,
    EXIT_HYPOTHESIS_NOT_MET,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_TOO_LARGE,
    EXIT_VERIFY_FAILED,
)
from .embed import embed_k_dense
from .generators import (
    fixture,
    fixture_names,
    gen_fat_cycle,
    gen_random_multigraph,
)
from .multigraph import Multigraph, _line_fields, parse, serialize
from .oracles import (
    ChromaticCertificate,
    chromatic_index,
    density,
    total_chromatic_number,
)
from .search import search_goldberg
from .totalize import totalize


def _load_graph(path: str) -> Multigraph:
    if path == "-":
        return parse(sys.stdin.read())
    return parse(Path(path).read_text(encoding="utf-8"))


def _config_from(args: argparse.Namespace) -> RunConfig:
    return DEFAULT_CONFIG.with_overrides(
        density_max_n=getattr(args, "max_n", None),
        node_budget=getattr(args, "budget", None),
    )


def _emit(args: argparse.Namespace, doc: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _coloring_lines(doc: dict) -> list[str]:
    lines = [f"palette k = {doc['k']}"]
    lines.extend(f"edge {e['id']}: color {e['color']}" for e in doc["edges"])
    if "vertices" in doc:
        lines.extend(f"vertex {v['v']}: color {v['color']}" for v in doc["vertices"])
    return lines


def cmd_density(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    result = density(graph, _config_from(args))
    witness = (
        " ".join(str(v) for v in result.witness) if result.witness is not None else "none"
    )
    _emit(args, result.to_doc(), [f"rho = {result.value}", f"witness: {witness}"])
    return EXIT_OK


def _emit_certificate(
    args: argparse.Namespace, label: str, cert: ChromaticCertificate
) -> int:
    doc = cert.to_doc()
    lines = [
        f"{label} = {cert.k}",
        f"lower bound reason: {cert.lower_bound_reason}",
        f"search nodes: {cert.search_nodes}",
    ] + _coloring_lines(doc["coloring"])
    _emit(args, doc, lines)
    return EXIT_OK


def cmd_chi_index(args: argparse.Namespace) -> int:
    cert = chromatic_index(_load_graph(args.graph), _config_from(args))
    return _emit_certificate(args, "chi'", cert)


def cmd_chi_total(args: argparse.Namespace) -> int:
    cert = total_chromatic_number(_load_graph(args.graph), _config_from(args))
    return _emit_certificate(args, "chi''", cert)


def cmd_embed(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    config = _config_from(args)
    cert = chromatic_index(graph, config)
    if cert.host is not None and not cert.peeled:  # G's own host, already built
        g_prime, report = cert.host.g_prime, cert.host.report
    else:
        g_prime, report = embed_k_dense(graph, cert.k, config)
    doc = {
        "graph": {"n": g_prime.n, "edges": [list(e) for e in g_prime.edges]},
        "report": report.to_doc(),
    }
    lines = serialize(g_prime).splitlines()
    lines.append(f"k = {report.k}")
    lines.append(f"parity vertex added: {report.parity_vertex_added}")
    lines.append(f"edges added: {len(report.added_edges)}")
    for u, v in report.added_edges:
        lines.append(f"  added ({u}, {v})")
    for move in report.exchange_moves:
        lines.append(
            f"  exchange: removed {move.removed}, added {move.added[0]} {move.added[1]}"
        )
    lines.append(f"final n = {report.final_n}, final m = {report.final_m}")
    _emit(args, doc, lines)
    return EXIT_OK


def cmd_totalize(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    cert = totalize(graph, _config_from(args))
    doc = cert.to_doc(include_witness=args.witness)
    lines = [
        f"chi'' = chi' = {cert.k}",
        f"embedding added {len(cert.pipeline.embedding.added_edges)} edges "
        f"(parity vertex: {cert.pipeline.embedding.parity_vertex_added})",
    ] + _coloring_lines(coloring_to_doc(cert.coloring))
    if cert.pipeline.peeled:
        lines.insert(1, "peeled: " + " ".join(map(str, cert.pipeline.peeled)))
    if args.witness:
        lines.append("host graph:")
        lines.extend(serialize(cert.g_prime).splitlines())
        lines.extend(_coloring_lines(coloring_to_doc(cert.g_prime_coloring)))
    _emit(args, doc, lines)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    try:
        doc = json.loads(Path(args.coloring).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"coloring file is not valid JSON: {exc}") from None
    coloring = coloring_from_doc(doc)
    if isinstance(coloring, TotalColoring):
        kind = "total"
        valid = (
            len(coloring.edge_colors) == graph.m
            and len(coloring.vertex_colors) == graph.n
            and is_proper_total_coloring(graph, coloring)
        )
    else:
        kind = "edge"
        valid = len(coloring.colors) == graph.m and is_proper_edge_coloring(
            graph, coloring
        )
    _emit(
        args,
        {"kind": kind, "k": coloring.k, "valid": valid},
        [f"{kind} coloring with k = {coloring.k}", f"valid: {valid}"],
    )
    return EXIT_OK if valid else EXIT_VERIFY_FAILED


def cmd_gen(args: argparse.Namespace) -> int:
    if args.list_fixtures:
        for name in fixture_names():
            print(name)
        return EXIT_OK
    chosen = [
        opt
        for opt, val in (
            ("--fixture", args.fixture),
            ("--fat-cycle", args.fat_cycle),
            ("--random", args.random),
        )
        if val is not None
    ]
    if len(chosen) != 1:
        raise ValueError("choose exactly one of --fixture, --fat-cycle, --random")
    if args.fixture is not None:
        graph = fixture(args.fixture)
    elif args.fat_cycle is not None:
        n_odd, mult = args.fat_cycle
        graph = gen_fat_cycle(n_odd, mult)
    else:
        n, m, mult_cap = args.random
        graph = gen_random_multigraph(n, m, mult_cap, args.seed)
    if args.format == "json":
        print(
            json.dumps(
                {"n": graph.n, "edges": [list(e) for e in graph.edges]},
                indent=2,
                sort_keys=True,
            )
        )
    else:
        sys.stdout.write(serialize(graph))
    return EXIT_OK


def _read_corpus(path: str) -> list[tuple[str, Multigraph]]:
    """Read one or many graphs: a directory of files, or a single file with
    one or more 'p multigraph' documents, each starting at its problem line.
    Lines are told apart as ``parse`` tells them, so only blank and comment
    lines may come before the first problem line."""
    p = Path(path)
    out: list[tuple[str, Multigraph]] = []
    if p.is_dir():
        for child in sorted(p.iterdir()):
            if child.is_file():
                out.append((child.name, parse(child.read_text(encoding="utf-8"))))
        return out
    text = p.read_text(encoding="utf-8")
    chunks: list[list[str]] = []
    for line in text.splitlines():
        fields = _line_fields(line)  # the line kinds of ``parse``
        if fields[:1] == ["p"]:
            chunks.append([line])
        elif chunks:
            chunks[-1].append(line)
        elif fields:
            raise GraphFormatError(f"content before the first problem line: {line!r}")
    for idx, chunk in enumerate(chunks):
        out.append((f"{p.name}#{idx}", parse("\n".join(chunk))))
    return out


def cmd_search(args: argparse.Namespace) -> int:
    config = _config_from(args)
    for flag, least in (
        ("--random-count", 0),
        ("--random-n", 2),
        ("--random-m", 0),
        ("--random-mult-cap", 1),
    ):
        value = getattr(args, flag[2:].replace("-", "_"))
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
    instances: list[tuple[str, Multigraph]] = []
    if args.corpus is not None:
        instances.extend(_read_corpus(args.corpus))
    if args.fat_cycles is not None:
        n_lo, n_hi, m_lo, m_hi = args.fat_cycles
        for n_odd in range(n_lo, n_hi + 1):
            if n_odd % 2 == 0:
                continue
            for mult in range(m_lo, m_hi + 1):
                instances.append(
                    (f"fat-c{n_odd}-m{mult}", gen_fat_cycle(n_odd, mult))
                )
    if args.random_count:
        import random as _random

        rng = _random.Random(args.seed)
        for i in range(args.random_count):
            n = rng.randint(2, args.random_n)
            cap = rng.randint(1, args.random_mult_cap)
            m_max = min(args.random_m, cap * n * (n - 1) // 2)
            m = rng.randint(0, m_max)
            instances.append(
                (
                    f"random-{i:04d}",
                    gen_random_multigraph(n, m, cap, rng.getrandbits(32)),
                )
            )
    sources_given = (
        args.corpus is not None
        or args.fat_cycles is not None
        or args.random_count > 0
    )
    if args.fixtures or not sources_given:
        instances.extend((name, fixture(name)) for name in fixture_names())
    outcome = search_goldberg(instances, config, jobs=args.jobs)
    lines = []
    for rec in outcome.records:
        chi_t = rec.chi_total if rec.chi_total is not None else "-"
        chi_p = rec.chi_prime if rec.chi_prime is not None else "-"
        line = (
            f"{rec.name}: n={rec.n} m={rec.m} Delta={rec.delta} "
            f"chi'={chi_p} chi''={chi_t} [{rec.status}]"
        )
        if rec.detail:
            line += f" {rec.detail}"
        lines.append(line)
    counts = outcome.counts
    lines.append(
        f"checked {len(outcome.records)}: {counts['holds']} hold, "
        f"{counts['violation']} violations, "
        f"{counts['out-of-hypothesis']} out of hypothesis, "
        f"{counts['skipped']} skipped"
    )
    _emit(args, outcome.to_doc(), lines)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with the input-error code; argparse's own 2 is
    this tool's "hypothesis not met"."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


class _Command(_Parser):
    """A subcommand's parser.  It rejects the arguments it does not know
    itself; left to the top-level parser, the error would print the
    top-level usage line instead of the subcommand's."""

    def parse_known_args(self, args=None, namespace=None):
        parsed, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return parsed, extra


# each subcommand takes only the settings it reads
_SETTINGS = {
    "--max-n": {"type": int, "default": None, "help": "subset-enumeration cap"},
    "--budget": {"type": int, "default": None, "help": "search-node budget"},
    "--seed": {"type": int, "default": 0, "help": "64-bit RNG seed"},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="densecolor",
        description="Exact density, chromatic-index and total-coloring "
        "toolkit for loopless multigraphs.",
    )
    subs = parser.add_subparsers(
        dest="command", required=True, parser_class=_Command
    )

    def add(name: str, handler, help_text: str, *settings: str, graph_arg=True):
        sub = subs.add_parser(name, help=help_text)
        if graph_arg:
            sub.add_argument(
                "graph", nargs="?", default="-", help="graph file (default: stdin)"
            )
        sub.add_argument("--format", choices=("text", "json"), default="text")
        for flag in settings:
            sub.add_argument(flag, **_SETTINGS[flag])
        sub.set_defaults(handler=handler)
        return sub

    add("density", cmd_density, "exact density with a maximizing odd vertex set",
        "--max-n")
    add("chi-index", cmd_chi_index, "exact chromatic index with witness coloring",
        "--max-n", "--budget")
    add("chi-total", cmd_chi_total, "exact total chromatic number with witness",
        "--budget")
    add("embed", cmd_embed, "embed into a chi'-dense supergraph", "--max-n", "--budget")
    tot = add("totalize", cmd_totalize, "verified total chi'-coloring via embedding",
              "--max-n", "--budget")
    tot.add_argument(
        "--witness", action="store_true", help="also emit the host graph and its coloring"
    )
    ver = add("verify", cmd_verify, "re-verify a coloring document against a graph")
    ver.add_argument("coloring", help="coloring document (JSON)")
    gen = add("gen", cmd_gen, "emit a corpus or generated graph", "--seed",
              graph_arg=False)
    gen.add_argument("--fixture", help="named corpus graph")
    gen.add_argument("--list-fixtures", action="store_true")
    gen.add_argument(
        "--fat-cycle", nargs=2, type=int, metavar=("N_ODD", "MULT"), default=None
    )
    gen.add_argument(
        "--random", nargs=3, type=int, metavar=("N", "M", "MULT_CAP"), default=None
    )
    sea = add("search", cmd_search,
              "scan instances for chi' >= Delta+3 and check chi'' = chi'",
              "--max-n", "--budget", "--seed", graph_arg=False)
    sea.add_argument("--corpus", default=None, help="graph file or directory")
    sea.add_argument("--fixtures", action="store_true", help="include the named fixtures")
    sea.add_argument(
        "--fat-cycles",
        nargs=4,
        type=int,
        metavar=("N_LO", "N_HI", "MULT_LO", "MULT_HI"),
        default=None,
    )
    sea.add_argument("--random-count", type=int, default=0)
    sea.add_argument("--random-n", type=int, default=5)
    sea.add_argument("--random-m", type=int, default=10)
    sea.add_argument("--random-mult-cap", type=int, default=3)
    sea.add_argument("--jobs", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except HypothesisNotMetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS_NOT_MET
    except (InstanceTooLargeError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except GuaranteeViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.certificate is not None:
            print(str(exc.certificate), file=sys.stderr)
        return EXIT_GUARANTEE_VIOLATION
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
