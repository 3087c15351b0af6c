"""Golden documents: the command line's output on a fixed set of inputs.

For each input of ``document_inputs`` and each command of ``COMMANDS``,
``documents.json`` pins the exit code and a SHA-256 of the ``--format
json`` stdout and the stderr that ``cli.main`` gives in-process.  The
inputs are the named fixtures, every graph the CI workflow pipes into
``densecolor``, and seeded sweeps from the suite's own generators.

The test never writes the data file.  A change that means to alter a
document rewrites it with ``PYTHONPATH=src python
tests/regen_documents.py`` and lists the inputs that changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from densecolor import (
    Multigraph,
    fixture,
    fixture_names,
    gen_fat_cycle,
    gen_random_multigraph,
    serialize,
)
from densecolor.cli import main

DATA = Path(__file__).with_name("documents.json")

# the commands, each given the graph file's path last
COMMANDS = {
    "chi-index": ["chi-index", "--format", "json"],
    "totalize": ["totalize", "--witness", "--format", "json"],
    "embed": ["embed", "--format", "json"],
    "search": ["search", "--format", "json", "--corpus"],
}


def _padded(graph: Multigraph, n: int) -> Multigraph:
    return Multigraph(n, graph.edges)


def _ci_inputs() -> dict[str, Multigraph]:
    """The graphs of ``.github/workflows/tests.yml``, 0-based."""
    fat = gen_fat_cycle
    t3_oct = [(4, 6), (4, 7), (4, 8), (4, 9), (5, 6), (5, 7), (5, 8), (5, 9)]
    t3_oct += [(6, 8), (6, 9), (7, 8), (7, 9)]
    petersen = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7)]
    petersen += [(3, 8), (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    return {
        "fat-c7-m7": fat(7, 7),
        "fat-c5-m5-n9": _padded(fat(5, 5), 9),
        "fat-c3-m4-n9": _padded(fat(3, 4), 9),
        "fat-c5-m4": fat(5, 4),
        "fat-c5-m4-n9": _padded(fat(5, 4), 9),
        "petersen-less-a-vertex": Multigraph(
            9,
            ((0, 1), (1, 2), (2, 3), (0, 5), (1, 6), (2, 7), (3, 8), (4, 6))
            + ((5, 7), (6, 8), (7, 4), (8, 5)),
        ),
        "fat-c3-m4-and-a-4-fold-pair": Multigraph(5, fat(3, 4).edges + ((3, 4),) * 4),
        "petersen": Multigraph(10, tuple(petersen)),
        "triangle-n6": Multigraph(6, ((1, 3), (1, 4), (3, 4))),
        "fat-c3-m12-n17": _padded(fat(3, 12), 17),
        "fat-c3-m13-n19": _padded(fat(3, 13), 19),
        "fat-c5-m7-n15": _padded(fat(5, 7), 15),
        "fat-c3-m8-n13": _padded(fat(3, 8), 13),
        "fat-c3-m4-and-a-path": Multigraph(
            12, fat(3, 4).edges + tuple((v, v + 1) for v in range(3, 11))
        ),
        "fat-c3-m4-and-a-star": Multigraph(
            9, fat(3, 4).edges + tuple((3, w) for w in range(4, 9))
        ),
        "fat-c3-m5-on-odd-ids": Multigraph(
            7, tuple((2 * u + 1, 2 * v + 1) for u, v in fat(3, 5).edges)
        ),
        "fat-c3-m3-n9": _padded(fat(3, 3), 9),
        "fat-c5-m3": fat(5, 3),
        "fat-c3-m400": fat(3, 400),
        "random-29-70-2-seed-1": gen_random_multigraph(29, 70, 2, 1),
        "wide-sparse": Multigraph(100_000, ((0, 1),)),
        "fat-c45-m1": fat(45, 1),
        "fat-c7-m3": fat(7, 3),
        "fat-c3-m3-and-octahedron": Multigraph(
            9, fat(3, 3).edges + tuple((u - 1, v - 1) for u, v in t3_oct)
        ),
        "fat-c3-m5-n15": _padded(fat(3, 5), 15),
        "fat-c3-m2": fat(3, 2),
        "fat-c3-m6-n14": _padded(fat(3, 6), 14),
        "fat-c3-m4": fat(3, 4),
        "fat-c5-m5": fat(5, 5),
    }


def _shuffled(graph: Multigraph, padding: int, rng: random.Random) -> Multigraph:
    """``graph`` with ``padding`` isolated vertices, on shuffled ids."""
    label = list(range(graph.n + padding))
    rng.shuffle(label)
    return Multigraph(len(label), tuple((label[u], label[v]) for u, v in graph.edges))


def document_inputs() -> dict[str, Multigraph]:
    """Every input, by a name that says where it comes from."""
    inputs = {f"fixture-{name}": fixture(name) for name in fixture_names()}
    inputs.update((f"ci-{name}", g) for name, g in _ci_inputs().items())
    for c in (3, 5, 7):
        for mu in range(1, 9):
            inputs[f"fat-c{c}-m{mu}"] = gen_fat_cycle(c, mu)
    rng = random.Random(38)
    for i in range(120):  # dense-ish cores, padded, on shuffled ids
        c = rng.choice((3, 3, 5, 5, 7))
        if rng.random() < 0.5:
            core = gen_fat_cycle(c, rng.randint(2, 6))
        else:
            cap = rng.randint(2, 5)
            m = rng.randint(c, min(cap * c * (c - 1) // 2, 4 * c))
            core = gen_random_multigraph(c, m, cap, rng.getrandbits(32))
        inputs[f"padded-{i:03d}"] = _shuffled(core, rng.randint(1, 8), rng)
    for i in range(120):  # random multigraphs, n <= 9
        n = rng.randint(2, 9)
        cap = rng.randint(1, 4)
        m = rng.randint(0, min(cap * n * (n - 1) // 2, 24))
        inputs[f"random-{i:03d}"] = gen_random_multigraph(n, m, cap, rng.getrandbits(32))
    return inputs


def digest(args: list[str]) -> str:
    """``<exit code> <SHA-256 of stdout and stderr>`` of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    body = json.dumps([out.getvalue(), err.getvalue()]).encode()
    return f"{code} {hashlib.sha256(body).hexdigest()}"


def documents(workdir: Path) -> dict[str, dict[str, str]]:
    """The digests of every command on every input, the graph read from a
    file ``graph.txt`` in ``workdir``."""
    path = workdir / "graph.txt"
    table = {}
    for name, graph in document_inputs().items():
        path.write_text(serialize(graph), encoding="utf-8")
        table[name] = {
            command: digest(args + [str(path)]) for command, args in COMMANDS.items()
        }
    return table


def test_documents_match_the_pinned_digests(tmp_path):
    pinned = json.loads(DATA.read_text(encoding="utf-8"))
    got = documents(tmp_path)
    assert sorted(got) == sorted(pinned), "the inputs differ from the data file's"
    changed = [
        f"{name} {command}: pinned {pinned[name][command]}, got {value}"
        for name, row in got.items()
        for command, value in row.items()
        if pinned[name].get(command) != value
    ]
    assert not changed, "documents changed:\n" + "\n".join(changed)
