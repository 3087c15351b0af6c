"""Span tracing around densecolor's public functions, for the traced run.

The wrappers live here, in the benchmark, not in the program.  They replace
the listed functions in every loaded ``densecolor`` module namespace that
binds them, so calls between modules (``totalize`` calling
``chromatic_index``) and inside a module (``chromatic_index`` calling
``density``) both pass through a wrapper.  Spans are kept in memory and
written out when the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# layer (densecolor module) -> the public functions traced in it
LAYERS = {
    "multigraph": ("parse",),
    "oracles": (
        "chromatic_index",
        "density",
        "find_k_edge_coloring",
        "total_chromatic_number",
        "maximal_k_dense_subgraphs",
    ),
    "embed": ("embed_k_dense",),
    "totalize": ("totalize", "extend_to_total", "restrict_total"),
    "coloring": ("is_proper_edge_coloring", "is_proper_total_coloring"),
    "search": ("search_goldberg",),
}

# work counts read from a function's return value
COUNTERS = {
    "oracles.chromatic_index": lambda cert: {"nodes": cert.search_nodes},
    "oracles.total_chromatic_number": lambda cert: {"nodes": cert.search_nodes},
    "embed.embed_k_dense": lambda out: {
        "added_edges": len(out[1].added_edges),
        "exchange_moves": len(out[1].exchange_moves),
    },
}

OP = "op"

# span record fields, kept as lists for speed
NAME, PARENT, OP_ID, START, END, COUNTS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op_id = -1
        self._patches: list[tuple[object, str, object, object]] = []
        wrappers = {}
        for layer, names in LAYERS.items():
            module = sys.modules[f"densecolor.{layer}"]
            for name in names:
                original = getattr(module, name)
                wrappers[id(original)] = (original, self._wrap(f"{layer}.{name}", original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "densecolor" and not mod_name.startswith("densecolor."):
                continue
            for attr, value in vars(module).items():
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patches.append((module, attr, value, wrappers[id(value)][1]))

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _begin(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else None, self._op_id, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def _end(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            rec = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(rec)
            if counter is not None:
                rec[COUNTS] = counter(result)
            return result

        return traced

    def begin_op(self, op_id: int) -> list:
        """Open the root span of one op; every layer span below it carries
        the op id."""
        self._op_id = op_id
        return self._begin(OP)

    def end_op(self, rec: list) -> None:
        self._end(rec)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for sid, (name, parent, op_id, start, end, counts) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": sid, "name": name, "parent": parent, "op": op_id,
                    "start": start, "end": end, "counts": counts,
                }) + "\n")


def nesting_faults(spans: list[list]) -> list[str]:
    """Spans must nest inside their parents, share the parent's op, and an
    op's layer self times must add up to no more than the op's time."""
    faults = []
    for sid, rec in enumerate(spans):
        parent = rec[PARENT]
        if parent is None:
            if rec[NAME] != OP:
                faults.append(f"span {sid} ({rec[NAME]}) has no enclosing op")
            continue
        up = spans[parent]
        if rec[START] < up[START] or rec[END] > up[END] or rec[OP_ID] != up[OP_ID]:
            faults.append(f"span {sid} ({rec[NAME]}) is not inside its parent {parent}")
    by_op: dict[int, float] = defaultdict(float)
    for rec, own in zip(spans, self_times(spans)):
        if rec[NAME] != OP:
            by_op[rec[OP_ID]] += own
    for rec in spans:
        if rec[NAME] == OP and by_op[rec[OP_ID]] > rec[END] - rec[START] + 1e-9:
            faults.append(f"op {rec[OP_ID]}: layer self times exceed the op time")
    return faults


def self_times(spans: list[list]) -> list[float]:
    """Each span's time minus the time its direct children cover."""
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] is not None:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def layer_totals(spans: list[list], rounds: list[set[int]]) -> list[dict[str, float]]:
    """Per-layer metrics of each round, given as the set of its op ids:
    ``<name>.calls``, ``<name>.self_s`` and the work counts of ``COUNTERS``."""
    round_of = {op_id: i for i, ops in enumerate(rounds) for op_id in ops}
    totals: list[dict[str, float]] = [defaultdict(float) for _ in rounds]
    for rec, own in zip(spans, self_times(spans)):
        if rec[NAME] == OP or rec[OP_ID] not in round_of:
            continue
        out = totals[round_of[rec[OP_ID]]]
        out[f"{rec[NAME]}.calls"] += 1
        out[f"{rec[NAME]}.self_s"] += own
        for key, value in (rec[COUNTS] or {}).items():
            out[f"{rec[NAME]}.{key}"] += value
    return totals
