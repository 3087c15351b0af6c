"""One run of one workload, in a fresh single-threaded process.

Started by ``run.py``; not meant to be run by hand.  It imports
``densecolor`` from the checkout's ``src``, builds the seeded corpus, then
settles the whole corpus again and again (closed loop, one op at a time)
until ``--seconds`` have passed, checking every output.  It prints one JSON
line: the monotonic time at which set-up ended, and the measurements.

Times are reported in reference seconds.  The machine this benchmark was
tuned on (a 2-core VM) runs the same Python code up to 1.5x slower for tens
of seconds at a time, so a raw time depends on when a run happens more than
on the program.  Between ops, after every ``SEGMENT_S`` of op time, the
worker times a fixed pure-Python loop (``calibrate``) and scales the ops
in between by ``CALIBRATION_REF_S`` over the loop's mean time at both
ends: a reference second is a second on a machine that runs the loop in
``CALIBRATION_REF_S``.  The loop does not touch ``densecolor``, so a
change to the program cannot move it.

With ``--setup-only`` it stops after set-up.  With ``--trace 1`` untraced
and traced passes alternate; the traced passes give the per-layer numbers
and the difference between the two kinds gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 100  # op samples per run, so that ten or more lie beyond the p90
CALIBRATION_REF_S = 0.010  # the loop's time on the tuning VM when it runs fast
SEGMENT_S = 0.2  # op time between two calibrations


def calibrate() -> float:
    """Seconds this process takes for a fixed loop of the integer, bit,
    list and call work that the program's searches are made of."""
    start = time.perf_counter()
    masks = list(range(64))
    acc = 0

    def step(a: int, b: int) -> int:
        return (a | b) & ~(a & b)

    for i in range(40_000):
        acc ^= step(masks[i & 63], i)
        acc = (acc + (i & -i).bit_length()) & 0xFFFF
    return time.perf_counter() - start


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import densecolor
    except ImportError as exc:
        raise SystemExit(f"cannot import densecolor from {src}: {exc}")
    if Path(densecolor.__file__).resolve().parent != src / "densecolor":
        raise SystemExit(f"densecolor was imported from {densecolor.__file__}, not {src}")
    return densecolor


def time_op(dc, workload: str, case):
    """Run one op; returns (seconds, output, failure or None)."""
    if workload == "search-mixed":
        start = time.perf_counter()
        out = dc.search_goldberg([(case.name, dc.parse(case.text))], jobs=1)
        elapsed = time.perf_counter() - start
        skipped = [rec.detail for rec in out.records if rec.status == "skipped"]
        return elapsed, out, skipped[0] if skipped else None
    graph = dc.Multigraph(case.n, case.edges)
    start = time.perf_counter()
    try:
        out = dc.totalize(graph)
    except dc.DensecolorError as exc:
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, out, None


def output_faults(check, workload: str, case, out) -> list[str]:
    if workload != "search-mixed":
        col = out.coloring
        return check.check_totalize(
            case.n, case.edges, case.lower_bound, out.k, col.edge_colors, col.vertex_colors
        )
    faults = [f"violation certificate for {v.name}" for v in out.violations]
    if len(out.records) != 1:
        return faults + [f"{len(out.records)} records for one instance"]
    return faults + check.check_search_record(
        case.n, case.edges, out.records[0].to_doc(), case.rho, case.known_index
    )


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    dc = import_program()
    import check
    import corpus

    cases = corpus.WORKLOADS[args.workload](dc, args.seed)
    ready = time.monotonic()
    setup_scale = CALIBRATION_REF_S / calibrate()
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_scale": setup_scale}))
        return

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()

    faults: list[str] = []
    durations: list[float] = []  # every op that did not fail, scaled
    walls = {False: [], True: []}  # scaled pass times, keyed by "traced"
    raw_walls: list[float] = []
    traced_ops: list[set[int]] = []
    traced_scales: list[float] = []
    failed = attempted = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        if traced:
            tracer.install()
            traced_ops.append(set())
        raw = scaled = spent = 0.0
        segment: list[tuple[float, bool]] = []  # ops since the last calibration
        last = calibrate()
        for i, case in enumerate(cases):
            if traced:
                traced_ops[-1].add(attempted)
                root = tracer.begin_op(attempted)
            elapsed, out, failure = time_op(dc, args.workload, case)
            if traced:
                tracer.end_op(root)
            attempted += 1
            segment.append((elapsed, failure is None))
            spent += elapsed
            if failure is not None:
                failed += 1
            else:
                faults.extend(f"{case.name}: {f}" for f in output_faults(check, args.workload, case, out))
            if spent >= SEGMENT_S or i == len(cases) - 1:
                now = calibrate()
                scale = 2 * CALIBRATION_REF_S / (last + now)
                last = now
                raw += spent
                scaled += spent * scale
                if not traced:
                    durations.extend(e * scale for e, ok in segment if ok)
                segment, spent = [], 0.0
        if traced:
            tracer.uninstall()
            traced_scales.append(scaled / raw)
        else:
            raw_walls.append(raw)
        walls[traced].append(scaled)
        done = time.perf_counter() - start >= args.seconds
        if tracer is None and done and len(durations) >= MIN_OPS:
            break
        if tracer is not None and done and len(walls[True]) == len(walls[False]):
            break

    result = {
        "ready": ready,
        "correct": not faults,
        "attempted": attempted,
        "failed": failed,
        "faults": faults[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_scale": setup_scale,
        "raw_wall_s": statistics.median(raw_walls),
        "wall_s": statistics.median(walls[False]),
        "op_p50_s": statistics.median(durations),
        "op_p90_s": statistics.quantiles(durations, n=10)[8],
    }
    if tracer is not None:
        nesting = spans.nesting_faults(tracer.spans)
        result["correct"] = result["correct"] and not nesting
        result["faults"] += nesting[:20]
        per_round = spans.layer_totals(tracer.spans, traced_ops)
        for totals, scale in zip(per_round, traced_scales):
            for key in totals:
                if key.endswith("_s"):
                    totals[key] *= scale
        layers = {}
        for layer, names in spans.LAYERS.items():
            for name in names:
                for key in ("calls", "self_s"):
                    full = f"{layer}.{name}.{key}"
                    layers[full] = statistics.median(r.get(full, 0.0) for r in per_round)
        for key in ("oracles.chromatic_index.nodes", "oracles.total_chromatic_number.nodes",
                    "embed.embed_k_dense.added_edges", "embed.embed_k_dense.exchange_moves"):
            layers[key] = statistics.median(r.get(key, 0) for r in per_round)
        layers["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        result["layers"] = layers
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
