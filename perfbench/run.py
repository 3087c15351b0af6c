"""Benchmark of densecolor's ``totalize`` and ``search``.

    python3 perfbench/run.py --workload totalize-dense --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout.  Each run starts fresh worker processes
(``worker.py``) that import ``densecolor`` from ``src``: a few that stop
after set-up, to time it, then one that measures.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  Any failure
to run exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # fresh processes timed from start to the first op
RUN_LIMIT_S = 170  # every run must end within 180 s


def spawn(args: list[str], timeout: float) -> tuple[float, dict]:
    """Start one worker; returns (monotonic start time, its JSON line)."""
    # a fixed hash seed makes set and dict order, and so each search,
    # repeat from run to run
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker timed out after {timeout:.0f} s: {args}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}: {args}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"worker printed nothing: {args}")
    return started, json.loads(lines[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload!r}")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    deadline = time.monotonic() + RUN_LIMIT_S

    setup = []  # in reference seconds, as every time (see worker.py)
    for _ in range(SETUP_SAMPLES - 1):
        started, out = spawn(common + ["--setup-only"], deadline - time.monotonic())
        setup.append((out["ready"] - started) * out["setup_scale"])
    measure = common + ["--trace", str(args.trace)]
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        measure += ["--spans-out", str(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")]
    started, out = spawn(measure, deadline - time.monotonic())
    setup.append((out["ready"] - started) * out["setup_scale"])

    for fault in out["faults"]:
        print(f"check failed: {fault}", file=sys.stderr)
    print(f"unscaled wall: {out['raw_wall_s']:.6f} s", file=sys.stderr)
    measured = dict(out.get("layers", {}))
    measured.update(
        setup_s=statistics.median(setup),
        wall_s=out["wall_s"],
        op_p50_s=out["op_p50_s"],
        op_p90_s=out["op_p90_s"],
        peak_rss_mb=out["peak_rss_mb"],
    )
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
