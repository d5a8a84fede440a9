"""Runs wisv in a fresh interpreter on behalf of perfbench/run.py.

    worker.py setup   --workload W --config C --seed N --out DIR
    worker.py measure --workload W --config C --seed N --seconds S --trace T
                      --inputs DIR --work DIR --result FILE

``setup`` builds a workload's inputs: for the sweeps, the trace -> relabel ->
train stages that write head.bin; for calibrate, only the imports and the
config load. ``measure`` runs one untimed warm-up pass and then timed passes
in a closed loop, each through ``wisv.cli.main`` with ``--config`` and
``--seed``, checks every pass's outputs, and writes its findings as JSON.
With ``--trace 1`` it alternates untraced and traced passes, all serial.
The worker holds itself to as many CPUs as eval has jobs, and times the
reference job of hostspeed.py on those CPUs between the stages it times.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from wisv import cli  # noqa: E402
from wisv.config import ExperimentConfig  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402

# sweep_dynamic runs eval with one worker process per core of the 2-core
# machine the benchmark was sized on; the other workloads run serially.
JOBS = {"sweep_dynamic": 2}
MIN_PASSES = 3
PROBLEMS_KEPT = 20


def wisv(stage: str, args, out: Path, jobs: int = 1) -> int:
    argv = [stage, "--config", str(args.config), "--seed", str(args.seed), "--out", str(out)]
    return cli.main(argv + ["--jobs", str(jobs)])


def setup(args) -> int:
    if args.workload == "calibrate":
        ExperimentConfig.load(args.config, seed=args.seed)
        return 0
    for stage in checks.CALIBRATION_STAGES:
        code = wisv(stage, args, args.out)
        if code != 0:
            return code
    return 0


@dataclass
class Pass:
    """One run of the workload into a fresh directory, with its checks."""

    wall: float
    scaled: float | None
    verdict: checks.Verdict
    digest: str
    files: dict[str, int]


def run_pass(
    args, raw: dict, jobs: int, tracer: tracing.Tracer | None = None, scale: hostspeed.Scale | None = None
) -> Pass:
    out = args.work / "pass"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    inputs = [name for name in checks.INPUTS if (args.inputs / name).is_file()]
    for name in inputs:
        shutil.copy(args.inputs / name, out / name)
    calibrate = args.workload == "calibrate"
    stages = checks.CALIBRATION_STAGES if calibrate else ("eval",)

    def run() -> list[int]:
        return [wisv(stage, args, out, jobs) for stage in stages]

    gc.collect()
    scaled = None
    if scale:
        # Each stage is scaled on its own: a calibrate pass lasts seconds, and
        # the host's speed changes within that.
        codes, wall, scaled = [], 0.0, 0.0
        for stage in stages:
            t0 = time.perf_counter()
            codes.append(wisv(stage, args, out, jobs))
            seconds = time.perf_counter() - t0
            wall += seconds
            scaled += scale.section(seconds)
    else:
        with tracing.patched(tracer) if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            codes = tracer.wrap(tracing.ROOT, run)() if tracer else run()
            wall = time.perf_counter() - t0
    if calibrate:
        verdict = checks.verify_calibration(raw, out, codes)
    else:
        verdict = checks.verify_sweep(raw, out, codes[0])
    return Pass(wall, scaled, verdict, checks.digest(out), checks.output_bytes(out, inputs))


def measure(args) -> dict:
    raw = ExperimentConfig.load(args.config, seed=args.seed).raw
    jobs = JOBS.get(args.workload, 1)
    # The warm-up pass runs with the other worker count than the timed
    # passes, so every run compares a serial and a parallel digest.
    warm = run_pass(args, raw, jobs if args.trace else 1)
    timed: list[Pass] = []
    traced: list[tuple[Pass, dict]] = []
    scale = None
    if not args.trace:
        scale = hostspeed.Scale(os.sched_getaffinity(0))
        while len(timed) < MIN_PASSES or sum(p.wall for p in timed) < args.seconds:
            timed.append(run_pass(args, raw, jobs, scale=scale))
    else:
        spent = 0.0
        while not traced or spent < args.seconds:
            timed.append(run_pass(args, raw, 1))
            tracer = tracing.Tracer()
            p = run_pass(args, raw, 1, tracer)
            traced.append((p, tracer.metrics()))
            spent += timed[-1].wall + p.wall

    passes = [warm, *timed, *(p for p, _ in traced)]
    failed, attempted, problems = 0, 0, []
    for p in passes:
        units = p.verdict.failed
        if p.digest != warm.digest:
            units = p.verdict.units
            problems.append(f"output digest {p.digest[:12]} differs from {warm.digest[:12]}")
        attempted += len(p.verdict.units)
        failed += len(units)
        problems.extend(p.verdict.problems)
    result = {
        "numpy": np.__version__,
        "digest": warm.digest,
        "walls": [p.wall for p in timed],
        "refs": scale.refs if scale else [],
        "scaled_walls": [p.scaled for p in timed] if scale else [],
        "rounds": warm.verdict.rounds,
        "output_bytes": sum(warm.files.values()),
        "peak_rss_mb": 1024 * max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ) / 1e6,
    }
    if traced:
        # The breakdown is one more checked unit: its parts must add up.
        walls = [p.wall for p, _ in traced]
        p, layers = traced[tracing.median_pass(walls)]
        attempted += 1
        if not tracing.check_sum(layers):
            failed += 1
            problems.append("span self times do not add up to the traced wall time")
        overhead_s = statistics.median(walls) - statistics.median(result["walls"])
        result["layers"] = layer_metrics(raw, args.workload, p, layers, overhead_s)
        result["traced_walls"] = walls
    result.update(attempted=attempted, failed=failed, problems=problems[:PROBLEMS_KEPT])
    return result


def layer_metrics(raw: dict, workload: str, p: Pass, layers: dict, overhead_s: float) -> dict:
    """Adds the counts taken from the traced pass's outputs to its span metrics."""
    per_episode = raw["trace"]["episodes"] if workload == "calibrate" else raw["sweep"]["episodes"]
    sweep_rounds = 0 if workload == "calibrate" else p.verdict.rounds
    return {
        **layers,
        "oracle.builds_per_episode": layers["oracle.EpisodeOracle.calls"] / per_episode,
        "engine.rounds": sweep_rounds,
        "head.rows_per_round": layers["head.forward_batch.rows"] / sweep_rounds if sweep_rounds else 0.0,
        "cli.rounds_jsonl.bytes": p.files.get("rounds.jsonl", 0),
        "cli.episodes_jsonl.bytes": p.files.get("episodes.jsonl", 0),
        "cli.traces_jsonl.bytes": p.files.get("traces.jsonl", 0),
        "cli.dataset_bin.bytes": p.files.get("dataset.bin", 0),
        "trace.overhead_s": overhead_s,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--inputs", type=Path)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--result", type=Path)
    args = parser.parse_args()
    # Set-up is serial; eval's worker processes inherit the measure worker's CPUs.
    jobs = JOBS.get(args.workload, 1) if args.role == "measure" else 1
    os.sched_setaffinity(0, hostspeed.cpus(jobs))
    if args.role == "setup":
        return setup(args)
    args.result.write_text(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
