"""Host-cost benchmark of the wisv simulator.

    python3 perfbench/run.py --workload {calibrate,sweep_static,sweep_dynamic}
        [--seed N] [--seconds S] [--trace 0|1] [--tiny]

Run it from the repository root; it imports wisv from ``src/`` and writes only
under ``.perfbench_work/``. The workloads are wisv configs in
``perfbench/workloads/``; ``--seed`` (default: the config seed 20240101) is
passed to wisv as its master seed.

* calibrate: ``trace`` -> ``relabel`` -> ``train``. Exercises the labeler,
  head training and the light oracle; calls no engine, wire, compute or
  metrics code.
* sweep_static: ``eval``, serial, on the paper's default grid.
* sweep_dynamic: ``eval --jobs 2`` over wisv_fh, wisv_sh and wisv_adaptive
  on static, two-state and sampled links with small windows.

Set-up (a fresh interpreter that imports wisv, loads the config and, for the
sweeps, runs trace -> relabel -> train to build head.bin) runs several times
and reports its median. Then one process runs an untimed warm-up pass and
timed passes in a closed loop until ``--seconds`` of timed work are done.
Every pass's outputs are checked and digested; the digest must not change
between passes, serial or parallel.

The shared host's speed drifts by tens of percent over minutes, so every
time the end-to-end metrics report is scaled to a fixed host speed: a
reference job that does not touch wisv is timed before and after each timed
section, and the section's seconds are scaled by it (see hostspeed.py). The
raw seconds are kept in the record line.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics,
with tracing off. With ``--trace 1`` it reports the per-layer metrics of a
traced pass (see tracer.py), all passes serial. The line before it records
the machine, the seed, the output digest and any problems found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

import checks
import hostspeed
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("calibrate", "sweep_static", "sweep_dynamic")
DEFAULT_SEED = 20240101
# Set-up runs at least SETUPS times and until SETUP_S seconds are spent, at
# most MAX_SETUPS times: calibrate's set-up is a fraction of a second.
SETUPS = 3
SETUP_S = 2.0
MAX_SETUPS = 10
# Reference jobs timed between set-ups; a set-up is short, so one reference
# job on each side would leave its scale noisy.
SETUP_REFS = 3
# Every run, set-up included, must end well inside three minutes.
DEADLINE_S = 170.0
# --tiny: episode counts small enough for the smoke test.
TINY = {"trace": {"episodes": 20}, "train": {"epochs": 2}, "sweep": {"episodes": 2}}
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def run_worker(argv: list[str], deadline: float, env: dict) -> None:
    """Runs worker.py to completion; on timeout kills its whole process group."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {argv[0]} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {argv[0]} exited with {proc.returncode}: {err.strip()[-2000:]}")


def workload_config(workload: str, tiny: bool, work: Path) -> Path:
    config = HERE / "workloads" / f"{workload}.yaml"
    if not tiny:
        return config
    raw = yaml.safe_load(config.read_text())
    for section, values in TINY.items():
        raw.setdefault(section, {}).update(values)
    config = work / "config.yaml"
    config.write_text(yaml.safe_dump(raw))
    return config


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def bench(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    env = {**os.environ, "TMPDIR": str(work / "tmp")}
    config = workload_config(args.workload, args.tiny, work)
    common = ["--workload", args.workload, "--config", str(config), "--seed", str(args.seed)]

    setup_s, scaled_setup_s, digests = [], [], []
    # hostspeed.cpus(1) is the CPU worker.py holds a set-up to.
    scale = hostspeed.Scale(hostspeed.cpus(1), repeats=SETUP_REFS)

    def another_setup() -> bool:
        if args.trace:
            return not setup_s
        return len(setup_s) < SETUPS or (sum(setup_s) < SETUP_S and len(setup_s) < MAX_SETUPS)

    while another_setup():
        out = work / f"setup{len(setup_s)}"
        out.mkdir()
        t0 = time.perf_counter()
        run_worker(["setup", *common, "--out", str(out)], deadline, env)
        setup_s.append(time.perf_counter() - t0)
        scaled_setup_s.append(scale.section(setup_s[-1]))
        digests.append(checks.digest(out))
    result_path = work / "result.json"
    run_worker(
        [
            "measure", *common,
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--inputs", str(work / "setup0"),
            "--work", str(work),
            "--result", str(result_path),
        ],
        deadline,
        env,
    )
    res = json.loads(result_path.read_text())
    res["attempted"] += len(digests)
    setup_mismatches = sum(d != digests[0] for d in digests)
    if setup_mismatches:
        res["failed"] += setup_mismatches
        res["problems"].append(f"{setup_mismatches} set-up runs wrote other bytes than the first")

    walls = res["scaled_walls"]
    if args.trace:
        metrics = {name: (res["layers"][name], unit) for name, unit in tracing.LAYER_UNITS.items()}
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(scaled_setup_s),
            "sim_rounds_per_s": statistics.median(res["rounds"] / w for w in walls),
            "peak_rss_mb": res["peak_rss_mb"],
            "output_mb": res["output_bytes"] / 1e6,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "commit": git_commit(),
        "digest": res["digest"],
        "setup_s": setup_s,
        "scaled_setup_s": scaled_setup_s,
        "walls_s": res["walls"],
        "scaled_walls_s": walls,
        "reference_s": res["refs"],
        "traced_walls_s": res.get("traced_walls", []),
        "rounds": res["rounds"],
        "problems": res["problems"],
    }
    summary = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return record, summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test episode counts")
    args = parser.parse_args()
    if not (ROOT / "src" / "wisv" / "__init__.py").is_file():
        print(f"perfbench: no wisv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record, summary = bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
