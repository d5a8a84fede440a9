"""Output checks and digests for the benchmark's workloads.

wisv's outputs are a pure function of (config, seed), so every pass of a
workload must write the same bytes; ``digest`` fingerprints them. The
``verify_*`` functions check invariants that hold for any seed and count
the stages or sweep points whose outputs break one of them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

# Setup artifacts that the sweeps read from their output directory.
INPUTS = ("head.bin", "head.bin.json")
CALIBRATION_STAGES = ("trace", "relabel", "train")
FH_SH_COLUMNS = ("aal", "rounds", "accuracy_proxy")


@dataclass
class Verdict:
    """Units (stages or sweep points) attempted, those that failed, and why."""

    units: list
    failed: set = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    rounds: int = 0

    def fail(self, units, why: str) -> None:
        self.failed.update(units)
        self.problems.append(why)


def digest(out: Path) -> str:
    """SHA-256 over every file's name, size and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.iterdir() if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def output_bytes(out: Path, inputs: list[str]) -> dict[str, int]:
    """Size of each file the workload wrote, leaving out the inputs copied in."""
    return {
        p.name: p.stat().st_size for p in sorted(out.iterdir()) if p.is_file() and p.name not in inputs
    }


def sweep_grid(raw: dict) -> list[tuple]:
    """Sweep points in the order ``wisv eval`` writes them."""
    sweep = raw["sweep"]
    return [
        (scenario["name"], mode, k, tau)
        for scenario in sweep["scenarios"]
        for mode in sweep["modes"]
        for k in sweep["k_values"]
        for tau in sweep["tau_values"]
    ]


def verify_sweep(raw: dict, out: Path, exit_code: int) -> Verdict:
    grid = sweep_grid(raw)
    verdict = Verdict(units=grid)
    if exit_code != 0:
        verdict.fail(grid, f"eval exited with code {exit_code}")
        return verdict
    try:
        _check_sweep(raw, out, grid, verdict)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        verdict.fail(grid, f"unreadable eval outputs: {type(exc).__name__}: {exc}")
    return verdict


def _check_sweep(raw: dict, out: Path, grid: list[tuple], verdict: Verdict) -> None:
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(grid):
        verdict.fail(grid, f"results.csv has {len(rows)} rows for {len(grid)} sweep points")
        return
    for row, point in zip(rows, grid):
        _, mode, k, tau = point
        if (row["mode"], int(row["k"]), float(row["tau"])) != (mode, k, tau):
            verdict.fail([point], f"results.csv row {row['mode']},{row['k']} out of grid order")
        elif not all(math.isfinite(float(v)) for c, v in row.items() if c != "mode"):
            verdict.fail([point], f"non-finite value in results.csv row {point}")

    by_point = dict(zip(grid, rows))
    for point, row in by_point.items():
        scenario, mode, k, tau = point
        twin = (scenario, "wisv_sh", k, tau)
        if mode == "wisv_fh" and twin in by_point:
            for column in FH_SH_COLUMNS:
                if row[column] != by_point[twin][column]:
                    verdict.fail([point, twin], f"wisv_fh and wisv_sh differ on {column} at {point}")

    accepted: dict[tuple, int] = defaultdict(int)
    episodes: Counter = Counter()
    with open(out / "episodes.jsonl") as fh:
        for line in fh:
            rec = json.loads(line)
            point = (rec["scenario"], rec["mode"], rec["k"], rec["tau"])
            accepted[point] += rec["accepted"]
            episodes[point] += 1
            verdict.rounds += rec["rounds"]
    for point, row in by_point.items():
        n = episodes[point]
        if n != raw["sweep"]["episodes"]:
            verdict.fail([point], f"{n} episode records for {point}")
            continue
        pooled = float(row["throughput"]) * float(row["latency_s"]) * n
        if not math.isclose(pooled, accepted[point], rel_tol=1e-9):
            verdict.fail([point], f"throughput x latency x episodes {pooled} != accepted {accepted[point]} at {point}")

    with open(out / "rounds.jsonl", "rb") as fh:
        n_rounds = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    if n_rounds != verdict.rounds:
        verdict.fail(grid, f"rounds.jsonl has {n_rounds} records, episodes.jsonl counts {verdict.rounds}")


def verify_calibration(raw: dict, out: Path, exit_codes: list[int]) -> Verdict:
    verdict = Verdict(units=list(CALIBRATION_STAGES))
    for stage, code in zip(CALIBRATION_STAGES, exit_codes):
        if code != 0:
            verdict.fail([stage], f"{stage} exited with code {code}")
    try:
        verdict.rounds = greedy_rounds(raw, out / "traces.jsonl")
    except (OSError, ValueError, KeyError) as exc:
        verdict.fail(["trace"], f"traces.jsonl: {type(exc).__name__}: {exc}")
    try:
        manifest = json.loads((out / "dataset_manifest.json").read_text())
        data = (out / "dataset.bin").read_bytes()
        n, d = int.from_bytes(data[4:8], "little"), int.from_bytes(data[8:12], "little")
        if manifest["instances"] != n or len(data) != 12 + 4 * (n * d + n):
            verdict.fail(["relabel"], f"manifest counts {manifest['instances']} instances, dataset.bin holds {n}")
    except (OSError, ValueError, KeyError) as exc:
        verdict.fail(["relabel"], f"dataset: {type(exc).__name__}: {exc}")
    try:
        report = json.loads((out / "train_report.json").read_text())
        if not (out / "head.bin").is_file() or not all(
            math.isfinite(v) for v in report["epoch_losses"] + [report["holdout_auc"]]
        ):
            verdict.fail(["train"], "missing head.bin or non-finite training loss or AUC")
    except (OSError, ValueError, KeyError) as exc:
        verdict.fail(["train"], f"train report: {type(exc).__name__}: {exc}")
    return verdict


def greedy_rounds(raw: dict, traces: Path) -> int:
    """Rounds the greedy trace collection ran, replayed from its mismatches.

    Each round drafts ``window`` tokens from the frontier; it stops at the
    first recorded mismatch inside the window, or else commits the window
    plus one bonus token. The recorded positions therefore fix every round,
    and a position the replay cannot reach means the trace file is wrong.
    """
    eng = raw["engine"]
    window, budget, prefix = eng["window"], eng["max_tokens"], eng["prefix_len"]
    positions: dict[int, list[int]] = defaultdict(list)
    with open(traces) as fh:
        for line in fh:
            rec = json.loads(line)
            positions[rec["episode"]].append(rec["position"])
    n_episodes = raw["trace"]["episodes"]
    if set(positions) - set(range(n_episodes)):
        raise ValueError("episode id outside the configured episode count")
    rounds = 0
    for ep in range(n_episodes):
        pending = iter(positions.get(ep, []))
        nxt = next(pending, None)
        frontier, committed = prefix, 0
        while committed < budget:
            if nxt is not None and nxt < frontier:
                raise ValueError(f"episode {ep}: mismatch at {nxt} behind frontier {frontier}")
            if nxt is not None and nxt < frontier + window:
                step = nxt - frontier + 1
                nxt = next(pending, None)
            else:
                step = window + 1
            frontier += step
            committed += step
            rounds += 1
        if nxt is not None:
            raise ValueError(f"episode {ep}: mismatch at {nxt} past the token budget")
    return rounds
