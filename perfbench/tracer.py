"""Spans around calls into wisv, recorded from outside the package.

wisv modules bind the names they import, so a call is traced by replacing
the attribute in the module that makes the call (``wisv.engine.forward_batch``,
not ``wisv.head.forward_batch``). Spans stay in memory as
``[name, parent index, start, end]``; a span's self time is its duration
minus the durations of its direct children, so the self times of all span
names plus the root's own self time add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter, defaultdict

ROOT = "pass"

# (module that makes the call, attribute it binds, span name). Several
# attributes may share a span name: wire and compute are reported per module.
PATCHES = [
    ("wisv.cli", "main", "cli.main"),
    ("wisv.cli", "cmd_trace", "cli.cmd_trace"),
    ("wisv.cli", "cmd_relabel", "cli.cmd_relabel"),
    ("wisv.cli", "cmd_train", "cli.cmd_train"),
    ("wisv.cli", "cmd_eval", "cli.cmd_eval"),
    ("wisv.cli", "_eval_point", "cli.eval_point"),
    ("wisv.cli", "collect_traces", "labeler.collect_traces"),
    ("wisv.cli", "write_traces", "labeler.write_traces"),
    ("wisv.cli", "read_traces", "labeler.read_traces"),
    ("wisv.cli", "relabel", "labeler.relabel"),
    ("wisv.cli", "write_dataset", "labeler.write_dataset"),
    ("wisv.cli", "read_dataset", "labeler.read_dataset"),
    ("wisv.cli", "train", "head.train"),
    ("wisv.cli", "load_params", "head.load_params"),
    ("wisv.cli", "generate_trace", "channel.generate_trace"),
    ("wisv.cli", "run_episode", "engine.run_episode"),
    ("wisv.cli", "summarize", "metrics.summarize"),
    ("wisv.labeler", "EpisodeOracle", "oracle.EpisodeOracle"),
    ("wisv.engine", "EpisodeOracle", "oracle.EpisodeOracle"),
    ("wisv.engine", "sd_greedy_round", "engine.sd_greedy_round"),
    ("wisv.engine", "wisv_round", "engine.wisv_round"),
    ("wisv.engine", "sd_reject_round", "engine.sd_reject_round"),
    ("wisv.engine", "forward_batch", "head.forward_batch"),
    ("wisv.engine", "comm_latency_fh", "wire"),
    ("wisv.engine", "comm_latency_sh", "wire"),
    ("wisv.engine", "single_exchange_latency", "wire"),
    ("wisv.engine", "token_uplink_bits", "wire"),
    ("wisv.engine", "reject_uplink_bits", "wire"),
    ("wisv.engine", "feedback_bits", "wire"),
    ("wisv.engine", "draft_round_flops", "compute"),
    ("wisv.engine", "verify_round_flops", "compute"),
    ("wisv.engine", "head_flops", "compute"),
    ("wisv.engine", "exec_time", "compute"),
    ("wisv.engine", "round_latency", "compute"),
]
SPANS = list(dict.fromkeys(span for _, _, span in PATCHES))
ROWS_SPAN = "head.forward_batch"
EPISODE_SPAN = "engine.run_episode"

# Per-layer metrics a traced pass reports, with their units. Counts repeat
# exactly from run to run; times do not.
LAYER_UNITS = {
    **{f"{span}.self_s": "s" for span in SPANS},
    **{f"{span}.calls": "count" for span in SPANS},
    "oracle.builds_per_episode": "builds/episode",
    "engine.rounds": "count",
    "engine.run_episode.p50_ms": "ms",
    "engine.run_episode.p99_ms": "ms",
    "head.forward_batch.rows": "count",
    "head.rows_per_round": "rows/round",
    "cli.rounds_jsonl.bytes": "count",
    "cli.episodes_jsonl.bytes": "count",
    "cli.traces_jsonl.bytes": "count",
    "cli.dataset_bin.bytes": "count",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records one span per traced call, plus the rows the head screens."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.rows = 0
        self._stack = [-1]

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if name == ROWS_SPAN:
                self.rows += len(args[1] if len(args) > 1 else kwargs["z"])
            span = [name, stack[-1], 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def metrics(self) -> dict[str, float]:
        """Self time and calls per span name; the root span is the remainder."""
        child = [0.0] * len(self.spans)
        for _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, _, t0, t1) in enumerate(self.spans):
            self_s[name] += (t1 - t0) - child[i]
            calls[name] += 1
        roots = [t1 - t0 for name, parent, t0, t1 in self.spans if name == ROOT]
        if len(roots) != 1:
            raise ValueError(f"expected one {ROOT!r} span, found {len(roots)}")
        out = {}
        for span in SPANS:
            out[f"{span}.self_s"] = self_s[span]
            out[f"{span}.calls"] = calls[span]
        episode_ms = sorted(
            1e3 * (t1 - t0) for name, _, t0, t1 in self.spans if name == EPISODE_SPAN
        )
        out["engine.run_episode.p50_ms"] = _percentile(episode_ms, 50)
        out["engine.run_episode.p99_ms"] = _percentile(episode_ms, 99)
        out["head.forward_batch.rows"] = self.rows
        out["trace.wall_s"] = roots[0]
        out["trace.unattributed_s"] = self_s[ROOT]
        return out


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when nothing was sampled."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route every call listed in PATCHES through ``tracer`` while active.

    An attribute that no longer exists is skipped, so its metrics read 0.
    The CLI dispatches stages through its ``COMMANDS`` table, which holds
    the functions themselves, so its entries are replaced as well.
    """
    commands = getattr(importlib.import_module("wisv.cli"), "COMMANDS", {})
    saved_commands = dict(commands)
    saved: list[tuple[object, str, object]] = []
    wrapped: dict[int, object] = {}
    try:
        for module_name, attr, span in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved.append((module, attr, fn))
            wrapped[id(fn)] = tracer.wrap(span, fn)
            setattr(module, attr, wrapped[id(fn)])
        for stage, fn in saved_commands.items():
            commands[stage] = wrapped.get(id(fn), fn)
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
        commands.update(saved_commands)


def median_pass(walls: list[float]) -> int:
    """Index of the pass whose wall time is the (lower) median."""
    order = sorted(range(len(walls)), key=walls.__getitem__)
    return order[(len(order) - 1) // 2]


def check_sum(metrics: dict[str, float]) -> bool:
    """Self times plus the unattributed remainder equal the traced wall time."""
    total = sum(metrics[f"{span}.self_s"] for span in SPANS) + metrics["trace.unattributed_s"]
    return abs(total - metrics["trace.wall_s"]) <= 1e-9 * max(1.0, metrics["trace.wall_s"])

