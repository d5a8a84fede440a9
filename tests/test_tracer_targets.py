"""The benchmark tracer's patch targets: a refactor must not silently darken a live span.

The tracer replaces ``module.attribute`` for each entry of its ``PATCHES``
and skips a target that does not exist without a word. So every target
must exist, except the ones whose code is already gone.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Targets whose code was removed or renamed before this check existed.
# Dropping them from PATCHES keeps this test passing.
DEAD_TARGETS = {
    ("wisv.cli", "run_episode"),
    ("wisv.labeler", "EpisodeOracle"),
    ("wisv.engine", "sd_greedy_round"),
    ("wisv.engine", "wisv_round"),
    ("wisv.engine", "sd_reject_round"),
    ("wisv.engine", "forward_batch"),
    ("wisv.engine", "comm_latency_fh"),
    ("wisv.engine", "comm_latency_sh"),
    ("wisv.engine", "single_exchange_latency"),
    ("wisv.engine", "token_uplink_bits"),
    ("wisv.engine", "reject_uplink_bits"),
    ("wisv.engine", "feedback_bits"),
    ("wisv.engine", "draft_round_flops"),
    ("wisv.engine", "verify_round_flops"),
}


def load_tracer(monkeypatch):
    """The tracer module, loaded from its file without writing bytecode beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_live_patch_target_exists(monkeypatch):
    targets = {(module, attribute) for module, attribute, _ in load_tracer(monkeypatch).PATCHES}
    missing = {(module, attribute) for module, attribute in targets
               if not hasattr(importlib.import_module(module), attribute)}
    assert missing <= DEAD_TARGETS, sorted(missing - DEAD_TARGETS)
    # Not vacuous: the spans of eval's episodes, of the trace files and of
    # the ledger's compute are checked.
    assert {("wisv.cli", "_eval_point"), ("wisv.cli", "write_traces"),
            ("wisv.cli", "read_traces"), ("wisv.engine", "head_flops"),
            ("wisv.engine", "exec_time"), ("wisv.engine", "round_latency")} <= targets - missing
