import concurrent.futures
import copy
import csv
import dataclasses
import io
import json
import multiprocessing
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from single_episode import one_episode

from wisv import cli, engine, wire
from wisv.channel import CsiState, NormalizationBounds, generate_trace
from wisv.cli import (
    ABLATE_CSV,
    ABLATE_META,
    DATASET,
    DATASET_MANIFEST,
    EPISODES_JSONL,
    HEAD,
    PLOT_DATA,
    RESULTS,
    RESULTS_META,
    ROUNDS_JSONL,
    TRACES,
    TRACES_HIDDEN,
    TRACES_META,
    cmd_eval,
    cmd_relabel,
    cmd_trace,
    cmd_train,
    main,
)
from wisv.columns import read_columns, write_columns
from wisv.config import (
    SEED_CHANNEL,
    SEED_EVAL,
    SEED_TRAIN,
    DEFAULT_CONFIG,
    ExperimentConfig,
    config_hash,
)
from wisv.engine import MODES
from wisv.head import INFERENCE_CHUNK, HeadParams, TrainConfig, forward_batch, train
from wisv.labeler import RelabelConfig, read_dataset, read_traces, write_traces
from wisv.metrics import EpisodeTotals, summarize
from wisv.oracle import OracleConfig
from wisv.wire import WireConfig

SMALL_OVERRIDES = {
    "trace": {"episodes": 50},
    "train": {"epochs": 5, "hidden_dim": 16},
    "engine": {"max_tokens": 120},
    "sweep": {
        "episodes": 6,
        "k_values": [10, 16],
        "tau_values": [0.9],
        "modes": ["sd_greedy", "sd_reject", "wisv_fh", "wisv_sh"],
        "scenarios": [
            {"name": "500mbps_50ms", "rate_up_bps": 500e6, "rate_down_bps": 500e6, "rtt_s": 0.05},
            {"name": "20mbps_5ms", "rate_up_bps": 20e6, "rate_down_bps": 20e6, "rtt_s": 0.005},
        ],
    },
    # At this tau the heads reject some mismatches, so the two variants differ.
    "ablate": {"episodes": 20, "k": 10, "tau": 0.5, "scenarios": ["20mbps_5ms"]},
}


EVAL_FILES = (RESULTS, RESULTS_META, EPISODES_JSONL, ROUNDS_JSONL, PLOT_DATA)
# The results.csv header, as README gives it; ablate.csv puts "variant" first.
RESULTS_COLUMNS = ("mode,k,tau,rate_bps,rtt_s,aal,rounds,latency_s,throughput,accuracy_proxy,"
                   "uplink_bits,downlink_bits").split(",")


def derived_config(cfg, **sweep):
    """``cfg`` with some sweep keys replaced, validated."""
    raw = copy.deepcopy(cfg.raw)
    raw["sweep"].update(sweep)
    out = ExperimentConfig(raw=raw)
    out.validate()
    return out


def copy_artifacts(src, dst, names=(HEAD, HEAD + ".json")):
    dst.mkdir(parents=True, exist_ok=True)
    for name in names:
        (dst / name).write_bytes((src / name).read_bytes())


ROUND_COLUMNS = ["m", "reject_pos", "accepted", "committed", "proto", "uplink_bits",
                 "downlink_bits", "draft_s", "verify_s", "head_s", "comm_s", "total_s",
                 "accepted_critical"]


def reference_round_lines(key, bill):
    """One episode's round lines, one ``json.dumps`` per round of every bill column.

    ``bill`` is the episode's own bill, a batch of one.
    """
    comm = bill.comm
    columns = [bill.m, bill.reject_pos, bill.accepted, bill.accepted + 1, bill.proto,
               comm.uplink_bits, comm.downlink_bits, bill.draft_s, bill.verify_s,
               bill.head_s, comm.total_s, bill.total_s, bill.accepted_critical]
    lines = ""
    for r, values in enumerate(zip(*(c.tolist() for c in columns))):
        record = dict(zip(ROUND_COLUMNS, values))
        record["reject_pos"] = None if record["reject_pos"] < 0 else record["reject_pos"]
        record["proto"] = wire.PROTO_NAMES[record["proto"]]
        lines += json.dumps({**key, "round": r, **record}, separators=(",", ":")) + "\n"
    return lines


def write_config(tmp_path, overrides=None):
    path = tmp_path / "config.yaml"
    with open(path, "w") as fh:
        yaml.safe_dump(overrides if overrides is not None else SMALL_OVERRIDES, fh)
    return path


# YAML text holding an exponent that lacks a dot or an exponent sign, which
# PyYAML reads as a string: (text, dotted key, the string).
EXPONENT_TEXT = [
    ("normalization: {r_max_bps: 1e9}", "normalization.r_max_bps", "1e9"),
    ("train: {learning_rate: 3e-3}", "train.learning_rate", "3e-3"),
    ("labeler: {rho: 1e-1}", "labeler.rho", "1e-1"),
    ("labeler: {channel: {rtt_s: 5e-2}}", "labeler.channel.rtt_s", "5e-2"),
    ("compute: {device: {peak_flops: 1e13}}", "compute.device.peak_flops", "1e13"),
    ("oracle: {p_crit: 3e-1}", "oracle.p_crit", "3e-1"),
    ("engine: {adaptive_rtt_cutoff_s: 1e-2}", "engine.adaptive_rtt_cutoff_s", "1e-2"),
    ("sweep: {tau_values: [9e-1]}", "sweep.tau_values[0]", "9e-1"),
    ("sweep: {scenarios: [{name: a, rate_up_bps: 5e8}]}\nablate: {scenarios: [a]}",
     "sweep.scenarios[0].rate_up_bps", "5e8"),
    ("sweep: {scenarios: [{name: a, regime: sampled, rtt_range_s: [0.002, 6e-2]}]}\n"
     "ablate: {scenarios: [a]}", "sweep.scenarios[0].rtt_range_s[1]", "6e-2"),
    ("ablate: {tau: 95e-2}", "ablate.tau", "95e-2"),
    ("sweep: {scenarios: [{name: a, rate_down_bps: 5.0e8}]}\nablate: {scenarios: [a]}",
     "sweep.scenarios[0].rate_down_bps", "5.0e8"),
]


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One small trace->relabel->train run shared by read-only tests."""
    out = tmp_path_factory.mktemp("small_run")
    cfg_path = write_config(out, SMALL_OVERRIDES)
    cfg = ExperimentConfig.load(cfg_path)
    cmd_trace(cfg, out)
    cmd_relabel(cfg, out)
    cmd_train(cfg, out)
    return cfg, out


class TestConfig:
    def test_defaults_validate(self):
        cfg = ExperimentConfig.load()
        assert cfg.raw == DEFAULT_CONFIG

    def test_seed_override_changes_hash(self, tmp_path):
        path = write_config(tmp_path)
        a = ExperimentConfig.load(path)
        b = ExperimentConfig.load(path, seed=999)
        assert a.hash != b.hash
        assert b.seed == 999

    def test_hash_stable(self):
        assert config_hash(DEFAULT_CONFIG) == config_hash(json.loads(json.dumps(DEFAULT_CONFIG)))

    def test_unknown_preset_rejected(self, tmp_path):
        path = write_config(tmp_path, {"compute": {"preset": "gpt-99"}})
        with pytest.raises(ValueError, match="preset"):
            ExperimentConfig.load(path)

    @pytest.mark.parametrize(
        "preset, widths, uplink_bits",
        [
            ("llama-1b-8b", (2048, 128256, 17, 6149), (490, 20521450, 328170)),
            ("qwen-0.5b-7b", (896, 151936, 18, 4485), (500, 24310260, 143860)),
        ],
    )
    def test_preset_sets_billed_widths(self, tmp_path, preset, widths, uplink_bits):
        # The uplink carries the preset drafter's hidden states and token IDs,
        # and the head is billed at the preset's widths.
        path = write_config(tmp_path, {"compute": {"preset": preset}})
        system = ExperimentConfig.load(path).system()
        w = system.wire
        assert (w.d_h, w.vocab_size, w.b_id, system.head_d_in) == widths
        protos = np.array([wire.PROTO_TOKENS, wire.PROTO_DENSE, wire.PROTO_FH])
        comm = wire.round_comm(w, 10, protos, np.zeros(3, dtype=int),
                               CsiState(500e6, 500e6, 0.0, 0.0, 0.05))
        assert tuple(comm.uplink_bits.tolist()) == uplink_bits

    def test_empty_grid_rejected(self, tmp_path):
        path = write_config(tmp_path, {"sweep": {"k_values": []}})
        with pytest.raises(ValueError, match="k_values"):
            ExperimentConfig.load(path)

    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"sweep": {"episods": 5}}, "sweep.episods"),
            ({"enigne": {"window": 8}}, "enigne"),
            ({"compute": {"device": {"peak_flop": 1e12}}}, "compute.device.peak_flop"),
            ({"channel": {"rate_bps": 1e6}}, "channel"),
            ({"labeler": {"b_min": 0}}, "labeler.b_min"),
            ({"labeler": {"channel": {"regim": "static"}}}, "labeler.channel.regim"),
            ({"sweep": {"scenarios": [{"name": "a", "rtt_s": 0.01},
                                      {"name": "b", "rtt": 0.01}]}}, "sweep.scenarios[1].rtt"),
            ({"engine": {"tau": 0.9}}, "engine.tau"),
            ({"wire": {"d_h": 896}}, "wire.d_h"),
            ({"wire": {"vocab_size": 151936}}, "wire.vocab_size"),
            ({"compute": {"head": {"d_in": 4485}}}, "compute.head.d_in"),
        ],
    )
    def test_unknown_key_rejected(self, tmp_path, overrides, path):
        with pytest.raises(ValueError, match=re.escape(repr(path))):
            ExperimentConfig.load(write_config(tmp_path, overrides))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"sweep": {"episodes": 0}}, "'sweep.episodes' must be a positive integer"),
            ({"trace": {"episodes": 0}}, "'trace.episodes' must be a positive integer"),
            ({"ablate": {"episodes": 2.5}}, "'ablate.episodes' must be a positive integer"),
            ({"labeler": {"csi_samples_per_episode": 0}},
             "'labeler.csi_samples_per_episode' must be a positive integer"),
            ({"sweep": {"k_values": [0]}}, "k=0, tau=0.9: window must be an integer >= 1"),
            ({"sweep": {"k_values": [10.5]}}, "window must be an integer"),
            ({"sweep": {"modes": ["sd_grredy"]}}, "unknown mode 'sd_grredy'"),
            ({"sweep": {"tau_values": [1.5]}}, "tau=1.5: tau must lie in (0, 1)"),
            ({"ablate": {"k": 0}}, "mode='wisv_fh', k=0"),
            ({"sweep": {"k_values": [10, 16, 10]}}, "'k_values' repeats a value"),
            ({"sweep": {"k_values": 10}}, "'k_values' must be a nonempty list"),
            ({"sweep": 5}, "section 'sweep' must be a mapping, got int"),
            ({"compute": {"device": [1]}}, "section 'compute.device' must be a mapping"),
            ({"sweep": {"scenarios": [{"name": "a"}, 5]}}, "'sweep.scenarios[1]' must be a mapping"),
            ({"sweep": {"scenarios": [{"rtt_s": 0.01}]}}, "with a 'name'"),
            ({"sweep": {"scenarios": [{"name": "a"}, {"name": "a"}]}},
             "'scenarios' repeats a value"),
            ({"sweep": {"scenarios": [{"name": "a", "regime": "two_state"}]}},
             "'sweep.scenarios[0].regime' must be one of"),
            ({"labeler": {"channel": {"regime": "fading"}}}, "'labeler.channel.regime'"),
            ({"train": {"holdout_fraction": -0.2}}, "'train.holdout_fraction' must lie in (0, 1)"),
            ({"train": {"holdout_fraction": 0.0}}, "'train.holdout_fraction' must lie in (0, 1)"),
            ({"train": {"holdout_fraction": 1.0}}, "'train.holdout_fraction' must lie in (0, 1)"),
            ({"train": {"holdout_fraction": "0.2"}}, "'train.holdout_fraction' must lie in (0, 1)"),
            ({"ablate": {"episodes": 1}}, "'ablate.episodes' must be at least 2"),
            ({"sweep": {"scenarios": [{"name": "a", "regime": "sampled",
                                       "rtt_range_s": [-0.01, 0.0]}]}},
             "section 'sweep.scenarios[0]': a sampled range leaves the link's domain: "
             "rtt must be nonnegative"),
            ({"sweep": {"scenarios": [{"name": "a"}, {"name": "b", "rate_up_bps": -5e8}]}},
             "section 'sweep.scenarios[1]': link rates must be strictly positive"),
            ({"sweep": {"scenarios": [{"name": "a", "regime": "sampled",
                                       "per_up_range": [0.2, 0.1]}]}},
             "section 'sweep.scenarios[0]': per_up_range must have lo <= hi"),
            ({"labeler": {"channel": {"switch_prob": 0.5}}},
             "section 'labeler.channel': switch_prob ('labeler.channel.switch_prob') does nothing "
             "for relabeling"),
            ({"labeler": {"channel": {"per_up": 1.2}}},
             "section 'labeler.channel': packet error rates must lie in [0, 1)"),
            ({"sweep": {"scenarios": [{"name": "a", "regime": "two-state",
                                       "alt_rate_up_bps": 2e7, "switch_prob": 1.5}]}},
             "section 'sweep.scenarios[0]': switch_prob must lie in [0, 1]"),
            ({"sweep": {"scenarios": [{"name": "a", "rtt_s": float("inf")}]}},
             "section 'sweep.scenarios[0]': rtt must be finite"),
            ({"sweep": {"scenarios": [{"name": "a", "rate_up_bps": float("nan")}]}},
             "section 'sweep.scenarios[0]': r_up must be finite"),
            ({"ablate": {"scenarios": []}}, "'ablate.scenarios' must be a nonempty list"),
            ({"ablate": {"scenarios": "20mbps_50ms"}}, "'ablate.scenarios' must be a nonempty list"),
            ({"ablate": {"scenarios": ["20mbps_50ms", "20mbps_50ms"]}},
             "'ablate.scenarios' repeats a value"),
            ({"train": {"dropout": 1.0}}, "dropout must lie in [0, 1), got 1.0"),
            ({"train": {"dropout": -0.1}}, "dropout must lie in [0, 1), got -0.1"),
            ({"train": {"dropout": 1.5}}, "dropout must lie in [0, 1), got 1.5"),
            ({"engine": {"adaptive_rtt_cutoff_s": float("nan")}},
             "'engine.adaptive_rtt_cutoff_s' must be finite, got nan"),
            ({"train": {"learning_rate": float("nan")}},
             "'train.learning_rate' must be finite, got nan"),
            ({"wire": {"b_h": float("inf")}}, "'wire.b_h' must be finite, got inf"),
            ({"compute": {"device": {"peak_flops": float("nan")}}},
             "'compute.device.peak_flops' must be finite, got nan"),
            ({"compute": {"constants": {"c1": float("nan")}}},
             "'compute.constants.c1' must be finite, got nan"),
            ({"oracle": {"sep": float("nan")}}, "'oracle.sep' must be finite, got nan"),
            ({"labeler": {"rho": float("inf")}}, "'labeler.rho' must be finite, got inf"),
            ({"compute": {"head": {"d_j": -5}}}, "'compute.head.d_j' must be a positive integer"),
            ({"compute": {"head": {"d_j": 0}}}, "'compute.head.d_j' must be a positive integer"),
            ({"compute": {"head": {"d_j": 2.5}}}, "'compute.head.d_j' must be a positive integer"),
            ({"compute": {"head": {"d_j": True}}}, "'compute.head.d_j' must be a positive integer"),
            ({"wire": {"b_h": 16.5}}, "'wire.b_h': a bit width must be an integer, got 16.5"),
            ({"wire": {"b_pos": True}}, "'wire.b_pos': a bit width must be an integer, got True"),
            ({"wire": {"hdr_up_bits": 0.5}},
             "'wire.hdr_up_bits': a header size must be an integer, got 0.5"),
            ({"train": {"epochs": 2.5}}, "'train.epochs' must be a positive integer, got 2.5"),
            ({"train": {"epochs": True}}, "'train.epochs' must be a positive integer, got True"),
            ({"train": {"hidden_dim": 64.5}},
             "'train.hidden_dim' must be a positive integer, got 64.5"),
            ({"train": {"hidden_dim": 0}}, "'train.hidden_dim' must be a positive integer, got 0"),
            ({"train": {"hidden_dim": -1}}, "'train.hidden_dim' must be a positive integer, got -1"),
            ({"train": {"batch_size": True}},
             "'train.batch_size' must be a positive integer, got True"),
            ({"sweep": {"scenarios": [{"name": "a", "rtt_range_s": [0.002, 0.06]}]},
              "ablate": {"scenarios": ["a"]}},
             "'sweep.scenarios[0].rtt_range_s' is never read by the 'static' regime"),
            ({"sweep": {"scenarios": [{"name": "a", "regime": "static", "switch_prob": 0.1,
                                       "alt_rtt_s": 0.005}]},
              "ablate": {"scenarios": ["a"]}},
             "'sweep.scenarios[0].alt_rtt_s' is never read by the 'static' regime"),
            ({"sweep": {"scenarios": [{"name": "a", "regime": "sampled", "alt_rtt_s": 0.005,
                                       "rtt_range_s": [0.002, 0.06]}]},
              "ablate": {"scenarios": ["a"]}},
             "'sweep.scenarios[0].alt_rtt_s' is never read by the 'sampled' regime"),
            ({"train": {"momentum": 1.5}}, "momentum must lie in [0, 1), got 1.5"),
            ({"train": {"momentum": 1.0}}, "momentum must lie in [0, 1), got 1.0"),
            ({"train": {"momentum": -0.1}}, "momentum must lie in [0, 1), got -0.1"),
            ({"train": {"weight_decay": -5}}, "weight_decay must be nonnegative, got -5"),
            ({"train": {"weight_decay": -1e-4}},
             "weight_decay must be nonnegative, got -0.0001"),
            ({"sweep": {"scenarios": [{"name": "fast"}, {"name": 500}]},
              "ablate": {"scenarios": ["fast"]}},
             "config key 'sweep.scenarios[1].name' must be a nonempty string, got 500"),
            ({"output_dir": True}, "config key 'output_dir' must be a path, got True"),
            ({"oracle": {"calibrate_k": 10.5}},
             "'oracle.calibrate_k' must be a positive integer, got 10.5"),
            ({"oracle": {"calibrate_k": 0}},
             "'oracle.calibrate_k' must be a positive integer, got 0"),
            ({"oracle": {"calibrate_k": True}},
             "'oracle.calibrate_k' must be a positive integer, got True"),
        ],
    )
    def test_impossible_value_rejected(self, tmp_path, overrides, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig.load(write_config(tmp_path, overrides))

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"engine": {"window": 10.5}}, "engine.window"),
            ({"engine": {"window": True}}, "engine.window"),
            ({"engine": {"max_tokens": 100.5}}, "engine.max_tokens"),
            ({"engine": {"max_tokens": True}}, "engine.max_tokens"),
            ({"engine": {"prefix_len": 8.5}}, "engine.prefix_len"),
            ({"engine": {"prefix_len": False}}, "engine.prefix_len"),
            ({"sweep": {"k_values": [True, 10]}}, "sweep.k_values"),
            ({"sweep": {"k_values": [10, 16.0]}}, "sweep.k_values"),
            ({"ablate": {"k": 10.0}}, "ablate.k"),
            ({"ablate": {"k": True}}, "ablate.k"),
            ({"oracle": {"d_h_draft": 8.5}}, "oracle.d_h_draft"),
            ({"oracle": {"d_h_target": True}}, "oracle.d_h_target"),
            ({"oracle": {"vocab_syn": 64.5}}, "oracle.vocab_syn"),
        ],
    )
    def test_integer_key_rejected(self, tmp_path, overrides, key):
        with pytest.raises(ValueError, match=re.escape(f"config key {key!r}: a ")
                           + r"\w+( \w+)? must be an integer, got"):
            ExperimentConfig.load(write_config(tmp_path, overrides))

    @pytest.mark.parametrize("seed", [1.5, True, "1", -1])
    def test_bad_seed_rejected(self, tmp_path, seed):
        # Every lineage record hashes the raw seed, so it must be the seed that runs.
        message = re.escape(f"config key 'seed' must be a nonnegative integer, got {seed!r}")
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.load(write_config(tmp_path, {"seed": seed}))
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.load(seed=seed)

    @pytest.mark.parametrize("key, overrides", [
        ("oracle.p_match", {"oracle": {"p_match": True}}),
        ("compute.device.utilization", {"compute": {"device": {"utilization": True}}}),
        ("sweep.scenarios[0].rtt_s", {"sweep": {"scenarios": [{"name": "a", "rtt_s": True}]},
                                      "ablate": {"scenarios": ["a"]}}),
        ("labeler.rho", {"labeler": {"rho": True}}),
        ("normalization.rtt_max_s", {"normalization": {"rtt_max_s": True}}),
        ("engine.adaptive_rtt_cutoff_s", {"engine": {"adaptive_rtt_cutoff_s": True}}),
    ])
    def test_boolean_rejected(self, tmp_path, key, overrides):
        # Each is a float key that would read True as 1 (a 1 s RTT, say).
        with pytest.raises(ValueError, match=re.escape(f"config key {key!r} must be a number, "
                                                       "got True")):
            ExperimentConfig.load(write_config(tmp_path, overrides))

    @pytest.mark.parametrize("key, value, overrides", [
        ("labeler.rho", None, {"labeler": {"rho": None}}),
        ("train.learning_rate", [0.003], {"train": {"learning_rate": [0.003]}}),
        ("normalization.rtt_max_s", {"s": 0.1}, {"normalization": {"rtt_max_s": {"s": 0.1}}}),
    ])
    def test_non_number_rejected(self, tmp_path, key, value, overrides):
        # The typed views would compare it and fail with a TypeError naming no key.
        with pytest.raises(ValueError, match=re.escape(f"config key {key!r} must be a number, "
                                                       f"got {value!r}")):
            ExperimentConfig.load(write_config(tmp_path, overrides))

    def test_null_allowed_only_where_a_default_is_null(self, tmp_path):
        ExperimentConfig.load(write_config(tmp_path, {
            "oracle": {"p_match": None}, "labeler": {"channel": {"alt_rtt_s": None}},
            "sweep": {"scenarios": [{"name": "a", "regime": "sampled", "rtt_range_s": None}]},
            "ablate": {"scenarios": ["a"]}}))
        with pytest.raises(ValueError, match=re.escape(
                "config key 'sweep.scenarios[0].rtt_s' must be a number, got None")):
            ExperimentConfig.load(write_config(tmp_path, {
                "sweep": {"scenarios": [{"name": "a", "rtt_s": None}]},
                "ablate": {"scenarios": ["a"]}}))

    @pytest.mark.parametrize("text, key, value", EXPONENT_TEXT,
                             ids=[key for _, key, _ in EXPONENT_TEXT])
    def test_exponent_read_as_text_rejected(self, tmp_path, text, key, value):
        # YAML reads these exponents as text; a float wants a dot and a signed exponent.
        path = tmp_path / "config.yaml"
        path.write_text(text + "\n")
        message = (f"config key {key!r} must be a number, got {value!r}; "
                   "YAML reads 5e8 as text and wants 5.0e+8")
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig.load(path)

    @pytest.mark.parametrize("span", [[0.002, 0.01, 0.06], [0.002], 0.05])
    def test_range_not_a_pair_rejected(self, tmp_path, span):
        overrides = {"sweep": {"scenarios": [{"name": "a", "regime": "sampled",
                                              "rtt_range_s": span}]},
                     "ablate": {"scenarios": ["a"]}}
        message = (f"config key 'sweep.scenarios[0].rtt_range_s' must be a [lo, hi] pair of "
                   f"numbers, got {span!r}")
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig.load(write_config(tmp_path, overrides))
        with pytest.raises(ValueError, match=re.escape("'labeler.channel.rtt_range_s' must be")):
            ExperimentConfig.load(write_config(tmp_path, {"labeler": {"channel": {
                "rtt_range_s": span}}}))

    @pytest.mark.parametrize("section, view, derived, read_elsewhere", [
        ("oracle", OracleConfig, {"seed"}, {"target_aal", "calibrate_k"}),
        ("labeler", RelabelConfig, set(), {"channel"}),
        ("train", TrainConfig, {"seed"}, {"holdout_fraction"}),
        ("wire", WireConfig, {"vocab_size", "d_h"}, set()),
        ("normalization", NormalizationBounds, set(), set()),
    ])
    def test_section_keys_are_view_fields(self, section, view, derived, read_elsewhere):
        # ``derived`` fields come from elsewhere in the config (the master seed,
        # the preset's widths); ``read_elsewhere`` keys feed a derivation or
        # another reader. A key without its field would load, hash and do nothing.
        fields = {f.name for f in dataclasses.fields(view)}
        assert DEFAULT_CONFIG[section].keys() - read_elsewhere == fields - derived

    def test_shipped_configs_load(self):
        root = Path(__file__).resolve().parents[1]
        workloads = sorted((root / "perfbench" / "workloads").glob("*.yaml"))
        assert len(workloads) == 3
        for path in [root / "configs" / "example.yaml", *workloads]:
            ExperimentConfig.load(path)
        assert ExperimentConfig.load(root / "configs" / "example.yaml").raw == DEFAULT_CONFIG

    def test_unknown_ablate_scenario_rejected(self, tmp_path):
        path = write_config(tmp_path, {"ablate": {"scenarios": ["6g_lab"]}})
        with pytest.raises(ValueError, match="6g_lab"):
            ExperimentConfig.load(path)


class TestTraceCommand:
    def test_outputs_and_stats(self, small_run):
        cfg, out = small_run
        meta = json.loads((out / TRACES_META).read_text())
        assert meta["episodes"] == 50
        assert meta["critical_fraction"] == pytest.approx(cfg.oracle().p_crit, abs=0.05)
        assert meta["config_hash"] == cfg.hash
        assert (out / TRACES).exists()

    def test_rerun_byte_identical(self, small_run, tmp_path):
        cfg, out = small_run
        cmd_trace(cfg, tmp_path)
        for name in (TRACES, TRACES_HIDDEN, TRACES_META):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes()


class TestRelabelCommand:
    def test_manifest_contents(self, small_run):
        cfg, out = small_run
        manifest = json.loads((out / DATASET_MANIFEST).read_text())
        assert manifest["feature_dim"] == cfg.feature_dim()
        assert 0.0 < manifest["positive_rate"] < 1.0
        assert manifest["config_hash"] == cfg.hash
        assert (out / DATASET).exists()

    def test_missing_traces_error(self, tmp_path):
        cfg = ExperimentConfig.load(write_config(tmp_path))
        with pytest.raises(FileNotFoundError, match="trace"):
            cmd_relabel(cfg, tmp_path)

    def test_trace_lineage_checked(self, small_run, tmp_path):
        cfg, out = small_run
        copy_artifacts(out, tmp_path, names=(TRACES, TRACES_HIDDEN))
        with pytest.raises(ValueError, match=r"no record in .*traces_meta\.json matches this run's "
                           r"config section 'seed'; rerun 'trace'"):
            cmd_relabel(cfg, tmp_path)
        copy_artifacts(out, tmp_path, names=(TRACES_META,))
        raw = copy.deepcopy(cfg.raw)
        raw["oracle"]["p_crit"] = 0.5
        with pytest.raises(ValueError, match="this run's config section 'oracle'"):
            cmd_relabel(ExperimentConfig(raw=raw), tmp_path)
        meta = json.loads((tmp_path / TRACES_META).read_text())
        raw = copy.deepcopy(cfg.raw)
        raw["engine"]["window"] += 1
        with pytest.raises(ValueError, match="this run's config section 'engine.window'"):
            cmd_relabel(ExperimentConfig(raw=raw), tmp_path)
        del meta["lineage"]["engine.max_tokens"]
        (tmp_path / TRACES_META).write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="this run's config section 'engine.max_tokens'"):
            cmd_relabel(cfg, tmp_path)

    def test_missing_hidden_rows_error(self, small_run, tmp_path):
        # A trace directory without the hidden-row file, as older runs left, is refused.
        cfg, out = small_run
        copy_artifacts(out, tmp_path, names=(TRACES, TRACES_META))
        with pytest.raises(FileNotFoundError, match=rf"{TRACES_HIDDEN}; run 'trace' first"):
            cmd_relabel(cfg, tmp_path)

    def test_hidden_widths_checked_against_config(self, small_run, tmp_path):
        cfg, out = small_run
        copy_artifacts(out, tmp_path, names=(TRACES, TRACES_META))
        hidden = read_columns(out / TRACES_HIDDEN)
        write_columns(tmp_path / TRACES_HIDDEN, {**hidden, "h_target": hidden["h_target"][:, :5]})
        with pytest.raises(ValueError, match=r"holds 'h_target' rows of width 5, but this "
                           r"config's oracle.d_h_target is 32; run 'trace' first"):
            cmd_relabel(cfg, tmp_path)

    def test_empty_trace_set_error(self, tmp_path):
        overrides = json.loads(json.dumps(SMALL_OVERRIDES))
        overrides["oracle"] = {"p_match": 1.0}  # no mismatches at all
        cfg = ExperimentConfig.load(write_config(tmp_path, overrides))
        cmd_trace(cfg, tmp_path)
        with pytest.raises(ValueError, match="no mismatches"):
            cmd_relabel(cfg, tmp_path)

    def test_channel_conditioned_positive_rates(self, tmp_path_factory):
        # Relabeling against only a good channel keeps roughly the base
        # positive rate; only a poor channel strictly lowers it.
        rates = {}
        for name, rate in [("good", 900e6), ("poor", 20e6)]:
            out = tmp_path_factory.mktemp(name)
            overrides = json.loads(json.dumps(SMALL_OVERRIDES))
            overrides["trace"] = {"episodes": 150}
            overrides["labeler"] = {
                "channel": {
                    "rate_up_bps": rate, "rate_down_bps": rate, "rtt_s": 0.05,
                    "regime": "static",
                }
            }
            cfg = ExperimentConfig.load(write_config(out, overrides))
            cmd_trace(cfg, out)
            manifest = cmd_relabel(cfg, out)
            rates[name] = (manifest["positive_rate"], manifest["instances"])
        base = json.loads((out / TRACES_META).read_text())["critical_fraction"]
        (good_rate, n_good), (poor_rate, n_poor) = rates["good"], rates["poor"]
        assert good_rate == pytest.approx(base, abs=0.02)
        sem = np.sqrt(
            good_rate * (1 - good_rate) / n_good + poor_rate * (1 - poor_rate) / n_poor
        )
        assert good_rate - poor_rate > 3 * sem


class TestTrainCommand:
    def test_report_quality(self, small_run):
        cfg, out = small_run
        report = json.loads((out / "train_report.json").read_text())
        assert report["holdout_auc"] >= 0.90
        assert len(report["epoch_losses"]) == 5
        assert (out / HEAD).exists()

    @pytest.mark.parametrize("ties", [False, True])
    def test_auc_matches_tie_loop(self, ties):
        def loop_auc(scores, labels):
            # Average ranks found by walking each run of equal sorted scores.
            order = np.argsort(scores, kind="mergesort")
            ranks, ordered = np.empty(len(scores)), scores[order]
            i = 0
            while i < len(scores):
                j = i
                while j + 1 < len(scores) and ordered[j + 1] == ordered[i]:
                    j += 1
                ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
                i = j + 1
            n_pos = int(labels.sum())
            n_neg = len(labels) - n_pos
            return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))

        rng = np.random.default_rng(7)
        for trial in range(100):
            n = int(rng.integers(2, 300))
            scores = rng.random(n)
            if ties:
                # Few distinct values: long runs of equal scores, and some at both ends.
                scores = np.round(scores * rng.integers(1, 6)) / 5
            labels = (rng.random(n) < 0.4).astype(np.float64)
            labels[:2] = [0.0, 1.0]
            assert cli._auc(scores, labels) == loop_auc(scores, labels), trial
        with pytest.raises(ValueError, match="both classes"):
            cli._auc(np.array([0.2, 0.2]), np.array([1.0, 1.0]))

    def test_holdout_quality_matches_one_call_pass(self, small_run):
        # The holdout is scored in chunks; the report holds the numbers of one
        # forward_batch call over all its rows.
        cfg, out = small_run
        x, y = read_dataset(out / DATASET)
        order = np.random.default_rng([cfg.seed, SEED_TRAIN]).permutation(len(y))
        n_hold = round(cfg.raw["train"]["holdout_fraction"] * len(y))
        assert n_hold > INFERENCE_CHUNK
        hold = order[:n_hold]
        params, _ = train(x, y, cfg.train(), rows=order[n_hold:])
        s, p = forward_batch(params, x[hold])
        report = json.loads((out / "train_report.json").read_text())
        assert report["holdout_accuracy"] == float(np.mean((s >= 0.0) == (y[hold] == 1.0)))
        assert report["holdout_auc"] == cli._auc(p, y[hold])

    def test_missing_dataset_error(self, tmp_path):
        cfg = ExperimentConfig.load(write_config(tmp_path))
        with pytest.raises(FileNotFoundError, match="dataset"):
            cmd_train(cfg, tmp_path)

    def test_params_file_hash_deterministic(self, small_run, tmp_path):
        cfg, out = small_run
        copy_artifacts(out, tmp_path, names=(DATASET, DATASET_MANIFEST))
        cmd_train(cfg, tmp_path)
        assert (tmp_path / HEAD).read_bytes() == (out / HEAD).read_bytes()

    def test_one_class_holdout_refused_before_training(self, small_run, tmp_path, monkeypatch):
        cfg, out = small_run
        copy_artifacts(out, tmp_path, names=(DATASET, DATASET_MANIFEST))
        n = json.loads((out / DATASET_MANIFEST).read_text())["instances"]
        raw = copy.deepcopy(cfg.raw)
        raw["train"]["holdout_fraction"] = 1.0 / n  # one held-out row: a single class
        monkeypatch.setattr(cli, "train", lambda *args: pytest.fail("trained before the check"))
        with pytest.raises(ValueError, match=r"holdout set of 1 of \d+ instances has [01] positive "
                           r"and [01] negative .* raise train\.holdout_fraction"):
            cmd_train(ExperimentConfig(raw=raw), tmp_path)
        assert not (tmp_path / HEAD).exists()

    def test_dataset_lineage_checked(self, small_run, tmp_path, monkeypatch):
        # A dataset relabeled under one labeler config trains no head for another.
        cfg, out = small_run
        copy_artifacts(out, tmp_path, names=(DATASET,))
        monkeypatch.setattr(cli, "train", lambda *args: pytest.fail("trained before the check"))
        with pytest.raises(ValueError, match=r"no record in .*dataset_manifest\.json matches this "
                           r"run's config section 'seed'; rerun 'relabel'"):
            cmd_train(cfg, tmp_path)
        copy_artifacts(out, tmp_path, names=(DATASET_MANIFEST,))
        raw = copy.deepcopy(cfg.raw)
        raw["labeler"]["rho"] = 0.5
        with pytest.raises(ValueError, match="this run's config section 'labeler'; rerun 'relabel'"):
            cmd_train(ExperimentConfig(raw=raw), tmp_path)
        assert not (tmp_path / HEAD).exists()

    def test_zero_lr_warns(self, small_run, tmp_path, capsys):
        cfg, out = small_run
        raw = json.loads(json.dumps(cfg.raw))
        raw["train"]["learning_rate"] = 0.0
        cfg0 = ExperimentConfig(raw=raw)
        copy_artifacts(out, tmp_path, names=(DATASET, DATASET_MANIFEST))
        cmd_train(cfg0, tmp_path)
        assert "learning rate is 0" in capsys.readouterr().err


def traced_peak(fn, *args) -> int:
    """Peak bytes held through tracemalloc while ``fn(*args)`` runs, numpy's arrays included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCalibrationMemory:
    """Relabel and train hold one episode's or one batch's rows, not copies of the feature matrix."""

    def test_relabel_peak_below_one_float64_matrix(self, small_run, tmp_path):
        cfg, out = small_run
        copy_artifacts(out, tmp_path, names=(TRACES, TRACES_HIDDEN, TRACES_META))
        peak = traced_peak(cmd_relabel, cfg, tmp_path)
        manifest = json.loads((tmp_path / DATASET_MANIFEST).read_text())
        # Rows are written as each episode makes them.
        assert peak < 8 * manifest["instances"] * manifest["feature_dim"]

    def test_train_peak_bounded_by_the_arrays_held(self, small_run, tmp_path):
        cfg, out = small_run
        copy_artifacts(out, tmp_path, names=(DATASET, DATASET_MANIFEST))
        manifest = json.loads((out / DATASET_MANIFEST).read_text())
        n, d = manifest["instances"], manifest["feature_dim"]
        tcfg = cfg.train()
        b, d_j = tcfg.batch_size, tcfg.hidden_dim
        # At 0.6 the holdout is several chunks long, so a pass over all of it
        # at once would exceed the bound.
        for fraction in (cfg.raw["train"]["holdout_fraction"], 0.6):
            raw = copy.deepcopy(cfg.raw)
            raw["train"]["holdout_fraction"] = fraction
            run_cfg = ExperimentConfig(raw=raw)
            run_cfg.validate()
            peak = traced_peak(cmd_train, run_cfg, tmp_path)
            c = min(INFERENCE_CHUNK, round(fraction * n))
            held = (
                4 * n * d  # the file's bytes, whose FP32 features are viewed in place
                + 12 * c * d  # one chunk of inference rows, gathered in FP32 and widened
                + 16 * c * d_j  # that chunk's pre-activations and activations
                + 12 * b * d + 41 * b * d_j + 16 * d_j * d  # the step buffers of train
                # Eight 8-byte vectors of at most n entries: labels, the holdout split, the
                # label subsets, an epoch's old and new permutation, logits, masks, ranks.
                + 8 * 8 * n
            )
            assert peak < held, fraction

    def test_trace_write_peak_below_one_hidden_matrix(self, small_run, tmp_path):
        cfg, out = small_run
        episodes = read_traces(out / TRACES, out / TRACES_HIDDEN)
        rows = sum(len(ep) for ep in episodes)
        peak = traced_peak(write_traces, tmp_path / TRACES, tmp_path / TRACES_HIDDEN, episodes)
        # Each episode's hidden rows are written as they are: no stacked copy.
        assert peak < 8 * rows * cfg.raw["oracle"]["d_h_draft"]
        assert (tmp_path / TRACES_HIDDEN).read_bytes() == (out / TRACES_HIDDEN).read_bytes()


class TestEvalCommand:
    def test_grid_row_count_and_files(self, small_run):
        cfg, out = small_run
        rows = cmd_eval(cfg, out)
        # 2 scenarios x 4 modes x 2 k x 1 tau
        assert len(rows) == 16
        with open(out / RESULTS) as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == RESULTS_COLUMNS
            assert len(list(reader)) == 16
        assert (out / EPISODES_JSONL).exists()
        assert (out / ROUNDS_JSONL).exists()
        plot = json.loads((out / PLOT_DATA).read_text())
        assert set(plot["panels"]) == {"500mbps_50ms", "20mbps_5ms"}
        assert plot["panels"]["500mbps_50ms"]["sd_greedy"]["k"] == [10, 16]

    def test_missing_head_error(self, tmp_path):
        cfg = ExperimentConfig.load(write_config(tmp_path))
        with pytest.raises(FileNotFoundError, match="head"):
            cmd_eval(cfg, tmp_path)

    def test_greedy_rows_rate_invariant_up_to_payload(self, small_run):
        cfg, out = small_run
        with open(out / RESULTS) as fh:
            rows = [r for r in csv.DictReader(fh) if r["mode"] == "sd_greedy" and r["k"] == "10"]
        assert len(rows) == 2
        aal = {float(r["rate_bps"]): r["aal"] for r in rows}
        assert aal[500e6] == aal[20e6]  # same verification decisions

    def test_parallel_matches_serial(self, small_run, tmp_path):
        # 3 episodes: two blocks are uneven, and four jobs outnumber the
        # episodes. 5 episodes: blocks of 3 and 2, then of 2, 2 and 1.
        cfg, out = small_run
        for episodes, parallel_jobs in ((3, (2, 4)), (5, (2, 3))):
            derived = derived_config(cfg, k_values=[10, 16, 24], episodes=episodes)
            serial = tmp_path / f"{episodes}_serial"
            run_dirs = [tmp_path / f"{episodes}_jobs{jobs}" for jobs in parallel_jobs]
            for run_dir, jobs in zip([serial, *run_dirs], (1, *parallel_jobs)):
                copy_artifacts(out, run_dir)
                cmd_eval(derived, run_dir, jobs=jobs)
            for run_dir in run_dirs:
                for name in EVAL_FILES:
                    assert (run_dir / name).read_bytes() == (serial / name).read_bytes(), name
                assert sorted(path.name for path in run_dir.iterdir()) == sorted(
                    [HEAD, HEAD + ".json", *EVAL_FILES])

    def test_parallel_matches_serial_on_fluctuating_links(self, small_run, tmp_path):
        # The block split decides which fluctuating-link lanes are screened
        # in one batch; 5 episodes run as one block, blocks of 3 and 2, and
        # blocks of 2, 2 and 1.
        cfg, out = small_run
        scenarios = [
            {"name": "two_state", "regime": "two-state", "rate_up_bps": 500e6,
             "rate_down_bps": 500e6, "rtt_s": 0.05, "alt_rate_up_bps": 20e6,
             "alt_rate_down_bps": 20e6, "alt_rtt_s": 0.005, "switch_prob": 0.3},
            {"name": "sampled", "regime": "sampled", "rate_up_bps": 1e8, "rate_down_bps": 1e8,
             "rtt_s": 0.02, "rate_up_range_bps": [2e7, 5e8], "rate_down_range_bps": [2e7, 5e8],
             "rtt_range_s": [0.002, 0.06]},
        ]
        raw = copy.deepcopy(cfg.raw)
        raw["sweep"].update(modes=["sd_greedy", "wisv_fh", "wisv_adaptive"], k_values=[4, 10],
                            tau_values=[0.5, 0.9], episodes=5, scenarios=scenarios)
        raw["ablate"]["scenarios"] = ["sampled"]
        derived = ExperimentConfig(raw=raw)
        derived.validate()
        # Not vacuous: the deployed head's screens on both links read each round's CSI.
        head = cli.load_params(out / HEAD)
        oracle = engine.episode_oracle(derived.oracle(), derived.engine(window=10),
                                       [SEED_EVAL, 0], False)
        traces = [generate_trace(derived.channel(scenario), [derived.seed, SEED_CHANNEL, s_idx, 0],
                                 rounds=derived.raw["engine"]["max_tokens"])
                  for s_idx, scenario in enumerate(scenarios)]
        assert [screen.p for screen in engine.head_screens(
            head, oracle, traces, derived.system().bounds)] == [None, None]
        run_dirs = [tmp_path / f"jobs{jobs}" for jobs in (1, 2, 3)]
        for jobs, run_dir in enumerate(run_dirs, start=1):
            copy_artifacts(out, run_dir)
            cmd_eval(derived, run_dir, jobs=jobs)
        for run_dir in run_dirs[1:]:
            for name in EVAL_FILES:
                assert (run_dir / name).read_bytes() == (run_dirs[0] / name).read_bytes(), name

    def test_pool_capped_at_blocks(self, small_run, tmp_path, monkeypatch):
        """The pool gets one worker per block, never more than there are episodes.

        A recording executor runs the blocks in this process and starts none."""
        cfg, out = small_run
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                self.blocks = []
                pools.append((max_workers, self.blocks))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads, *args):
                self.blocks.extend(payload["episodes"] for payload in payloads)
                return map(fn, payloads, *args)

        serial = tmp_path / "serial"
        copy_artifacts(out, serial)
        cmd_eval(derived_config(cfg, episodes=3), serial)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        for episodes, jobs in ((3, 64), (5, 2)):
            run_dir = tmp_path / f"{episodes}_{jobs}"
            copy_artifacts(out, run_dir)
            cmd_eval(derived_config(cfg, episodes=episodes), run_dir, jobs=jobs)
        assert pools == [(3, [range(0, 1), range(1, 2), range(2, 3)]),
                         (2, [range(0, 3), range(3, 5)])]
        for name in EVAL_FILES:
            assert (tmp_path / "3_64" / name).read_bytes() == (serial / name).read_bytes(), name

    def test_grouped_eval_matches_per_point_episodes(self, small_run, tmp_path, monkeypatch):
        """One oracle per episode, and shared decisions bill exactly like each point's own."""
        cfg, out = small_run
        scenarios = [
            {"name": "20mbps_5ms", "rate_up_bps": 20e6, "rate_down_bps": 20e6, "rtt_s": 0.005},
            {"name": "two_state", "regime": "two-state", "rate_up_bps": 500e6,
             "rate_down_bps": 500e6, "rtt_s": 0.05, "alt_rate_up_bps": 20e6,
             "alt_rate_down_bps": 20e6, "alt_rtt_s": 0.005, "switch_prob": 0.3},
        ]
        cfg = derived_config(cfg, modes=list(MODES), k_values=[4, 10], tau_values=[0.5, 0.9],
                             episodes=3, scenarios=scenarios)
        # logit = relu(drafter hidden along the critical direction)
        #         - 4 relu(rtt feature) - 1: decisions move with tau and the link.
        w1 = np.zeros((2, cfg.feature_dim()))
        d_h = cfg.raw["oracle"]["d_h_draft"]
        w1[0, :d_h] = 1.0 / np.sqrt(d_h)
        w1[1, -1] = 1.0
        head = HeadParams(w1=w1, b1=np.zeros(2), w2=np.array([1.0, -4.0]), b2=-1.0)
        builds = []
        real_oracle = engine.EpisodeOracle

        def counting_oracle(*args, **kwargs):
            builds.append(kwargs["n_positions"])
            return real_oracle(*args, **kwargs)

        decided_sizes = []
        real_point = cli._eval_point

        def recording_point(*args):
            traces, decided = real_point(*args)
            decided_sizes.append((len(traces), len(decided)))
            return traces, decided

        monkeypatch.setattr(engine, "EpisodeOracle", counting_oracle)
        copy_artifacts(out, tmp_path)
        cmd_eval(cfg, tmp_path)
        assert len(builds) == 3  # one oracle per episode, for every k
        builds.clear()
        # The sweep's episodes in two blocks, [0, 2) and [2, 3), as under
        # --jobs 2. Per point, each block makes one bill over its episodes,
        # reduces it to each episode's totals and writes their round lines.
        monkeypatch.setattr(cli, "_eval_point", recording_point)
        points = cli._sweep_points(cfg.raw["sweep"])
        blocks = []
        for block in cli._blocks(3, 2):
            sink = io.BytesIO()
            ends = [(sink.tell(), totals) for totals in cli._sweep_block(
                {"raw": cfg.raw, "episodes": block, "points": points,
                 "heads": {cli.LINK_AWARE: head}}, sink)]
            blocks.append((block, sink.getvalue(), ends))
        assert [block for block, _, _ in blocks] == [range(0, 2), range(2, 3)]
        assert len(builds) == 3
        # Per episode: 2 traces, and k values x (sd_* + scenarios x taus) decisions.
        assert decided_sizes == [(2, 2 * (2 + 2 * 2))] * 3
        monkeypatch.undo()

        # Each (point, episode)'s totals and lines, whose round records carry
        # every decision and bill column with floats in repr form and name
        # the sweep's episode, must equal those of the episode decided on an
        # oracle sized for the point's own k and billed as a batch of one.
        system, oracle_cfg = cfg.system(), cfg.oracle()
        checked, protos, by_tau, by_scenario = 0, set(), {}, {}
        for i, (s_idx, mode, k, tau, _) in enumerate(points):
            eng = cfg.engine(mode=mode, window=k, tau=tau)
            point = {"scenario": scenarios[s_idx]["name"], "mode": mode, "k": k, "tau": tau}
            for block, text, ends in blocks:
                end, block_totals = ends[i]
                lines = text[ends[i - 1][0] if i else 0:end].decode().splitlines(keepends=True)
                assert len(block_totals) == len(block)
                for ep, totals in zip(block, block_totals):
                    trace = generate_trace(cfg.channel(scenarios[s_idx]),
                                           [cfg.seed, SEED_CHANNEL, s_idx, ep],
                                           rounds=cfg.raw["engine"]["max_tokens"])
                    oracle = engine.episode_oracle(oracle_cfg, eng, [SEED_EVAL, ep],
                                                   mode == "sd_reject")
                    ref, ref_link, ref_totals = one_episode(system, eng, oracle, trace, head)
                    assert totals == ref_totals
                    key = {**point, "episode": ep}
                    assert cli._episode_line(point, ep, totals) == json.dumps(
                        {**key, **vars(ref_totals)}, separators=(",", ":")) + "\n"
                    episode_lines, lines = lines[:ref.n_rounds], lines[ref.n_rounds:]
                    assert "".join(episode_lines) == reference_round_lines(key, ref_link)
                    rounds = [json.loads(line) for line in episode_lines]
                    assert len(rounds) == ref.n_rounds
                    if mode == "wisv_adaptive":
                        protos.update(r["proto"] for r in rounds)
                    if mode == "wisv_fh":
                        by_tau.setdefault(tau, []).extend(ref.accepted.tolist())
                        by_scenario.setdefault(s_idx, []).extend(ref.accepted.tolist())
                    checked += 1
                assert lines == []
        assert checked == 2 * 3 * 2 * 5 * 2
        # Not vacuous: adaptive switches protocol, and tau and the link change decisions.
        assert protos == {"FH", "SH"}
        assert by_tau[0.5] != by_tau[0.9]
        assert by_scenario[0] != by_scenario[1]

    def test_each_decision_decided_once_and_each_point_billed_once(self, small_run, tmp_path,
                                                                   monkeypatch):
        """A sweep_static-shaped grid decides its 30 decisions per episode once, not its 80
        points, in one kernel call per block, and bills each point once over a block's episodes.

        Serially the sweep is one block, so there are 80 ``round_comm`` calls
        and 160 ``window_flops`` calls, a draft and a verify per point; under
        ``--jobs N`` there are as many per block, whatever its episode count."""
        cfg, out = small_run
        cfg = derived_config(cfg, modes=["sd_greedy", "sd_reject", "wisv_fh", "wisv_sh"],
                             k_values=[10, 16, 24, 32, 64], tau_values=[0.5],
                             scenarios=DEFAULT_CONFIG["sweep"]["scenarios"], episodes=2)
        assert len(cfg.raw["sweep"]["scenarios"]) == 4
        calls, comm_calls, decided_sizes, lanes = [], [], [], []
        real, real_comm, real_point = engine.window_flops, engine.round_comm, cli._eval_point
        real_decide = cli.decide

        def counting(*args, **kwargs):
            calls.append(args[-1])
            return real(*args, **kwargs)

        def counting_comm(*args, **kwargs):
            comm_calls.append(len(args[3]))
            return real_comm(*args, **kwargs)

        def recording_point(*args):
            traces, decided = real_point(*args)
            decided_sizes.append(len(decided))
            return traces, decided

        def deciding(batch):
            lanes.append(len(batch))
            return real_decide(batch)

        monkeypatch.setattr(cli, "decide", deciding)
        monkeypatch.setattr(engine, "window_flops", counting)
        monkeypatch.setattr(engine, "round_comm", counting_comm)
        monkeypatch.setattr(cli, "_eval_point", recording_point)
        head = cli.load_params(out / HEAD)
        # --jobs 2's blocks: one episode each.
        for block in cli._blocks(2, 2):
            calls.clear()
            comm_calls.clear()
            list(cli._sweep_block({"raw": cfg.raw, "episodes": block,
                                   "points": cli._sweep_points(cfg.raw["sweep"]),
                                   "heads": {cli.LINK_AWARE: head}}, io.BytesIO()))
            # Per k: sd_greedy, sd_reject and one head-verified decision per scenario,
            # all on static links: one kernel call decides the block's lanes.
            assert decided_sizes.pop() == 5 * (2 + 4)
            assert lanes.pop() == 5 * (2 + 4) and not lanes
            assert len(calls) == 2 * 4 * 5 * 4
            assert sorted(set(calls)) == [10, 16, 24, 32, 64]
            assert len(comm_calls) == 4 * 5 * 4

        calls.clear()
        comm_calls.clear()
        copy_artifacts(out, tmp_path)
        cmd_eval(cfg, tmp_path)
        # One bill per point, each over both episodes' rounds; billing per
        # (point, episode) would make 4 x 5 x 4 x 2 = 160 round_comm calls.
        assert len(comm_calls) == 4 * 5 * 4
        assert len(calls) == 2 * 4 * 5 * 4
        with open(tmp_path / ROUNDS_JSONL) as fh:
            assert sum(comm_calls) == sum(1 for _ in fh)

    def test_round_lines_match_json_reference(self, small_run):
        # A batch of two episodes per mode: each episode's lines come from its
        # own slice of the batch's link columns.
        cfg, out = small_run
        head = cli.load_params(out / HEAD)
        system = cfg.system()
        two_state = cfg.channel({"regime": "two-state", "rate_up_bps": 500e6, "rtt_s": 0.05,
                                 "alt_rate_up_bps": 20e6, "alt_rtt_s": 0.005,
                                 "switch_prob": 0.3})
        traces = [generate_trace(two_state, [cfg.seed, ep], rounds=30) for ep in range(2)]
        seen = {"reject_pos": set(), "proto": set()}
        for mode in MODES:
            eng = cfg.engine(mode=mode, window=10, tau=0.9)
            oracles = [engine.episode_oracle(cfg.oracle(), eng, [SEED_EVAL, ep],
                                             mode == "sd_reject") for ep in range(2)]
            batch = [one_episode(system, eng, oracle, trace, head)[0]
                     for oracle, trace in zip(oracles, traces)]
            lanes = [engine.Lane(eng, oracle, engine.head_screens(
                         head, oracle, [trace], system.bounds)[0] if mode.startswith("wisv")
                         else None) for oracle, trace in zip(oracles, traces)]
            bill = engine.price_link(system, eng, engine.decide(lanes),
                                     engine.TraceBatch.of(traces))
            point = {"scenario": "100%_two\"state", "mode": mode, "k": 10, "tau": 0.9}
            lines = cli._round_lines(point, bill).splitlines(keepends=True)
            for ep, (decisions, trace) in enumerate(zip(batch, traces)):
                own = engine.price_link(system, eng, decisions, engine.TraceBatch.of([trace]))
                reference = reference_round_lines({**point, "episode": ep}, own)
                episode_lines, lines = lines[:decisions.n_rounds], lines[decisions.n_rounds:]
                assert "".join(episode_lines) == reference, (mode, ep)
                for line in reference.splitlines():
                    record = json.loads(line)
                    seen["reject_pos"].add(record["reject_pos"] is None)
                    seen["proto"].add(record["proto"])
            assert lines == []
        assert seen == {"reject_pos": {True, False}, "proto": {None, "FH", "SH"}}

    def test_block_memos_keep_number_kinds_apart(self, small_run):
        # One block of two episodes renders in one call. Its head_s column
        # holds 0.0 and -0.0 (episode 0 writes -0.0 first), and a draft_s of
        # 1.0 follows the int 1 of round 1: a text keyed by value alone would
        # write "-0.0" for 0.0, or "1" for 1.0.
        cfg, _ = small_run
        system, eng = cfg.system(), cfg.engine(mode="sd_greedy", window=10)
        traces = [generate_trace(cfg.channel({}), ep, rounds=40) for ep in range(2)]
        batch, owns, lanes = [], [], []
        for ep, trace in enumerate(traces):
            oracle = engine.episode_oracle(cfg.oracle(), eng, [SEED_EVAL, ep], False)
            decisions, own, _ = one_episode(system, eng, oracle, trace)
            assert decisions.n_rounds > 3 and not own.head_s.any()
            batch.append(decisions)
            owns.append(own)
            lanes.append(engine.Lane(eng, oracle))
        bill = engine.price_link(system, eng, engine.decide(lanes), engine.TraceBatch.of(traces))
        # The same rounds of the batch's bill and of each episode's own.
        for ep, own in enumerate(owns):
            for target, offset in ((bill, bill.bounds[ep]), (own, 0)):
                target.head_s[offset + (0 if ep == 0 else len(own.m) - 1)] = -0.0
                target.draft_s[offset + 2 + ep] = 1.0
        point = {"scenario": "s", "mode": "sd_greedy", "k": 10, "tau": 0.9}
        lines = cli._round_lines(point, bill).splitlines(keepends=True)
        for ep, (decisions, own) in enumerate(zip(batch, owns)):
            reference = reference_round_lines({**point, "episode": ep}, own)
            episode_lines, lines = lines[:decisions.n_rounds], lines[decisions.n_rounds:]
            assert "".join(episode_lines) == reference
            assert '"head_s":-0.0,' in reference and '"head_s":0.0,' in reference
            assert '"round":1,' in reference and '"draft_s":1.0,' in reference
        assert lines == []

    def test_non_finite_round_column_raises(self, small_run):
        cfg, _ = small_run
        system, eng = cfg.system(), cfg.engine()
        trace = generate_trace(cfg.channel({}), 0, rounds=4)
        lane = engine.Lane(eng, engine.episode_oracle(cfg.oracle(), eng, 0, False))
        point = {"scenario": "s", "mode": eng.mode, "k": eng.window, "tau": eng.tau}
        # A compute column and a link column each fail naming the sweep's
        # episode whose slice holds the value: the last of a batch of four
        # from episode 0, then the second of a batch of three from episode 5.
        for n_episodes, bad, first_episode in ((4, 3, 0), (3, 1, 5)):
            bill = engine.price_link(system, eng, engine.decide([lane] * n_episodes),
                                     engine.TraceBatch.of([trace] * n_episodes))
            head_s = bill.head_s.copy()
            head_s[bill.bounds[bad] + 1] = np.nan
            with pytest.raises(ValueError,
                               match=f"round column 'head_s' of episode {first_episode + bad} "):
                cli._round_lines(point, dataclasses.replace(bill, head_s=head_s), first_episode)
            bill.total_s[bill.bounds[bad]] = np.inf
            with pytest.raises(ValueError,
                               match=f"round column 'total_s' of episode {first_episode + bad} "):
                cli._round_lines(point, bill, first_episode)

    def test_failed_eval_leaves_no_stream(self, small_run, tmp_path, monkeypatch):
        # A late point carries a non-finite round draft time in the sweep's
        # third episode, which is the second block's under --jobs 2: eval
        # refuses naming that episode, and neither stream nor any block's
        # scratch file is left behind, in a fresh directory or over a
        # previous run's complete streams.
        cfg, out = small_run
        cfg = derived_config(cfg, episodes=3)
        # The decision of the grid's 13th point (of 16), first billed there.
        late_key = cli._decision_key(1, "wisv_fh", 10, 0.9, cli.LINK_AWARE)
        real_point, real_block, real_link = cli._eval_point, cli._block_decisions, cli.price_link
        calls, episodes, late = [], {}, []

        def recording(cfg, system, ep, points, heads, engines):
            traces, decided = real_point(cfg, system, ep, points, heads, engines)
            episodes[id(decided)] = ep
            return traces, decided

        def poisoned(decided, keys):
            by_key = real_block(decided, keys)
            block = [episodes[id(episode_decided)] for episode_decided in decided]
            if 2 in block:
                # The late decision's lanes, and episode 2's place among them.
                late.append((by_key[late_key], block.index(2)))
            return by_key

        def counting(system, engine_cfg, decisions, traces):
            calls.append(None)
            bill = real_link(system, engine_cfg, decisions, traces)
            # Round 2 of episode 2 in every bill of its late decision.
            for decided, e in late:
                if decisions is decided:
                    bill.draft_s[bill.bounds[e] + 2] = np.nan
            return bill

        class ForkPool(concurrent.futures.ProcessPoolExecutor):
            # The poison reaches the workers only if they are forked from this process.
            def __init__(self, max_workers):
                super().__init__(max_workers=max_workers,
                                 mp_context=multiprocessing.get_context("fork"))

        def poison():
            monkeypatch.setattr(cli, "_eval_point", recording)
            monkeypatch.setattr(cli, "_block_decisions", poisoned)
            monkeypatch.setattr(cli, "price_link", counting)
            monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ForkPool)
            calls.clear()
            episodes.clear()
            late.clear()

        for jobs in (1, 2):
            run_dir = tmp_path / f"jobs{jobs}"
            copy_artifacts(out, run_dir)
            poison()
            with pytest.raises(ValueError, match="round column 'draft_s' of episode 2"):
                cmd_eval(cfg, run_dir, jobs=jobs)
            # Serially the first 12 points were streamed; the blocks bill in workers.
            assert len(calls) == (13 if jobs == 1 else 0)
            assert sorted(path.name for path in run_dir.iterdir()) == [HEAD, HEAD + ".json"]

            monkeypatch.undo()
            cmd_eval(cfg, run_dir, jobs=jobs)
            complete = {name: (run_dir / name).read_bytes() for name in EVAL_FILES}
            poison()
            with pytest.raises(ValueError, match="round column 'draft_s' of episode 2"):
                cmd_eval(cfg, run_dir, jobs=jobs)
            monkeypatch.undo()
            assert {name: (run_dir / name).read_bytes() for name in EVAL_FILES} == complete
            assert sorted(path.name for path in run_dir.iterdir()) == sorted(
                [HEAD, HEAD + ".json", *EVAL_FILES])

    @pytest.mark.parametrize("correct", [True, False])
    def test_episode_line_matches_json_reference(self, correct):
        # The bool written after int fields holding 0 and 1 keeps its own
        # text, and so does an aal of 0.0 written after an int 0.
        critical = 0 if correct else 1
        lines = [
            EpisodeTotals(rounds=7, aal=10 / 7, accepted=10, tokens=17, latency_s=0.1 + 0.2,
                          uplink_bits=123456, downlink_bits=789,
                          accepted_critical=0 if correct else 2, correct=correct),
            EpisodeTotals(rounds=1, aal=1.0, accepted=1, tokens=2, latency_s=1.0,
                          uplink_bits=0, downlink_bits=1, accepted_critical=critical,
                          correct=correct),
            EpisodeTotals(rounds=3, aal=0.0, accepted=0, tokens=3, latency_s=0.25,
                          uplink_bits=1, downlink_bits=0, accepted_critical=critical,
                          correct=correct),
        ]
        key = {"scenario": "50% \"cr\u00e8me\" link", "mode": "wisv_sh", "k": 10, "tau": 0.9}
        for episode, totals in enumerate(lines + lines[::-1]):
            assert cli._episode_line(key, episode, totals) == json.dumps(
                {**key, "episode": episode, **vars(totals)}, separators=(",", ":")) + "\n"
        for name in ("aal", "latency_s"):
            for bad in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ValueError, match=f"episode column '{name}' of episode 5"):
                    cli._episode_line(key, 5, dataclasses.replace(lines[0], **{name: bad}))

    def test_episode_line_and_row_are_the_records(self, small_run, tmp_path):
        # An episode line's metrics are EpisodeTotals' fields in order, and
        # summarize of a point's lines gives its results.csv row.
        cfg, _ = small_run
        cmd_eval(derived_config(cfg, modes=["sd_greedy"], k_values=[10], episodes=2), tmp_path)
        fields = [field.name for field in dataclasses.fields(EpisodeTotals)]
        points = {}
        with open(tmp_path / EPISODES_JSONL) as fh:
            for line in fh:
                rec = json.loads(line)
                keys = list(rec)
                assert keys[keys.index("episode") + 1:] == fields
                point = (rec["mode"], rec["k"], rec["tau"], rec["scenario"])
                points.setdefault(point, []).append(EpisodeTotals(**{f: rec[f] for f in fields}))
        metric_columns = RESULTS_COLUMNS[RESULTS_COLUMNS.index("aal"):]
        with open(tmp_path / RESULTS) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(points) == 2
        for row, totals in zip(rows, points.values()):
            summary = summarize(totals)
            assert list(summary) == metric_columns
            assert {c: str(v) for c, v in summary.items()} == {c: row[c] for c in metric_columns}

    def test_head_lineage_checked(self, small_run, tmp_path):
        cfg, out = small_run
        copy_artifacts(out, tmp_path)
        sidecar = tmp_path / (HEAD + ".json")
        raw = copy.deepcopy(cfg.raw)
        raw["labeler"]["rho"] = 0.3
        with pytest.raises(ValueError, match=r"this run's config section 'labeler'; rerun 'train'"):
            cmd_eval(ExperimentConfig(raw=raw), tmp_path)
        record = json.loads(sidecar.read_text())
        del record["lineage"]
        sidecar.write_text(json.dumps(record))
        with pytest.raises(ValueError, match="this run's config section 'seed'"):
            cmd_eval(cfg, tmp_path)

    def test_eval_only_keys_keep_head(self, small_run, tmp_path):
        # The adaptive cutoff is read only when billing, so a head trained
        # under one cutoff evaluates under another.
        cfg, out = small_run
        copy_artifacts(out, tmp_path)
        cut = derived_config(cfg, modes=["wisv_adaptive"], k_values=[10])
        cut.raw["engine"]["adaptive_rtt_cutoff_s"] *= 2
        rows = cmd_eval(cut, tmp_path)
        assert rows and {r["mode"] for r in rows} == {"wisv_adaptive"}

    def test_stale_head_rejected(self, small_run, tmp_path):
        cfg, out = small_run
        raw = copy.deepcopy(cfg.raw)
        raw["oracle"]["d_h_draft"] = 16
        other = ExperimentConfig(raw=raw)
        cmd_trace(other, tmp_path)
        cmd_relabel(other, tmp_path)
        cmd_train(other, tmp_path)
        with pytest.raises(ValueError, match=r"takes 53 input features.* gives 69"):
            cmd_eval(cfg, tmp_path)

    def test_throughput_latency_token_identity(self, small_run):
        # Per row: throughput x mean latency x episodes == total accepted
        # tokens, recomputed independently from the per-episode records.
        cfg, out = small_run
        accepted = {}
        with open(out / EPISODES_JSONL) as fh:
            for line in fh:
                rec = json.loads(line)
                key = (rec["scenario"], rec["mode"], rec["k"], rec["tau"])
                accepted[key] = accepted.get(key, 0) + rec["accepted"]
        by_scenario = {s["name"]: s for s in cfg.raw["sweep"]["scenarios"]}
        episodes = cfg.raw["sweep"]["episodes"]
        checked = 0
        with open(out / RESULTS) as fh:
            for row in csv.DictReader(fh):
                scenario = next(
                    n for n, s in by_scenario.items()
                    if float(s["rate_up_bps"]) == float(row["rate_bps"])
                    and float(s["rtt_s"]) == float(row["rtt_s"])
                )
                key = (scenario, row["mode"], int(row["k"]), float(row["tau"]))
                recovered = float(row["throughput"]) * float(row["latency_s"]) * episodes
                assert recovered == pytest.approx(accepted[key], rel=1e-6)
                checked += 1
        assert checked == 16

    def test_adaptive_protocol_visible_in_round_records(self, small_run, tmp_path):
        cfg, out = small_run
        raw = json.loads(json.dumps(cfg.raw))
        raw["sweep"]["modes"] = ["wisv_adaptive"]
        raw["sweep"]["k_values"] = [10]
        raw["sweep"]["episodes"] = 3
        cfg2 = ExperimentConfig(raw=raw)
        for name in (HEAD, HEAD + ".json"):
            (tmp_path / name).write_bytes((out / name).read_bytes())
        cmd_eval(cfg2, tmp_path)
        protos = {}
        with open(tmp_path / ROUNDS_JSONL) as fh:
            for line in fh:
                rec = json.loads(line)
                protos.setdefault(rec["scenario"], set()).add(rec["proto"])
        assert protos["500mbps_50ms"] == {"FH"}  # 50 ms rtt exceeds the cutoff
        assert protos["20mbps_5ms"] == {"SH"}


class TestAblateCommand:
    ABLATE_INPUTS = (TRACES, TRACES_HIDDEN, TRACES_META, HEAD, HEAD + ".json")

    def test_outputs(self, small_run, capsys):
        cfg, out = small_run
        from wisv.cli import cmd_ablate

        paired = cmd_ablate(cfg, out)
        assert set(paired["scenarios"]) == {"20mbps_5ms"}
        with open(out / ABLATE_CSV) as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == ["variant", *RESULTS_COLUMNS]
            rows = list(reader)
        assert [r["variant"] for r in rows] == ["csi", "no_csi"]
        assert rows[0]["aal"] != rows[1]["aal"]
        meta = json.loads((out / ABLATE_META).read_text())
        assert meta["config_hash"] == cfg.hash

    def test_meta_aal_is_csv_aal(self, small_run, tmp_path, capsys):
        """Each variant's ``aal_mean`` in ablate_meta.json is its ablate.csv ``aal``, as text."""
        cfg, out = small_run
        raw = copy.deepcopy(cfg.raw)
        # At 24 episodes numpy's pairwise mean of the episode AALs differs
        # from their sum in order, in the last digit, on every row.
        raw["ablate"].update(episodes=24, scenarios=["500mbps_50ms", "20mbps_5ms"])
        both = ExperimentConfig(raw=raw)
        both.validate()
        copy_artifacts(out, tmp_path, names=self.ABLATE_INPUTS)
        cli.cmd_ablate(both, tmp_path)
        printed = capsys.readouterr().out
        with open(tmp_path / ABLATE_CSV) as fh:
            rows = list(csv.DictReader(fh))
        meta = json.loads((tmp_path / ABLATE_META).read_text())["scenarios"]
        # One row per (scenario, variant), scenario-major.
        assert len(rows) == 2 * len(meta)
        for s_name, (csi, no_csi) in zip(raw["ablate"]["scenarios"], zip(rows[::2], rows[1::2])):
            for row, variant in ((csi, "csi"), (no_csi, "no_csi")):
                assert row["variant"] == variant
                assert json.dumps(meta[s_name][variant]["aal_mean"]) == row["aal"]
            assert (f"ablate[{s_name}]: csi aal {float(csi['aal']):.3f} "
                    f"vs no-csi {float(no_csi['aal']):.3f}") in printed

    def test_one_oracle_and_trace_per_episode(self, small_run, tmp_path, monkeypatch):
        """Every scenario and variant shares each episode's oracle; variants share its traces.

        The block's episodes are decided in one kernel call, on static and
        fluctuating links alike. Each (scenario, variant) point prices its
        link once, over its episodes."""
        cfg, out = small_run
        raw = copy.deepcopy(cfg.raw)
        raw["sweep"]["scenarios"].append(
            {"name": "sampled", "regime": "sampled", "rate_up_bps": 1e8, "rate_down_bps": 1e8,
             "rtt_s": 0.02, "rate_up_range_bps": [2e7, 5e8], "rate_down_range_bps": [2e7, 5e8],
             "rtt_range_s": [0.002, 0.06]})
        raw["ablate"].update(episodes=3, scenarios=["500mbps_50ms", "sampled"])
        small = ExperimentConfig(raw=raw)
        small.validate()
        calls = {"oracle": 0, "trace": 0, "decide": 0, "link": 0}
        lanes = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        def deciding(batch):
            lanes.append(len(batch))
            return real_decide(batch)

        real_decide = cli.decide
        monkeypatch.setattr(engine, "EpisodeOracle", counting("oracle", engine.EpisodeOracle))
        monkeypatch.setattr(cli, "generate_trace", counting("trace", cli.generate_trace))
        monkeypatch.setattr(cli, "decide", counting("decide", deciding))
        monkeypatch.setattr(cli, "price_link", counting("link", cli.price_link))
        copy_artifacts(out, tmp_path, names=self.ABLATE_INPUTS)
        paired = cli.cmd_ablate(small, tmp_path)
        # episodes; scenarios x episodes; one call for the block; scenarios x variants
        assert calls == {"oracle": 3, "trace": 2 * 3, "decide": 1, "link": 2 * 2}
        # The block's lanes: episodes x scenarios x variants, the link-aware
        # head's on the sampled link among them.
        assert lanes == [3 * 2 * 2]
        assert set(paired["scenarios"]) == {"500mbps_50ms", "sampled"}

    def test_parallel_matches_serial(self, small_run, tmp_path, monkeypatch):
        """``--jobs 2`` runs the ablation on a pool and writes the serial run's files."""
        cfg, out = small_run
        raw = copy.deepcopy(cfg.raw)
        raw["ablate"].update(episodes=3, scenarios=["500mbps_50ms", "20mbps_5ms"])
        small = ExperimentConfig(raw=raw)
        small.validate()
        pools = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        for jobs in (1, 2):
            copy_artifacts(out, tmp_path / f"jobs{jobs}", names=self.ABLATE_INPUTS)
            cli.cmd_ablate(small, tmp_path / f"jobs{jobs}", jobs=jobs)
        assert pools == [2]
        serial, parallel = tmp_path / "jobs1", tmp_path / "jobs2"
        for name in (ABLATE_CSV, ABLATE_META):
            assert (parallel / name).read_bytes() == (serial / name).read_bytes(), name

    def test_csi_row_is_eval_row(self, small_run, tmp_path):
        """The link-aware variant is the head eval deploys, on eval's episodes and links."""
        cfg, out = small_run
        raw = copy.deepcopy(cfg.raw)
        # Against the sweep's order, so each scenario must find its own index.
        raw["ablate"].update(episodes=4, tau=0.5, scenarios=["20mbps_5ms", "500mbps_50ms"])
        abl = raw["ablate"]
        raw["sweep"].update(modes=["wisv_fh"], k_values=[abl["k"]], tau_values=[abl["tau"]],
                            episodes=abl["episodes"])
        both = ExperimentConfig(raw=raw)
        both.validate()
        copy_artifacts(out, tmp_path, names=self.ABLATE_INPUTS)
        cmd_eval(both, tmp_path)
        cli.cmd_ablate(both, tmp_path)
        with open(tmp_path / RESULTS) as fh:
            eval_rows = {(r["rate_bps"], r["rtt_s"]): r for r in csv.DictReader(fh)}
        variants = {"csi": [], "no_csi": []}
        with open(tmp_path / ABLATE_CSV) as fh:
            for row in csv.DictReader(fh):
                variants[row.pop("variant")].append(row)
        assert len(variants["csi"]) == len(eval_rows) == 2
        for row in variants["csi"]:
            assert row == eval_rows[row["rate_bps"], row["rtt_s"]]
        # Not vacuous: at this tau the rows depend on which head screens.
        assert [r["aal"] for r in variants["csi"]] != [r["aal"] for r in variants["no_csi"]]

    def test_missing_head_error(self, small_run, tmp_path):
        cfg, out = small_run
        copy_artifacts(out, tmp_path, names=(TRACES, TRACES_HIDDEN, TRACES_META))
        with pytest.raises(FileNotFoundError, match="run 'train' first"):
            cli.cmd_ablate(cfg, tmp_path)

    def test_head_lineage_checked(self, small_run, tmp_path):
        cfg, out = small_run
        copy_artifacts(out, tmp_path, names=self.ABLATE_INPUTS)
        raw = copy.deepcopy(cfg.raw)
        raw["labeler"]["rho"] = 0.3
        with pytest.raises(ValueError, match=r"this run's config section 'labeler'; rerun 'train'"):
            cli.cmd_ablate(ExperimentConfig(raw=raw), tmp_path)

    def test_trains_only_the_link_blind_head(self, small_run, tmp_path, monkeypatch):
        cfg, out = small_run
        trained = []

        def counting_train(x, y, tcfg):
            trained.append(x.shape)
            return real_train(x, y, tcfg)

        real_train = cli.train
        monkeypatch.setattr(cli, "train", counting_train)
        copy_artifacts(out, tmp_path, names=self.ABLATE_INPUTS)
        cli.cmd_ablate(cfg, tmp_path)
        assert len(trained) == 1

    def test_rerun_reproducible(self, small_run, tmp_path):
        cfg, out = small_run
        from wisv.cli import cmd_ablate

        copy_artifacts(out, tmp_path, names=self.ABLATE_INPUTS)
        cmd_ablate(cfg, tmp_path)
        assert (tmp_path / ABLATE_CSV).read_bytes() == (out / ABLATE_CSV).read_bytes()


class TestMainEntry:
    def test_unknown_command_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit):
            main(["decode"])

    def test_error_is_machine_readable(self, tmp_path, capsys):
        code = main(["relabel", "--out", str(tmp_path), "--config",
                     str(write_config(tmp_path))])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()[-1]
        payload = json.loads(err)
        assert "error" in payload and "trace" in payload["error"]

    def test_full_pipeline_via_main(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert main(["all", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / RESULTS).exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--out", str(tmp_path / "o"), "--jobs", jobs])
        assert exc.value.code == 2
        assert f"argument --jobs: must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_seed_flag_propagates(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["trace", "--config", str(cfg_path), "--out", str(out), "--seed", "7"]) == 0
        meta = json.loads((out / TRACES_META).read_text())
        assert meta["config_hash"] == ExperimentConfig.load(cfg_path, seed=7).hash
