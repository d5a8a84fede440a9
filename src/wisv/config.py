"""Experiment configuration: one YAML document with named sections.

Every run-affecting knob lives here; a SHA-256 hash of the canonical
(sorted-key JSON) form is embedded in each output file so results can be
traced back to their exact configuration. Seeds for the pipeline stages
are derived from the single master seed with fixed per-stage tags, which
is what makes whole-pipeline reruns byte-identical.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import re
from dataclasses import dataclass, fields
from functools import reduce
from pathlib import Path

import yaml

from .channel import N_CSI_FEATURES, RANGE_FIELDS, REGIMES, ChannelConfig, NormalizationBounds
from .compute import MODEL_PRESETS, FlopsConstants, HardwareProfile
from .engine import EngineConfig, SystemModel
from .head import TrainConfig
from .labeler import RelabelConfig
from .oracle import OracleConfig, calibrate_p_match
from .wire import WireConfig

# Stage tags for seed derivation; feeding [master_seed, TAG, ...] into the
# generator keeps every stage's stream independent and reproducible.
SEED_TRACE = 1
SEED_RELABEL = 2
SEED_TRAIN = 3
SEED_EVAL = 4
SEED_CHANNEL = 5

# Config sections (or dotted paths) each stage's artifact is a function of:
# traces_meta.json, dataset_manifest.json and head.bin.json record their
# hashes, and the stages that read those artifacts refuse a mismatch. Keys
# only eval reads are left out.
TRACE_SECTIONS = ("seed", "oracle", "engine.window", "engine.max_tokens", "engine.prefix_len", "trace")
DATASET_SECTIONS = (*TRACE_SECTIONS, "normalization", "labeler")
HEAD_SECTIONS = (*DATASET_SECTIONS, "train")

DEFAULT_CONFIG: dict = {
    "seed": 20240101,
    "output_dir": "out",
    "normalization": {"r_min_bps": 10e6, "r_max_bps": 1e9, "rtt_max_s": 0.1},
    "wire": {
        "b_h": 16,
        "b_pos": 16,
        "b_prob": 16,
        "hdr_up_bits": 320,
        "hdr_down_bits": 320,
    },
    "compute": {
        "preset": "llama-1b-8b",
        "device": {"peak_flops": 10e12, "utilization": 0.30},
        "edge": {"peak_flops": 150e12, "utilization": 0.40},
        "constants": {"c1": 8.0, "c2": 6.0, "c3": 4.0, "c4": 2.0},
        "head": {"d_j": 256},
    },
    "oracle": {
        "p_match": None,
        "target_aal": 6.607,
        "calibrate_k": 10,
        "p_crit": 0.3,
        "sep": 4.0,
        "noise": 1.0,
        "d_h_draft": 32,
        "d_h_target": 32,
        "vocab_syn": 64,
        "mixing": 0.25,
    },
    "trace": {"episodes": 400},
    # Experiment-level relabeling knobs: a wider multiplier range and a
    # balanced two-state sampling channel (matching the 20/500 Mbps eval
    # scenarios) give the head a strong, learnable link signal. The library
    # defaults on RelabelConfig stay at the narrower values.
    "labeler": {
        "alpha": 0.5,
        "rho": 0.15,
        "lambda_hi": 1.0,
        "lambda_lo": 0.0,
        "csi_samples_per_episode": 4,
        "channel": {
            "rate_up_bps": 500e6,
            "rate_down_bps": 500e6,
            "per_up": 0.0,
            "per_down": 0.0,
            "rtt_s": 0.05,
            "regime": "two-state",
            "alt_rate_up_bps": 20e6,
            "alt_rate_down_bps": 20e6,
            "alt_rtt_s": 0.05,
        },
    },
    "train": {
        "learning_rate": 3e-3,
        "epochs": 40,
        "batch_size": 256,
        "weight_decay": 1e-4,
        "momentum": 0.9,
        "dropout": 0.1,
        "hidden_dim": 64,
        "holdout_fraction": 0.2,
    },
    "engine": {
        "window": 10,
        "max_tokens": 256,
        "prefix_len": 64,
        "adaptive_rtt_cutoff_s": 0.010,
    },
    "sweep": {
        "episodes": 100,
        "k_values": [10, 16, 24, 32, 64],
        "tau_values": [0.9],
        "modes": ["sd_greedy", "sd_reject", "wisv_fh", "wisv_sh"],
        "scenarios": [
            {"name": "500mbps_50ms", "rate_up_bps": 500e6, "rate_down_bps": 500e6, "rtt_s": 0.05},
            {"name": "20mbps_50ms", "rate_up_bps": 20e6, "rate_down_bps": 20e6, "rtt_s": 0.05},
            {"name": "500mbps_5ms", "rate_up_bps": 500e6, "rate_down_bps": 500e6, "rtt_s": 0.005},
            {"name": "20mbps_5ms", "rate_up_bps": 20e6, "rate_down_bps": 20e6, "rtt_s": 0.005},
        ],
    },
    "ablate": {
        "episodes": 500,
        "k": 10,
        "tau": 0.95,
        "scenarios": ["20mbps_50ms", "500mbps_50ms"],
    },
}


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


_CHANNEL_KEYS = frozenset(f.name for f in fields(ChannelConfig))
# Sections that configure a channel take ChannelConfig's fields, not the
# (partial) keys their defaults happen to spell out.
_CHANNEL_SECTIONS = ("labeler.channel",)


def _check_keys(section: dict, allowed, path: str) -> None:
    """Reject keys of ``section`` outside ``allowed``, naming the dotted path.

    Where ``allowed`` is a defaults mapping, a key whose default is a
    mapping must hold one, and it is checked against that default.
    """
    for key, value in section.items():
        dotted = f"{path}.{key}" if path else str(key)
        if key not in allowed:
            raise ValueError(
                f"unknown config key {dotted!r}; expected one of {sorted(allowed)}"
            )
        expected = allowed[key] if isinstance(allowed, dict) else None
        if isinstance(expected, dict) and not isinstance(value, dict):
            raise ValueError(
                f"config section {dotted!r} must be a mapping, got {type(value).__name__}"
            )
        if dotted in _CHANNEL_SECTIONS:
            _check_keys(value, _CHANNEL_KEYS, dotted)
        elif dotted == "sweep.scenarios":
            if not isinstance(value, list):
                raise ValueError(f"config key {dotted!r} must be a list of mappings")
            for i, scenario in enumerate(value):
                where = f"{dotted}[{i}]"
                if not isinstance(scenario, dict) or "name" not in scenario:
                    raise ValueError(f"config section {where!r} must be a mapping with a 'name'")
                _check_keys(scenario, _CHANNEL_KEYS | {"name"}, where)
        elif isinstance(expected, dict):
            _check_keys(value, expected, dotted)


def _leaves(value, path: str = ""):
    """Each (dotted key, value) pair of the scalars under ``value``; list entries are indexed."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _check_finite(value, path: str) -> None:
    """Reject a NaN or infinite number anywhere under ``value``, naming its dotted path.

    A NaN compares false with every bound, so range checks pass it.
    """
    for dotted, item in _leaves(value, path):
        if isinstance(item, float) and not math.isfinite(item):
            raise ValueError(f"config key {dotted!r} must be finite, got {item!r}")


# The keys that hold text, list indices dropped; each has its own check.
_TEXT_KEYS = frozenset({"output_dir", "compute.preset", "sweep.modes", "ablate.scenarios",
                        "labeler.channel.regime", "sweep.scenarios.name", "sweep.scenarios.regime"})


# Counts and widths that size a stage's work or a billed cost; zero,
# negative or fractional values fail only later, or bill a negative time.
_POSITIVE_COUNTS = (
    "trace.episodes",
    "labeler.csi_samples_per_episode",
    "sweep.episodes",
    "ablate.episodes",
    "compute.head.d_j",
    "train.epochs",
    "train.batch_size",
    "train.hidden_dim",
    "oracle.calibrate_k",
)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_CHANNEL_DEFAULTS = {f.name: f.default for f in fields(ChannelConfig)}
# Number keys whose default is null: a null p_match is calibrated, and a null
# alternate field repeats its base value. The sampled ranges hold pairs.
_NULLABLE_NUMBERS = frozenset({"p_match", *(key for key in _CHANNEL_KEYS if key.startswith("alt_"))})


def _numbers(section: dict, defaults: dict, path: str):
    """Each (dotted key, value) of ``section`` whose key must hold a number.

    Those are the keys whose default is a number, and the nullable number
    keys unless they hold null; a sweep grid of numbers yields each entry.
    A channel section's keys take ``ChannelConfig``'s defaults.
    """
    for key, value in section.items():
        dotted = f"{path}.{key}" if path else str(key)
        default = defaults.get(key)
        if dotted in _CHANNEL_SECTIONS:
            yield from _numbers(value, _CHANNEL_DEFAULTS, dotted)
        elif dotted == "sweep.scenarios":
            for i, scenario in enumerate(value):
                yield from _numbers(scenario, _CHANNEL_DEFAULTS, f"{dotted}[{i}]")
        elif isinstance(default, dict):
            yield from _numbers(value, default, dotted)
        elif isinstance(default, list) and all(map(_is_number, default)):
            yield from ((f"{dotted}[{i}]", item) for i, item in enumerate(value))
        elif _is_number(default) or (key in _NULLABLE_NUMBERS and value is not None):
            yield dotted, value


# Integer keys (a list holds one per entry) and what each one sizes: a
# fraction fails late with a raw TypeError or bills fractional bits, and a
# bool passes as 0 or 1.
_INTEGERS = {
    "engine.window": "window",
    "engine.max_tokens": "token budget",
    "engine.prefix_len": "prefix length",
    "sweep.k_values": "window",
    "ablate.k": "window",
    "oracle.d_h_draft": "hidden size",
    "oracle.d_h_target": "hidden size",
    "oracle.vocab_syn": "vocabulary size",
    "wire.b_h": "bit width",
    "wire.b_pos": "bit width",
    "wire.b_prob": "bit width",
    "wire.hdr_up_bits": "header size",
    "wire.hdr_down_bits": "header size",
}

# The channel fields each regime reads beyond the base link. A sweep
# scenario that sets another regime's field (to anything but null) would
# run as a plain link of its own regime, so it is refused.
_REGIME_FIELDS = {
    "static": frozenset(),
    "two-state": frozenset(k for k in _CHANNEL_KEYS if k.startswith("alt_")) | {"switch_prob"},
    "sampled": frozenset(RANGE_FIELDS),
}
_REGIME_ONLY_FIELDS = frozenset().union(*_REGIME_FIELDS.values())


def _at(raw: dict, dotted: str):
    """The value of a dotted config key."""
    return reduce(dict.__getitem__, dotted.split("."), raw)


def _without(section: dict, *keys: str) -> dict:
    """``section`` less ``keys``: those its typed view derives from, or another reader owns."""
    return {key: value for key, value in section.items() if key not in keys}


def config_hash(raw: dict) -> str:
    """Stable hash of the fully merged configuration."""
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass
class ExperimentConfig:
    """Typed view over the merged configuration document."""

    raw: dict

    @classmethod
    def load(cls, path: str | Path | None = None, seed: int | None = None) -> ExperimentConfig:
        """Merge a YAML file (if given) over the defaults; ``seed`` overrides."""
        raw = copy.deepcopy(DEFAULT_CONFIG)
        if path is not None:
            with open(path) as fh:
                user = yaml.safe_load(fh) or {}
            if not isinstance(user, dict):
                raise ValueError(f"config root in {path} must be a mapping")
            raw = _merge(raw, user)
        if seed is not None:
            raw["seed"] = seed
        cfg = cls(raw=raw)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        _check_keys(self.raw, DEFAULT_CONFIG, "")
        seed = self.raw["seed"]
        # Every output and lineage record hashes the raw value, so none may stand for another.
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ValueError(f"config key 'seed' must be a nonnegative integer, got {seed!r}")
        out = self.raw["output_dir"]
        if not isinstance(out, str):
            raise ValueError(f"config key 'output_dir' must be a path, got {out!r}")
        if "switch_prob" in self.raw["labeler"]["channel"]:
            raise ValueError(
                "config section 'labeler.channel': switch_prob ('labeler.channel.switch_prob') "
                "does nothing for relabeling, which draws the base or the alternate state with "
                "the symmetric two-state chain's stationary odds, 1/2 for any switch "
                "probability; remove it"
            )
        if self.raw["compute"]["preset"] not in MODEL_PRESETS:
            raise ValueError(
                f"unknown compute preset {self.raw['compute']['preset']!r}; "
                f"choose from {sorted(MODEL_PRESETS)}"
            )
        for dotted in _POSITIVE_COUNTS:
            value = _at(self.raw, dotted)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"config key {dotted!r} must be a positive integer, got {value!r}")
        if self.raw["ablate"]["episodes"] < 2:
            raise ValueError("config key 'ablate.episodes' must be at least 2: the ablation "
                             "reports spreads over episodes")
        holdout = self.raw["train"]["holdout_fraction"]
        if isinstance(holdout, bool) or not isinstance(holdout, (int, float)) or not 0 < holdout < 1:
            raise ValueError(f"config key 'train.holdout_fraction' must lie in (0, 1), got {holdout!r}")
        sweep = self.raw["sweep"]
        for grid in ("k_values", "tau_values", "modes", "scenarios"):
            if not isinstance(sweep[grid], list) or not sweep[grid]:
                raise ValueError(f"sweep grid {grid!r} must be a nonempty list")
        for dotted, what in _INTEGERS.items():
            value = _at(self.raw, dotted)
            _check_finite(value, dotted)  # an infinity is reported as such, not as a fraction
            for v in value if isinstance(value, list) else [value]:
                if isinstance(v, bool) or not isinstance(v, int):
                    raise ValueError(f"config key {dotted!r}: a {what} must be an integer, "
                                     f"got {v!r}")
        # No other scalar is text or a bool: a bool passes a range check as 0 or 1,
        # and some views would coerce the text YAML makes of an exponent.
        for dotted, value in _leaves(self.raw):
            text = re.sub(r"\[\d+\]", "", dotted) in _TEXT_KEYS
            if isinstance(value, (bool, str)) and not text:
                hint = "; YAML reads 5e8 as text and wants 5.0e+8" if isinstance(value, str) else ""
                raise ValueError(f"config key {dotted!r} must be a number, got {value!r}{hint}")
        # Nor is a null (where none is allowed), a list or a mapping a number.
        for dotted, value in _numbers(self.raw, DEFAULT_CONFIG, ""):
            if not _is_number(value):
                raise ValueError(f"config key {dotted!r} must be a number, got {value!r}")
        channels = {"labeler.channel": self.raw["labeler"]["channel"]}
        channels.update((f"sweep.scenarios[{i}]", sc) for i, sc in enumerate(sweep["scenarios"]))
        for where, section in channels.items():
            regime = section.get("regime", ChannelConfig.regime)
            if regime not in REGIMES:
                raise ValueError(f"config key '{where}.regime' must be one of {REGIMES}, got {regime!r}")
            if where.startswith("sweep."):
                # A name keys every output line and plot panel; JSON sorts those keys as strings.
                name = section.get("name")
                if not isinstance(name, str) or not name:
                    raise ValueError(f"config key '{where}.name' must be a nonempty string, "
                                     f"got {name!r}")
                for key in sorted(_REGIME_ONLY_FIELDS - _REGIME_FIELDS[regime]):
                    if section.get(key) is not None:
                        raise ValueError(f"config key '{where}.{key}' is never read by the "
                                         f"{regime!r} regime; remove it or set its regime")
            for key in RANGE_FIELDS:
                span = section.get(key)
                if span is not None and not (isinstance(span, list) and len(span) == 2
                                             and all(isinstance(e, (int, float)) for e in span)):
                    raise ValueError(f"config key '{where}.{key}' must be a [lo, hi] pair of "
                                     f"numbers, got {span!r}")
            try:
                self.channel(section)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"config section {where!r}: {exc}") from exc
        # The typed views below refuse a non-finite value too, without its dotted key.
        _check_finite(self.raw, "")
        abl = self.raw["ablate"]
        # Instantiating the typed views runs their own invariant checks; every
        # engine variant the sweep and the ablation will run is built here.
        variants = [(m, k, t) for m in sweep["modes"] for k in sweep["k_values"]
                    for t in sweep["tau_values"]]
        for mode, k, tau in [*variants, ("wisv_fh", abl["k"], abl["tau"])]:
            try:
                self.engine(mode=mode, window=k, tau=tau)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"engine variant mode={mode!r}, k={k!r}, tau={tau!r}: {exc}") from exc
        # A repeated grid value would write the same sweep point twice.
        names = [s["name"] for s in sweep["scenarios"]]
        grids = {g: sweep[g] for g in ("k_values", "tau_values", "modes")}
        for grid, values in {**grids, "scenarios": names}.items():
            if len(set(values)) != len(values):
                raise ValueError(f"sweep grid {grid!r} repeats a value: {values}")
        ablated = abl["scenarios"]
        if not isinstance(ablated, list) or not ablated:
            raise ValueError(f"config key 'ablate.scenarios' must be a nonempty list, got {ablated!r}")
        for name in ablated:
            if name not in names:
                raise ValueError(f"ablate scenario {name!r} not defined in sweep.scenarios")
        # A repeated scenario would pool each of its episodes twice.
        if len(set(ablated)) != len(ablated):
            raise ValueError(f"config key 'ablate.scenarios' repeats a value: {ablated}")
        self.oracle()
        self.engine()
        self.system()
        self.relabel()
        self.train()

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    @property
    def hash(self) -> str:
        return config_hash(self.raw)

    def lineage(self, sections) -> dict[str, str]:
        """The hash of each config section (or dotted path) an artifact consumed."""
        return {sec: config_hash(_at(self.raw, sec)) for sec in sections}

    def channel(self, section: dict) -> ChannelConfig:
        """The channel of a ``labeler.channel`` or ``sweep.scenarios`` section."""
        sec = _without(section, "name")
        for key in RANGE_FIELDS:
            if sec.get(key) is not None:
                sec[key] = tuple(sec[key])
        return ChannelConfig(**sec)

    def bounds(self) -> NormalizationBounds:
        return NormalizationBounds(**self.raw["normalization"])

    def oracle(self) -> OracleConfig:
        sec = self.raw["oracle"]
        p_match = sec["p_match"]
        if p_match is None:
            p_match = calibrate_p_match(sec["target_aal"], sec["calibrate_k"])
        sec = _without(sec, "p_match", "target_aal", "calibrate_k")
        return OracleConfig(**sec, p_match=p_match, seed=self.seed)

    def engine(self, **overrides) -> EngineConfig:
        return EngineConfig(**{"mode": "sd_greedy", **self.raw["engine"], **overrides})

    def relabel(self) -> RelabelConfig:
        return RelabelConfig(**_without(self.raw["labeler"], "channel"))

    def train(self) -> TrainConfig:
        return TrainConfig(**_without(self.raw["train"], "holdout_fraction"), seed=self.seed)

    def system(self) -> SystemModel:
        """The deployed system: ``compute.preset`` sets every model width it bills."""
        comp = self.raw["compute"]
        draft_dims, target_dims = MODEL_PRESETS[comp["preset"]]
        return SystemModel(
            wire=WireConfig(**self.raw["wire"], vocab_size=draft_dims.vocab, d_h=draft_dims.hidden),
            draft_dims=draft_dims,
            target_dims=target_dims,
            consts=FlopsConstants(**comp["constants"]),
            hw_draft=HardwareProfile(**comp["device"]),
            hw_target=HardwareProfile(**comp["edge"]),
            bounds=self.bounds(),
            head_d_j=comp["head"]["d_j"],
        )

    def feature_dim(self) -> int:
        sec = self.raw["oracle"]
        return sec["d_h_draft"] + sec["d_h_target"] + N_CSI_FEATURES
