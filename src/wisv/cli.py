"""Experiment runner.

Subcommands mirror the pipeline stages:

    trace    collect greedy-decoding mismatch traces from the oracle
    relabel  turn traces into a link-aware training set
    train    fit the rejection head and report held-out quality
    eval     sweep modes x window sizes x channel scenarios
    ablate   compare the trained (link-aware) head with a link-blind one
             trained on the traces' base labels
    all      trace -> relabel -> train -> eval

Every command is a pure function of (config, seed): reruns produce
byte-identical output files. Outputs carry the configuration hash either
inline (JSON) or via a sibling ``*_meta.json`` (CSV, JSON-lines).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import json
import math
import sys
from collections import defaultdict
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .channel import N_CSI_FEATURES, CsiState, generate_trace, quality
from .config import (
    DATASET_SECTIONS,
    HEAD_SECTIONS,
    SEED_CHANNEL,
    SEED_EVAL,
    SEED_RELABEL,
    SEED_TRACE,
    SEED_TRAIN,
    TRACE_SECTIONS,
    ExperimentConfig,
)
from .engine import (
    EpisodeResult,
    PricedDecisions,
    bill,
    decide,
    episode_oracle,
    head_screens,
    price_decisions,
    price_link,
)
from .head import HeadParams, forward_batch, load_params, save_params, train
from .labeler import (
    collect_traces,
    read_traces,
    relabel,
    sample_csi_states,
    write_dataset,
    read_dataset,
    write_traces,
)
from .metrics import CSV_COLUMNS, EpisodeTotals, summarize, write_csv
from .wire import PROTO_NAMES

TRACES = "traces.jsonl"
TRACES_META = "traces_meta.json"
DATASET = "dataset.bin"
DATASET_MANIFEST = "dataset_manifest.json"
HEAD = "head.bin"
TRAIN_REPORT = "train_report.json"
RESULTS = "results.csv"
RESULTS_META = "results_meta.json"
EPISODES_JSONL = "episodes.jsonl"
ROUNDS_JSONL = "rounds.jsonl"
PLOT_DATA = "plot_latency_vs_k.json"
ABLATE_CSV = "ablate.csv"
ABLATE_META = "ablate_meta.json"


def _dump_json(path: Path, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_lineage(cfg: ExperimentConfig, record: Path, sections, stage: str) -> None:
    """Refuse an artifact unless ``record`` holds ``cfg``'s hash of every section it consumed."""
    lineage = json.loads(record.read_text()).get("lineage", {}) if record.exists() else {}
    for section, expected in cfg.lineage(sections).items():
        if lineage.get(section) != expected:
            raise ValueError(f"no record in {record} matches this run's config section "
                             f"{section!r}; rerun {stage!r}")


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def cmd_trace(cfg: ExperimentConfig, out: Path, jobs: int = 1) -> dict:
    eng = cfg.raw["engine"]
    episodes = collect_traces(
        cfg.raw["trace"]["episodes"],
        cfg.oracle(),
        seed=SEED_TRACE,
        window=eng["window"],
        max_tokens=eng["max_tokens"],
        prefix_len=eng["prefix_len"],
    )
    write_traces(out / TRACES, episodes)
    n_mismatch = sum(len(ep) for ep in episodes)
    n_critical = sum(int(ep.base_labels.sum()) for ep in episodes if len(ep))
    stats = {
        "episodes": len(episodes),
        "mismatches": n_mismatch,
        "critical": n_critical,
        "critical_fraction": n_critical / n_mismatch if n_mismatch else 0.0,
        "mean_mismatches_per_episode": n_mismatch / len(episodes),
        "config_hash": cfg.hash,
        "lineage": cfg.lineage(TRACE_SECTIONS),
    }
    _dump_json(out / TRACES_META, stats)
    print(
        f"trace: {stats['episodes']} episodes, {n_mismatch} mismatches, "
        f"critical fraction {stats['critical_fraction']:.4f}"
    )
    return stats


# ---------------------------------------------------------------------------
# relabel
# ---------------------------------------------------------------------------


def _load_traces(cfg: ExperimentConfig, out: Path) -> list:
    """The trace file's episodes, refused unless 'trace' wrote them under this config."""
    traces_path = out / TRACES
    if not traces_path.exists():
        raise FileNotFoundError(f"missing trace file {traces_path}; run 'trace' first")
    _check_lineage(cfg, out / TRACES_META, TRACE_SECTIONS, "trace")
    episodes = read_traces(traces_path, n_episodes=cfg.raw["trace"]["episodes"])
    if sum(len(ep) for ep in episodes) == 0:
        raise ValueError("trace set contains no mismatches; no head can learn from it")
    return episodes


def cmd_relabel(cfg: ExperimentConfig, out: Path, jobs: int = 1) -> dict:
    episodes = _load_traces(cfg, out)
    rcfg = cfg.relabel()
    bounds = cfg.bounds()
    relabel_channel = cfg.channel(cfg.raw["labeler"]["channel"])
    rng = np.random.default_rng([cfg.seed, SEED_RELABEL])
    feats, labels, qualities = [], [], []
    for ep in episodes:
        # Drawn even for an episode without mismatches: the rng stream, and
        # so the dataset, must not depend on which episodes are empty.
        samples = sample_csi_states(relabel_channel, rcfg.csi_samples_per_episode, rng)
        x, y, sample_ids = relabel(ep, samples, rcfg, bounds, rng)
        if len(y):
            feats.append(x)
            labels.append(y)
            qualities.append(quality(samples, bounds)[sample_ids])
    y = np.concatenate(labels).astype(np.float64)
    x, q = np.vstack(feats), np.concatenate(qualities)
    write_dataset(out / DATASET, x, y)

    edges = np.linspace(0.0, 1.0, 6)
    buckets = {}
    for i in range(5):
        mask = (q >= edges[i]) & (q < edges[i + 1] if i < 4 else q <= edges[i + 1])
        key = f"q_{edges[i]:.1f}_{edges[i + 1]:.1f}"
        buckets[key] = {
            "instances": int(mask.sum()),
            "positive_rate": float(y[mask].mean()) if mask.any() else None,
        }
    manifest = {
        "instances": int(len(y)),
        "feature_dim": int(x.shape[1]),
        "positives": int(y.sum()),
        "positive_rate": float(y.mean()),
        "per_quality_bucket": buckets,
        "config_hash": cfg.hash,
        "lineage": cfg.lineage(DATASET_SECTIONS),
    }
    _dump_json(out / DATASET_MANIFEST, manifest)
    print(
        f"relabel: {manifest['instances']} instances, dim {manifest['feature_dim']}, "
        f"positive rate {manifest['positive_rate']:.4f}"
    )
    return manifest


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based AUC with average ranks for ties.

    The sorted scores at positions i..j (0-based) of one tie group all rank
    0.5 * (i + j) + 1.
    """
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    opens_group = np.concatenate([[True], sorted_scores[1:] != sorted_scores[:-1]])
    first = np.flatnonzero(opens_group)
    last = np.append(first[1:], len(scores)) - 1
    ranks = np.empty(len(scores))
    ranks[order] = (0.5 * (first + last) + 1.0)[np.cumsum(opens_group) - 1]
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def cmd_train(cfg: ExperimentConfig, out: Path, jobs: int = 1) -> dict:
    dataset_path = out / DATASET
    if not dataset_path.exists():
        raise FileNotFoundError(f"missing dataset {dataset_path}; run 'relabel' first")
    _check_lineage(cfg, out / DATASET_MANIFEST, DATASET_SECTIONS, "relabel")
    x, y = read_dataset(dataset_path)
    tcfg = cfg.train()
    if tcfg.learning_rate == 0.0:
        print("warning: learning rate is 0; parameters will not move", file=sys.stderr)

    rng = np.random.default_rng([cfg.seed, SEED_TRAIN])
    order = rng.permutation(len(y))
    fraction = cfg.raw["train"]["holdout_fraction"]
    n_hold = int(round(fraction * len(y)))
    hold, keep = order[:n_hold], order[n_hold:]
    n_pos = int(y[hold].sum())
    if n_pos in (0, n_hold):
        # The holdout AUC needs both classes; refuse before training, not after.
        raise ValueError(
            f"the holdout set of {n_hold} of {len(y)} instances has {n_pos} positive and "
            f"{n_hold - n_pos} negative instances, but its AUC needs both classes; "
            f"raise train.holdout_fraction (now {fraction})"
        )
    params, report = train(x[keep], y[keep], tcfg)

    s_hold, p_hold = forward_batch(params, x[hold])
    hold_acc = float(np.mean((s_hold >= 0.0) == (y[hold] == 1.0)))
    hold_auc = _auc(p_hold, y[hold])
    meta = {
        "config_hash": cfg.hash,
        "train_instances": int(len(keep)),
        "holdout_instances": int(len(hold)),
        "pos_weight": report.pos_weight,
        "final_train_loss": report.epoch_losses[-1],
        "final_train_accuracy": report.final_train_accuracy,
        "holdout_accuracy": hold_acc,
        "holdout_auc": hold_auc,
        "lineage": cfg.lineage(HEAD_SECTIONS),
    }
    save_params(out / HEAD, params, metadata=meta)
    _dump_json(out / TRAIN_REPORT, {**meta, "epoch_losses": report.epoch_losses})
    print(
        f"train: loss {meta['final_train_loss']:.4f}, "
        f"holdout acc {hold_acc:.4f}, holdout auc {hold_auc:.4f}"
    )
    return meta


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


# JSON text of each protocol code in a round line.
_PROTO_JSON = tuple(json.dumps(name) for name in PROTO_NAMES)


def _line_prefix(key: dict) -> str:
    """The JSON text a line of ``key`` starts with: its members and a comma."""
    return json.dumps(key, separators=(",", ":"))[:-1] + ","


def _episode_line(key: dict, totals: EpisodeTotals) -> str:
    """The ``episodes.jsonl`` line of ``key``: compact ``json.dumps({**key, **vars(totals)})``.

    A non-finite float, which JSON writes as ``NaN``, raises.
    """
    try:
        return json.dumps({**key, **vars(totals)}, separators=(",", ":"), allow_nan=False) + "\n"
    except ValueError:
        name = next(name for name, value in vars(totals).items() if not math.isfinite(value))
        raise ValueError(f"episode column {name!r} of episode {key['episode']} holds a "
                         "non-finite value, which JSON cannot encode") from None


def _round_values(columns: dict, episode: int) -> list[list]:
    """Round columns as lists whose entries' ``%s`` is their JSON text.

    Arrays become lists of Python ints and floats; a list already holds
    JSON text. A non-finite float, which JSON writes as ``NaN``, raises.
    """
    values = []
    for name, column in columns.items():
        if not isinstance(column, list):
            if column.dtype.kind == "f" and not np.isfinite(column).all():
                raise ValueError(f"round column {name!r} of episode {episode} holds a "
                                 "non-finite value, which JSON cannot encode")
            column = column.tolist()
        values.append(column)
    return values


def _round_template(episode: int, priced: PricedDecisions) -> str:
    """The ``rounds.jsonl`` lines of one episode's priced decisions, as one ``%`` template.

    Rendered once per decision: each round's line holds the decisions' own
    members, and a ``%s`` slot for the point's key prefix and for each
    member the link sets, which ``_round_lines`` fills per point.
    """
    # The members after the key, in line order; None marks one the link sets.
    members = {
        "round": np.arange(priced.n_rounds),
        "m": priced.m,
        "reject_pos": ["null" if j < 0 else str(j) for j in priced.reject_pos.tolist()],
        "accepted": priced.accepted,
        "committed": priced.committed,
        "proto": None,
        "uplink_bits": None,
        "downlink_bits": None,
        "draft_s": priced.draft_s,
        "verify_s": priced.verify_s,
        "head_s": priced.head_s,
        "comm_s": None,
        "total_s": None,
        "accepted_critical": priced.accepted_critical,
    }
    own = {name: column for name, column in members.items() if column is not None}
    template = "%%s" + ",".join(f'"{name}":{"%%s" if column is None else "%s"}'
                                for name, column in members.items()) + "}\n"
    return "".join(template % row for row in zip(*_round_values(own, episode)))


def _round_lines(key: dict, template: str, res: EpisodeResult) -> str:
    """One point's ``rounds.jsonl`` lines: compact ``json.dumps({**key, "round": r, **columns})``.

    ``key`` ends in ``"episode"``, and ``template`` is the
    ``_round_template`` of the priced decisions ``res`` was billed from.
    """
    comm = res.comm
    # The link's members, in line order.
    link = _round_values({
        "proto": [_PROTO_JSON[code] for code in res.proto.tolist()],
        "uplink_bits": comm.uplink_bits,
        "downlink_bits": comm.downlink_bits,
        "comm_s": comm.total_s,
        "total_s": res.total_s,
    }, key["episode"])
    return template % tuple(chain.from_iterable(zip(repeat(_line_prefix(key)), *link)))


def _scenario_trace(cfg: ExperimentConfig, s_idx: int, ep: int) -> CsiState:
    """Episode ``ep``'s channel trace on sweep scenario ``s_idx``, as eval and ablate see it."""
    return generate_trace(cfg.channel(cfg.raw["sweep"]["scenarios"][s_idx]),
                          [cfg.seed, SEED_CHANNEL, s_idx, ep],
                          rounds=cfg.raw["engine"]["max_tokens"])


def _eval_point(payload: dict) -> list[tuple]:
    """Run every sweep point of one episode. Must stay picklable.

    The episode builds one oracle, for the sweep's largest window, one
    channel trace per scenario and, for the head-verified modes, the head's
    screen on each trace. Per window, ``sd_greedy`` and ``sd_reject`` read
    neither the channel nor tau, so each decides once; the head-verified
    modes decide once per (scenario, tau), shared by FH, SH and adaptive.
    Each decision is priced (``price_decisions``) and its round lines
    rendered (``_round_template``) once; each point then prices only its
    link (``price_link``) and fills in its own columns. Returns ``(point,
    episode totals, episode line, round lines)`` per point, where ``point``
    is ``(scenario index, mode, k, tau)``.
    """
    cfg = ExperimentConfig(raw=payload["raw"])
    sweep = cfg.raw["sweep"]
    ep, head = payload["episode"], payload["head"]
    system = cfg.system()
    oracle = episode_oracle(
        cfg.oracle(), cfg.engine(window=max(sweep["k_values"])), [SEED_EVAL, ep],
        with_distributions="sd_reject" in sweep["modes"],
    )
    traces = [_scenario_trace(cfg, s_idx, ep) for s_idx in range(len(sweep["scenarios"]))]
    screens = head_screens(head, oracle, traces, system.bounds) if head is not None else None
    out = []
    for k in sweep["k_values"]:
        decided: dict = {}
        for s_idx, (scenario, trace) in enumerate(zip(sweep["scenarios"], traces)):
            for mode in sweep["modes"]:
                for tau in sweep["tau_values"]:
                    engine_cfg = cfg.engine(mode=mode, window=k, tau=tau)
                    screening = mode.startswith("wisv")
                    key = (s_idx, tau) if screening else mode
                    if key not in decided:
                        decisions = decide(engine_cfg, oracle,
                                           screens[s_idx] if screening else None)
                        priced = price_decisions(system, engine_cfg, decisions)
                        decided[key] = priced, _round_template(ep, priced)
                    priced, template = decided[key]
                    res = price_link(system, engine_cfg, priced, trace)
                    totals = EpisodeTotals.of(res)
                    line_key = {"scenario": scenario["name"], "mode": mode, "k": k, "tau": tau,
                                "episode": ep}
                    out.append(((s_idx, mode, k, tau), totals, _episode_line(line_key, totals),
                                _round_lines(line_key, template, res)))
    return out


def _load_head(cfg: ExperimentConfig, head_path: Path) -> HeadParams:
    """Load the trained head and check it takes this config's feature vector."""
    if not head_path.exists():
        raise FileNotFoundError(f"missing head parameters {head_path}; run 'train' first")
    head = load_params(head_path)
    if head.d_in != cfg.feature_dim():
        raise ValueError(
            f"head {head_path} takes {head.d_in} input features, but this config "
            f"gives {cfg.feature_dim()} (oracle.d_h_draft + oracle.d_h_target + "
            f"{N_CSI_FEATURES} CSI features); rerun 'train'"
        )
    _check_lineage(cfg, head_path.with_name(head_path.name + ".json"), HEAD_SECTIONS, "train")
    return head


def cmd_eval(cfg: ExperimentConfig, out: Path, jobs: int = 1) -> list[dict]:
    sweep = cfg.raw["sweep"]
    needs_head = any(m.startswith("wisv") for m in sweep["modes"])
    head = _load_head(cfg, out / HEAD) if needs_head else None

    points = [
        (s_idx, mode, k, tau)
        for s_idx in range(len(sweep["scenarios"]))
        for mode in sweep["modes"]
        for k in sweep["k_values"]
        for tau in sweep["tau_values"]
    ]
    payloads = [{"raw": cfg.raw, "episode": ep, "head": head} for ep in range(sweep["episodes"])]
    # Episodes arrive in order, so each point's lines and totals stay in episode order.
    totals, episode_lines, round_lines = defaultdict(list), defaultdict(list), defaultdict(list)
    with contextlib.ExitStack() as stack:
        if jobs > 1:
            pool = stack.enter_context(concurrent.futures.ProcessPoolExecutor(max_workers=jobs))
            episodes = pool.map(_eval_point, payloads)
        else:
            episodes = map(_eval_point, payloads)
        for episode in episodes:
            for point, episode_totals, episode_line, rounds in episode:
                totals[point].append(episode_totals)
                episode_lines[point].append(episode_line)
                round_lines[point].append(rounds)

    rows = []
    first_tau = sweep["tau_values"][0]
    plot: dict = {"config_hash": cfg.hash, "tau": first_tau, "panels": {}}
    for point in points:
        s_idx, mode, k, tau = point
        scenario = sweep["scenarios"][s_idx]
        row = {"mode": mode, "k": k, "tau": tau, "rate_bps": scenario["rate_up_bps"],
               "rtt_s": scenario["rtt_s"], **summarize(totals[point])}
        rows.append(row)
        if tau == first_tau:
            panel = plot["panels"].setdefault(scenario["name"], {})
            series = panel.setdefault(mode, {"k": [], "latency_s": []})
            series["k"].append(k)
            series["latency_s"].append(row["latency_s"])
    write_csv(out / RESULTS, rows)
    with open(out / EPISODES_JSONL, "w") as ef, open(out / ROUNDS_JSONL, "w") as rf:
        for point in points:
            ef.writelines(episode_lines[point])
            rf.writelines(round_lines[point])
    _dump_json(out / PLOT_DATA, plot)
    _dump_json(
        out / RESULTS_META,
        {"config_hash": cfg.hash, "rows": len(rows), "columns": list(rows[0].keys())},
    )
    print(f"eval: {len(rows)} sweep points -> {out / RESULTS}")
    return rows


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------


def cmd_ablate(cfg: ExperimentConfig, out: Path, jobs: int = 1) -> dict:
    episodes = _load_traces(cfg, out)
    # Link-aware variant: the head 'train' wrote, which eval deploys.
    params_csi = _load_head(cfg, out / HEAD)
    # Link-blind variant: trained on base labels with the CSI slot zeroed,
    # then deployed with its CSI weights zeroed, so it reads no link state.
    x_base = np.vstack(
        [np.hstack([ep.h_draft, ep.h_target, np.zeros((len(ep), N_CSI_FEATURES))])
         for ep in episodes]
    )
    y_base = np.concatenate([ep.base_labels for ep in episodes]).astype(np.float64)
    params_base, _ = train(x_base, y_base, cfg.train())
    params_base.w1[:, -N_CSI_FEATURES:] = 0.0
    variants = {"csi": params_csi, "no_csi": params_base}

    abl = cfg.raw["ablate"]
    oracle_cfg = cfg.oracle()
    system = cfg.system()
    engine_cfg = cfg.engine(mode="wisv_fh", window=abl["k"], tau=abl["tau"])
    s_indices = {s["name"]: s_idx for s_idx, s in enumerate(cfg.raw["sweep"]["scenarios"])}
    # Every scenario and both variants decide on each episode's one oracle;
    # a scenario's variants share its channel trace.
    totals: dict = {(s_name, variant): [] for s_name in abl["scenarios"] for variant in variants}
    for ep in range(abl["episodes"]):
        oracle = episode_oracle(oracle_cfg, engine_cfg, [SEED_EVAL, ep], False)
        traces = [_scenario_trace(cfg, s_indices[s_name], ep) for s_name in abl["scenarios"]]
        for variant, params in variants.items():
            screens = head_screens(params, oracle, traces, system.bounds)
            for s_name, trace, screen in zip(abl["scenarios"], traces, screens):
                decisions = decide(engine_cfg, oracle, screen)
                totals[s_name, variant].append(
                    EpisodeTotals.of(bill(system, engine_cfg, decisions, trace)))

    rows = []
    paired: dict = {"config_hash": cfg.hash, "scenarios": {}}
    for s_name in abl["scenarios"]:
        scenario = cfg.scenario(s_name)
        per_variant: dict = {}
        aals: dict = {}
        for variant in variants:
            point_totals = totals[s_name, variant]
            row = {"variant": variant, "mode": "wisv_fh", "k": abl["k"], "tau": abl["tau"],
                   "rate_bps": scenario["rate_up_bps"], "rtt_s": scenario["rtt_s"],
                   **summarize(point_totals)}
            rows.append(row)
            aals[variant] = a = np.array([ep.aal for ep in point_totals])
            per_variant[variant] = {
                "aal_mean": float(a.mean()),
                "aal_std": float(a.std(ddof=1)),
                "aal_sem": float(a.std(ddof=1) / np.sqrt(len(a))),
                "latency_mean_s": row["latency_s"],
                "accuracy_proxy": row["accuracy_proxy"],
            }
        # Both variants run the same episodes: the per-episode difference
        # cancels the episode-to-episode spread the unpaired SEMs carry.
        diff = aals["csi"] - aals["no_csi"]
        per_variant["aal_diff_sem"] = float(diff.std(ddof=1) / np.sqrt(len(diff)))
        paired["scenarios"][s_name] = per_variant

    write_csv(out / ABLATE_CSV, rows, ["variant", *CSV_COLUMNS])
    _dump_json(out / ABLATE_META, paired)
    for s_name, pv in paired["scenarios"].items():
        print(
            f"ablate[{s_name}]: csi aal {pv['csi']['aal_mean']:.3f} "
            f"vs no-csi {pv['no_csi']['aal_mean']:.3f} (paired diff SEM {pv['aal_diff_sem']:.3f})"
        )
    return paired


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "trace": cmd_trace,
    "relabel": cmd_relabel,
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
}


def cmd_all(cfg: ExperimentConfig, out: Path, jobs: int = 1):
    cmd_trace(cfg, out, jobs)
    cmd_relabel(cfg, out, jobs)
    cmd_train(cfg, out, jobs)
    return cmd_eval(cfg, out, jobs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="wisv",
        description="Wireless device-edge speculative decoding simulator",
    )
    parser.add_argument("command", choices=[*COMMANDS, "all"])
    parser.add_argument("--config", type=Path, default=None, help="YAML config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", type=Path, default=None, help="output directory override")
    parser.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"argument --jobs: must be at least 1, got {args.jobs}")

    try:
        cfg = ExperimentConfig.load(args.config, seed=args.seed)
        out = args.out if args.out is not None else Path(cfg.raw["output_dir"])
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "all":
            cmd_all(cfg, out, args.jobs)
        else:
            COMMANDS[args.command](cfg, out, args.jobs)
    except Exception as exc:  # noqa: BLE001 - single CLI failure surface
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
