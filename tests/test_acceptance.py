"""End-to-end acceptance suite.

Each test covers one release criterion at its stated tolerance and prints a
single pass/fail line (visible with ``pytest -v -rA`` or ``-s``). Reference
numbers frozen here were computed by hand or by the independent oracles
written alongside each check.
"""

import filecmp
import time

import numpy as np
import pytest
import yaml

from wisv.channel import CsiState, generate_trace
from wisv.cli import HEAD, LINK_AWARE, _sweep, cmd_ablate, cmd_relabel, cmd_trace, cmd_train, main
from wisv.compute import (
    FlopsConstants,
    HardwareProfile,
    ModelDims,
    exec_time,
    head_flops,
    per_token_flops,
    round_latency,
    window_flops,
)
from wisv.config import SEED_CHANNEL, SEED_EVAL, ExperimentConfig
from wisv.engine import (
    Lane,
    TraceBatch,
    committed_tokens,
    decide,
    episode_oracle,
    head_screens,
    price_link,
)
from wisv.head import HeadParams, init_params, load_params, loss_and_grads
from wisv.labeler import solve_budget_exact
from wisv.metrics import episode_totals, summarize
from wisv.oracle import (
    EpisodeOracle,
    OracleConfig,
    calibrate_p_match,
    speculative_columns,
    speculative_fix,
)
from wisv.wire import (
    PROTO_DENSE,
    PROTO_FH,
    PROTO_SH,
    PROTO_TOKENS,
    WireConfig,
    round_comm,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# The default sweep's scenarios, by index: a point names its link as eval's sweep does.
FAST_50MS, SLOW_50MS, FAST_5MS, SLOW_5MS = range(4)


def default_config():
    """The default config, whose sweep scenarios the constants above index."""
    cfg = ExperimentConfig.load()
    assert [s["name"] for s in cfg.raw["sweep"]["scenarios"]] == [
        "500mbps_50ms", "20mbps_50ms", "500mbps_5ms", "20mbps_5ms"]
    return cfg


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Default-scale trace -> relabel -> train, shared by criteria 6 and 8-10."""
    out = tmp_path_factory.mktemp("pipeline")
    cfg = default_config()
    cmd_trace(cfg, out)
    cmd_relabel(cfg, out)
    cmd_train(cfg, out)
    return cfg, out, load_params(out / HEAD)


def eval_episodes(cfg, points, episodes, head=None):
    """Each point's ``EpisodeTotals`` over ``episodes`` episodes, from eval's own sweep.

    A point is ``(scenario index, mode, k, tau)``. The sweep runs serially
    and builds one oracle per episode for all the points; the head-verified
    modes screen with ``head``.
    """
    heads = {} if head is None else {LINK_AWARE: head}
    points = [(*point, LINK_AWARE) for point in points]
    return [totals for _, totals in _sweep(cfg, points, heads, episodes, 1)]


def episode_inputs(cfg, ep, head):
    """Episode ``ep``'s oracle, its trace on scenario ``FAST_50MS`` and ``head``'s screen of
    them, as eval's sweep builds them."""
    oracle = episode_oracle(cfg.oracle(), cfg.engine(), [SEED_EVAL, ep], False)
    trace = generate_trace(cfg.channel(cfg.raw["sweep"]["scenarios"][FAST_50MS]),
                           [cfg.seed, SEED_CHANNEL, FAST_50MS, ep],
                           rounds=cfg.raw["engine"]["max_tokens"])
    (screen,) = head_screens(head, oracle, [trace], cfg.system().bounds)
    return oracle, trace, screen


def bill_batch(cfg, eng, batch, traces):
    """Bill a batch of episodes' decisions in one ``price_link`` call.

    Returns the ``LinkBill`` and each episode's totals.
    """
    bill = price_link(cfg.system(), eng, batch, TraceBatch.of(traces))
    return bill, episode_totals(bill)


def test_criterion_1_formula_exactness():
    t0 = time.monotonic()
    wire = WireConfig()
    rel = 1e-9

    def comm(cfg, k, proto, m=0):
        return round_comm(cfg, k, proto, m, CsiState(20e6, 20e6, 0.0, 0.0, 0.0))

    def second_uplink(cfg, k, m):  # SH's on-demand hidden uplink
        return comm(cfg, k, PROTO_SH, m).uplink_bits - comm(cfg, k, PROTO_TOKENS).uplink_bits

    def hidden(cfg):  # bits per requested hidden state
        return second_uplink(cfg, 10, 1) - second_uplink(cfg, 10, 0)

    assert hidden(wire) == 32768
    assert hidden(WireConfig(d_h=896)) == 14336
    assert comm(WireConfig(hdr_down_bits=0), 10, PROTO_TOKENS).downlink_bits == 33
    assert comm(wire, 10, PROTO_FH).downlink_bits == 353
    assert comm(wire, 10, PROTO_FH).uplink_bits == 328170
    assert second_uplink(wire, 10, 2) == 65856
    assert second_uplink(wire, 10, 1) / 20e6 == pytest.approx(1.6544e-3, rel=rel)
    small = WireConfig(vocab_size=64)
    assert comm(small, 1, PROTO_DENSE).uplink_bits == small.hdr_up_bits + 6 + 1024
    assert comm(wire, 10, PROTO_DENSE).uplink_bits == 20521450

    csi = CsiState(500e6, 500e6, 0.0, 0.0, 0.05)
    lat = round_comm(wire, 10, PROTO_FH, 0, csi)
    assert lat.uplink_s == pytest.approx(6.5634e-4, rel=rel)
    assert lat.downlink_s == pytest.approx(7.06e-7, rel=rel)
    assert lat.total_s == pytest.approx(0.050657046, rel=rel)
    sh = round_comm(wire, 10, PROTO_SH, 0, CsiState(500e6, 500e6, 0, 0, 0.0))
    fh0 = round_comm(wire, 10, PROTO_FH, 0, CsiState(500e6, 500e6, 0, 0, 0.0))
    assert sh.total_s == pytest.approx(
        fh0.total_s - 10 * 32768 / 500e6 + 320 / 500e6 + 320 / 500e6, rel=rel
    )

    draft = ModelDims(16, 2048, 8192, 128256)
    target = ModelDims(32, 4096, 14336, 128256)
    consts = FlopsConstants(8, 6, 4, 2)
    assert per_token_flops(draft, consts, 512) == 2739929088
    loop_d = sum(per_token_flops(draft, consts, 100 + i) for i in range(10))
    assert window_flops(draft, consts, 100, 10) == pytest.approx(loop_d, rel=rel)
    loop_t = sum(per_token_flops(target, consts, 100 + i) for i in range(10))
    assert window_flops(target, consts, 100, 10) == pytest.approx(loop_t, rel=rel)
    assert head_flops(4101, 256, 1) == 2100481
    assert exec_time(2.73e9, HardwareProfile(10e12, 0.3)) == pytest.approx(9.1e-4, rel=rel)
    comm = round_comm(wire, 10, PROTO_FH, 0, csi)
    assert round_latency(1e-3, comm, 2e-3, 3e-5) == pytest.approx(
        1e-3 + comm.uplink_s + comm.downlink_s + comm.rtt_s + 2e-3 + 3e-5, rel=rel
    )

    dt = time.monotonic() - t0
    report(1, dt < 1.0, f"wire/compute reference values exact to 1e-9 in {dt:.3f}s")


def test_criterion_2_budget_solver_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    agree = 0
    for _ in range(1000):
        t = int(rng.integers(1, 13))
        b = (rng.random(t) < 0.6).astype(np.int64)
        b_smooth = rng.random(t)
        budget = int(rng.integers(0, t + 1))
        actions = solve_budget_exact(b, b_smooth, budget)
        assert np.all(actions <= b) and actions.sum() <= budget
        solver_obj = ((b - actions) * b_smooth).sum()

        masks = (np.arange(2**t)[:, None] >> np.arange(t)) & 1
        feasible = np.all(masks <= b, axis=1) & (masks.sum(axis=1) <= budget)
        objs = ((b - masks) * b_smooth).sum(axis=1)
        best = objs[feasible].min()
        agree += int(abs(solver_obj - best) < 1e-12)
    dt = time.monotonic() - t0
    report(2, agree == 1000 and dt < 10.0, f"{agree}/1000 objective agreement in {dt:.2f}s")


def test_criterion_3_speculative_sampling_exactness():
    # The token one position emits (its draft if accepted, else its residual
    # draw) must follow p_target; 4e5 independent trials in chunks of 1e4.
    # At 4e5 an exact sampler's TV sits near 0.005, so 0.01 fails only a
    # biased one (at 1e5 it would fail about one seed in ten).
    t0 = time.monotonic()
    cfg = OracleConfig(p_match=0.9, d_h_draft=1, d_h_target=1, mixing=0.7, vocab_syn=64, seed=3)
    oracle = EpisodeOracle(cfg, seed=0, n_positions=3, with_distributions=True)
    rng = np.random.default_rng(1)
    trials, chunk = 400_000, 10_000
    p_draft = np.tile(oracle.p_draft[0], (chunk, 1))
    p_target = np.tile(oracle.p_target[0], (chunk, 1))
    counts = np.zeros(cfg.vocab_syn)
    for _ in range(trials // chunk):
        u = rng.random((chunk, 4))
        draft, accept = speculative_columns(p_draft, p_target, u)
        residual = speculative_fix(p_draft, p_target, u, ~accept)
        counts += np.bincount(np.where(accept, draft, residual), minlength=cfg.vocab_syn)
    tv = 0.5 * np.abs(counts / trials - oracle.p_target[0]).sum()
    dt = time.monotonic() - t0
    report(3, tv < 0.01 and dt < 10.0, f"TV(emitted, target) = {tv:.5f} over 4e5 trials in {dt:.2f}s")


def test_criterion_4_gradient_check():
    t0 = time.monotonic()
    rng = np.random.default_rng(12)
    params = init_params(9, 5, seed=12)
    x = rng.normal(0.0, 1.0, (7, 9))
    y = (rng.random(7) < 0.5).astype(float)
    assert np.abs(x @ params.w1.T + params.b1).min() > 1e-3
    _, grads = loss_and_grads(params, x, y, pos_weight=1.7, weight_decay=1e-3)

    h = 1e-4
    worst = 0.0
    picks = np.random.default_rng(99)
    for _ in range(10):
        name = picks.choice(["w1", "b1", "w2", "b2"])
        if name == "b2":
            analytic = float(grads["b2"])
            up = loss_and_grads(HeadParams(params.w1, params.b1, params.w2, params.b2 + h),
                                x, y, 1.7, 1e-3)[0]
            dn = loss_and_grads(HeadParams(params.w1, params.b1, params.w2, params.b2 - h),
                                x, y, 1.7, 1e-3)[0]
        else:
            arr = getattr(params, name)
            idx = tuple(picks.integers(0, d) for d in arr.shape)
            analytic = grads[name][idx]
            mats = {k: getattr(params, k).copy() for k in ("w1", "b1", "w2")}
            mats[name][idx] += h
            up = loss_and_grads(HeadParams(mats["w1"], mats["b1"], mats["w2"], params.b2),
                                x, y, 1.7, 1e-3)[0]
            mats[name][idx] -= 2 * h
            dn = loss_and_grads(HeadParams(mats["w1"], mats["b1"], mats["w2"], params.b2),
                                x, y, 1.7, 1e-3)[0]
        numeric = (up - dn) / (2 * h)
        worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8))
    dt = time.monotonic() - t0
    report(4, worst < 1e-4 and dt < 1.0, f"max relative gradient error {worst:.2e} in {dt:.3f}s")


def test_criterion_5_reduction_equivalence():
    t0 = time.monotonic()
    cfg = default_config()
    head = init_params(cfg.feature_dim(), 16, seed=0)
    greedy_eng, wisv_eng = cfg.engine(mode="sd_greedy"), cfg.engine(mode="wisv_fh", tau=1e-12)
    oracles, greedy, wisv, traces = [], [], [], []
    for ep in range(100):
        oracle, trace, screen = episode_inputs(cfg, ep, head)
        oracles.append(oracle)
        greedy.append(Lane(greedy_eng, oracle))
        wisv.append(Lane(wisv_eng, oracle, screen))
        traces.append(trace)
    # Both modes' episodes in one call: greedy lanes 0-99, then wisv lanes 100-199.
    decided = decide(greedy + wisv)
    greedy, wisv = decided.lanes(0, 100), decided.lanes(100, 200)
    _, g_totals = bill_batch(cfg, greedy_eng, greedy, traces)
    _, w_totals = bill_batch(cfg, wisv_eng, wisv, traces)
    mismatching = 0
    for ep, (oracle, g_ep, w_ep) in enumerate(zip(oracles, g_totals, w_totals)):
        same = np.array_equal(committed_tokens(oracle, greedy, ep),
                              committed_tokens(oracle, wisv, ep))
        if not (same and g_ep.rounds == w_ep.rounds and g_ep.aal == w_ep.aal):
            mismatching += 1
    dt = time.monotonic() - t0
    report(5, mismatching == 0 and dt < 30.0,
           f"tau->0 token-identical to greedy on 100/100 episodes in {dt:.2f}s")


def test_criterion_6_fh_sh_invariance(pipeline):
    cfg, _, head = pipeline
    wire, k = cfg.system().wire, cfg.engine().window
    fh_eng, sh_eng = cfg.engine(mode="wisv_fh", tau=0.9), cfg.engine(mode="wisv_sh", tau=0.9)
    oracles, fh_lanes, sh_lanes, traces = [], [], [], []
    for ep in range(50):
        oracle, trace, screen = episode_inputs(cfg, ep, head)
        oracles.append(oracle)
        fh_lanes.append(Lane(fh_eng, oracle, screen))
        sh_lanes.append(Lane(sh_eng, oracle, screen))
        traces.append(trace)
    # Both modes' episodes in one call: FH lanes 0-49, then SH lanes 50-99.
    decided = decide(fh_lanes + sh_lanes)
    fh_decisions, sh_decisions = decided.lanes(0, 50), decided.lanes(50, 100)
    fh_link, fh_totals = bill_batch(cfg, fh_eng, fh_decisions, traces)
    sh_link, sh_totals = bill_batch(cfg, sh_eng, sh_decisions, traces)
    violations = 0
    for ep, oracle in enumerate(oracles):
        same = np.array_equal(committed_tokens(oracle, fh_decisions, ep),
                              committed_tokens(oracle, sh_decisions, ep))
        if (fh_totals[ep].aal != sh_totals[ep].aal or fh_totals[ep].rounds != sh_totals[ep].rounds
                or not same):
            violations += 1
            continue
        # Each episode's rounds, at its offset in its own batch.
        fh_up, sh_up, fh_m = (column[fh_link.bounds[ep]:fh_link.bounds[ep + 1]]
                              for column in (fh_link.comm.uplink_bits, sh_link.comm.uplink_bits,
                                             fh_link.m))
        violations += np.count_nonzero(sh_up > fh_up + wire.hdr_up_bits)
        violations += np.count_nonzero((fh_m < k) & (sh_up >= fh_up + wire.hdr_up_bits))
    report(6, violations == 0,
           "AAL/rounds/tokens identical across FH and SH; per-round SH uplink bound holds")


def test_criterion_7_reference_throughput_identity():
    rows = [
        ("greedy d10 500M", 6.607, 31.912, 7.616, 27.683),
        ("greedy d10 20M", 6.607, 31.912, 7.617, 27.681),
        ("reject d10 20M", 6.586, 32.040, 40.542, 5.205),
        ("semantic d10 500M", 7.478, 27.736, 6.634, 31.267),
        ("semantic d64 500M", 15.489, 13.152, 16.653, 12.233),
        ("greedy d64 500M", 10.789, 19.272, 24.272, 8.566),
        ("semantic d32 20M", 14.979, 13.892, 10.140, 20.522),
    ]
    worst = 0.0
    for _, aal_v, rounds_v, latency_v, reported in rows:
        computed = aal_v * rounds_v / latency_v  # accepted tokens / latency
        worst = max(worst, abs(computed - reported) / reported)

    # The same identity on summarize() output of a short eval. It is exact
    # for one episode, and for several with the pooled AAL (accepted over
    # rounds). The reported AAL averages per episode, so across episodes it
    # departs from the identity by the printed gap.
    def rel_error(aal_v, s):
        return abs(aal_v * s["rounds"] / s["latency_s"] / s["throughput"] - 1)

    cfg = default_config()
    head = init_params(cfg.feature_dim(), 16, seed=0)
    worst_real, gap, points = 0.0, 0.0, 0
    grid = [(s_idx, mode, 16, 0.5)
            for mode in ("sd_greedy", "sd_reject", "wisv_fh", "wisv_sh", "wisv_adaptive")
            for s_idx in (SLOW_50MS, FAST_5MS)]
    for episodes in eval_episodes(cfg, grid, 4, head):
        for ep in episodes:
            single = summarize([ep])
            worst_real = max(worst_real, rel_error(single["aal"], single))
        pooled = summarize(episodes)
        pooled_aal = sum(ep.accepted for ep in episodes) / sum(ep.rounds for ep in episodes)
        worst_real = max(worst_real, rel_error(pooled_aal, pooled))
        gap = max(gap, rel_error(pooled["aal"], pooled))
        points += 1
    report(7, worst < 0.005 and worst_real < 1e-9,
           f"throughput identity holds on {len(rows)} reference rows, worst error {worst:.2e}; "
           f"on summarize() output of {points} eval points, worst error {worst_real:.1e} "
           f"(episode-averaged AAL departs by up to {gap:.1e})")


def test_criterion_8_trend_reproduction(pipeline):
    t0 = time.monotonic()
    cfg, _, head = pipeline

    # The oracle is calibrated so greedy AAL at k=10 matches the reference
    # operating point 6.607.
    a = calibrate_p_match(6.607, 10)
    assert cfg.oracle().p_match == pytest.approx(a, abs=1e-9)

    # (a) semantic verification lengthens accepted spans and cuts rounds
    greedy, semantic = (summarize(episodes) for episodes in eval_episodes(
        cfg, [(FAST_50MS, "sd_greedy", 10, 0.5), (FAST_50MS, "wisv_fh", 10, 0.9)], 500, head))
    aal_ratio = semantic["aal"] / greedy["aal"]
    rounds_ratio = semantic["rounds"] / greedy["rounds"]
    ok_a = aal_ratio >= 1.15 and rounds_ratio <= 0.9

    # (b) greedy latency is U-shaped in the window size. The same 60 episodes
    # also give the pairing series of wisv_fh and sd_reject below.
    ks = [10, 16, 24, 32, 64]
    series = [("sd_greedy", 0.5), ("wisv_fh", 0.9), ("sd_reject", 0.5)]
    per_k = eval_episodes(cfg, [(FAST_50MS, mode, k, tau) for mode, tau in series for k in ks],
                          60, head)
    greedy_k, fh_k, rej_k = (per_k[i:i + len(ks)] for i in range(0, len(per_k), len(ks)))
    lats = [summarize(episodes)["latency_s"] for episodes in greedy_k]
    kmin = int(np.argmin(lats))
    ok_b = 0 < kmin < 4 and lats[0] > min(lats) and lats[-1] > min(lats)

    # Pairing across k: every k decodes the same position-keyed episodes, so
    # the per-episode difference between adjacent k has a smaller SEM than
    # two independent samples would. Shown as the mean over adjacent pairs.
    def adjacent_sems(per_k):
        paired, unpaired = [], []
        for a, b in zip(per_k, per_k[1:]):
            paired.append(np.std(b - a, ddof=1) / np.sqrt(len(a)))
            unpaired.append(np.sqrt((np.var(a, ddof=1) + np.var(b, ddof=1)) / len(a)))
        return f"{np.mean(paired):.3g} paired vs {np.mean(unpaired):.3g} unpaired"

    fh_aal = [np.array([ep.aal for ep in episodes]) for episodes in fh_k]
    rej_lat = [np.array([ep.latency_s for ep in episodes]) for episodes in rej_k]
    pairing = (f"adjacent-k diff SEM: wisv_fh AAL {adjacent_sems(fh_aal)}, "
               f"sd_reject latency {adjacent_sems(rej_lat)}")

    # (c) protocol crossover: FH wins at 50 ms RTT, SH at 20 Mbps / 5 ms
    fh_hi, sh_hi, fh_lo, sh_lo = (
        summarize(episodes)["latency_s"] for episodes in eval_episodes(
            cfg, [(s_idx, mode, 10, 0.9) for s_idx in (FAST_50MS, SLOW_5MS)
                  for mode in ("wisv_fh", "wisv_sh")], 50, head))
    ok_c = fh_hi < sh_hi and sh_lo <= fh_lo

    # (d) dense-probability uplink blows up at 20 Mbps
    rej, grd = (summarize(episodes)["latency_s"] for episodes in eval_episodes(
        cfg, [(SLOW_50MS, "sd_reject", 10, 0.5), (SLOW_50MS, "sd_greedy", 10, 0.5)], 30))
    ok_d = rej >= 5.0 * grd

    dt = time.monotonic() - t0
    report(
        8,
        ok_a and ok_b and ok_c and ok_d and dt < 300.0,
        f"(a) aal x{aal_ratio:.2f}, rounds x{rounds_ratio:.2f} "
        f"(b) latency-vs-k min at interior k={ks[kmin]} "
        f"(c) fh {fh_hi:.2f}<sh {sh_hi:.2f} @50ms, sh {sh_lo:.2f}<=fh {fh_lo:.2f} @20M/5ms "
        f"(d) reject/greedy x{rej / grd:.1f} | {pairing} | {dt:.0f}s",
    )


def test_criterion_9_csi_aware_ablation(pipeline):
    t0 = time.monotonic()
    cfg, out, _ = pipeline
    paired = cmd_ablate(cfg, out)
    poor = paired["scenarios"]["20mbps_50ms"]
    diff = poor["csi"]["aal_mean"] - poor["no_csi"]["aal_mean"]
    sem = np.hypot(poor["csi"]["aal_sem"], poor["no_csi"]["aal_sem"])
    paired_sem = poor["aal_diff_sem"]
    dt = time.monotonic() - t0
    report(
        9,
        diff > 3 * sem and dt < 300.0,
        f"poor-channel AAL: csi {poor['csi']['aal_mean']:.3f} vs "
        f"no-csi {poor['no_csi']['aal_mean']:.3f} ({diff / sem:.1f} sigma unpaired, "
        f"SEM {sem:.3f}; {diff / paired_sem:.1f} sigma paired, SEM {paired_sem:.3f}) "
        f"in {dt:.0f}s",
    )


def test_criterion_10_accuracy_monotonicity(pipeline):
    t0 = time.monotonic()
    cfg, _, head = pipeline
    taus = [0.001, 0.25, 0.5, 0.75, 0.95, 0.999]
    accs = [summarize(episodes)["accuracy_proxy"] for episodes in eval_episodes(
        cfg, [(FAST_50MS, "wisv_fh", 10, tau) for tau in taus], 150, head)]
    monotone = all(a >= b for a, b in zip(accs, accs[1:]))
    dt = time.monotonic() - t0
    report(
        10,
        monotone and accs[0] == 1.0 and dt < 120.0,
        f"accuracy over tau grid {[round(a, 3) for a in accs]} in {dt:.0f}s",
    )


def test_criterion_11_pipeline_determinism(tmp_path):
    t0 = time.monotonic()
    overrides = {
        "trace": {"episodes": 60},
        "train": {"epochs": 6, "hidden_dim": 16},
        "engine": {"max_tokens": 120},
        "sweep": {
            "episodes": 8,
            "k_values": [10, 16],
            "tau_values": [0.9],
            "modes": ["sd_greedy", "sd_reject", "wisv_fh", "wisv_sh"],
            "scenarios": [
                {"name": "500mbps_50ms", "rate_up_bps": 500e6, "rate_down_bps": 500e6,
                 "rtt_s": 0.05},
                {"name": "20mbps_5ms", "rate_up_bps": 20e6, "rate_down_bps": 20e6,
                 "rtt_s": 0.005},
            ],
        },
        "ablate": {"scenarios": ["20mbps_5ms"], "episodes": 10},
    }
    cfg_path = tmp_path / "config.yaml"
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(overrides, fh)

    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for out in (dir_a, dir_b):
        assert main(["all", "--config", str(cfg_path), "--out", str(out)]) == 0

    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    differing = [n for n in names if not filecmp.cmp(dir_a / n, dir_b / n, shallow=False)]
    dt = time.monotonic() - t0
    report(
        11,
        not differing,
        f"{len(names)} output files byte-identical across reruns in {dt:.0f}s"
        + (f"; differing: {differing}" if differing else ""),
    )
