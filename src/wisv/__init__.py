"""Wireless device-edge speculative decoding simulator.

Library layout mirrors the system: ``channel`` (link state), ``wire``
(payloads and serialization latency), ``compute`` (FLOPs timing),
``oracle`` (synthetic drafter/target pair), ``head`` (rejection MLP),
``labeler`` (trace collection and link-aware relabeling), ``columns``
(the binary column file that holds the traces' hidden rows), ``engine``
(the head's screen of an episode, ``head_screens``, the decision kernel,
``decide``, which advances a batch of (config, episode, screen) lanes one
round per step into one ragged ``Decisions``, and the one latency ledger,
``price_link``, which bills a batch of episodes' decisions on their
``TraceBatch``: compute, link and total per round),
``metrics`` (aggregation), and ``cli`` (experiment pipeline).
"""

from .channel import (
    ChannelConfig,
    CsiState,
    NormalizationBounds,
    effective_rate,
    features,
    generate_trace,
    quality,
)
from .compute import (
    FlopsConstants,
    HardwareProfile,
    ModelDims,
    exec_time,
    head_flops,
    per_token_flops,
    round_latency,
    window_flops,
)
from .engine import (
    Decisions,
    EngineConfig,
    EpisodeColumns,
    HeadScreen,
    Lane,
    LinkBill,
    SystemModel,
    TraceBatch,
    committed_tokens,
    decide,
    episode_oracle,
    head_screens,
    price_link,
    select_protocol,
)
from .head import HeadParams, TrainConfig, forward_batch, train
from .labeler import (
    Episode,
    RelabelConfig,
    collect_traces,
    lambda_of_csi,
    relabel,
    smooth,
    soft_policy,
    solve_budget_exact,
)
from .metrics import EpisodeTotals, episode_totals
from .oracle import (
    EpisodeOracle,
    OracleConfig,
    calibrate_p_match,
    speculative_columns,
    speculative_fix,
)
from .wire import LatencyBreakdown, WireConfig, round_comm

__version__ = "0.1.0"
