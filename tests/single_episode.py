"""One episode through the primitives eval's sweep calls, for tests that read its columns."""

from wisv.engine import decide, head_screens, price_decisions, price_link
from wisv.metrics import episode_totals


def one_episode(system, engine_cfg, oracle, trace, head=None):
    """Decide ``oracle``'s episode, price it, and bill its link on ``trace`` as a batch of one.

    The head-verified modes screen with ``head``; without one, ``decide``
    refuses them. Returns the ``PricedDecisions``, the ``LinkBill`` and the
    episode's ``EpisodeTotals``.
    """
    screen = None
    if engine_cfg.mode.startswith("wisv") and head is not None:
        (screen,) = head_screens(head, oracle, [trace], system.bounds)
    priced = price_decisions(system, engine_cfg, decide(engine_cfg, oracle, screen))
    link = price_link(system, engine_cfg, [priced], [trace])
    (totals,) = episode_totals([priced], link)
    return priced, link, totals
