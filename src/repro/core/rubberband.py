"""Rubberbanding: the join window at the start of an epoch.

Paper Section 3.2.5: "If a consumer joins before 2% of the dataset has been
iterated on in an epoch, the producer will halt all other consumers to let
that consumer synchronize."  Consumers that miss the window wait for the next
epoch boundary (Figure 6).

The policy is the window's geometry and the admission rule, nothing more:
given how far the current epoch has progressed, is a newly arrived consumer
admitted immediately, caught up on the batches it missed, or parked until the
next epoch?  :meth:`RubberbandPolicy.decide` changes nothing but its join
counters, so the threaded producer, the simulated figures and the unit tests
all share it.  Who is catching up, and the halt that lasts while they do,
are fields of the producer's peer table (:mod:`repro.core.protocol`).
"""

from __future__ import annotations

import enum
from typing import Optional


class JoinDecision(str, enum.Enum):
    """What happens to a consumer that asks to join."""

    IMMEDIATE = "immediate"          # epoch has not started producing yet
    CATCH_UP = "catch_up"            # inside the rubberband window: replay missed batches
    WAIT_FOR_NEXT_EPOCH = "wait"     # missed the window: admitted at the next epoch boundary

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class RubberbandPolicy:
    """Decides admission for joining consumers."""

    def __init__(self, window_fraction: float = 0.02, batches_per_epoch: Optional[int] = None) -> None:
        if not (0.0 <= window_fraction <= 1.0):
            raise ValueError("window_fraction must be within [0, 1]")
        self.window_fraction = float(window_fraction)
        self.batches_per_epoch = batches_per_epoch
        self.joins_immediate = 0
        self.joins_caught_up = 0
        self.joins_deferred = 0

    # -- window geometry -----------------------------------------------------------------
    def set_epoch_length(self, batches_per_epoch: int) -> None:
        if batches_per_epoch < 1:
            raise ValueError("batches_per_epoch must be positive")
        self.batches_per_epoch = int(batches_per_epoch)

    @property
    def window_batches(self) -> int:
        """Number of leading batches of an epoch that fall inside the join window."""
        if self.batches_per_epoch is None:
            raise ValueError("epoch length is not known yet")
        if self.window_fraction == 0.0:
            return 0
        return max(1, int(self.batches_per_epoch * self.window_fraction))

    def within_window(self, batches_already_published: int) -> bool:
        """True while strictly fewer than ``window_batches`` batches are out.

        The paper admits a joiner "before 2% of the dataset has been
        iterated on": once the full window has been published the join
        window is over, so the comparison is strict — ``<=`` would admit a
        joiner one batch late.
        """
        if self.window_fraction == 0.0:
            return False
        return batches_already_published < self.window_batches

    # -- admission ------------------------------------------------------------------------
    def decide(self, consumer_id: str, batches_already_published: int) -> JoinDecision:
        """Decide how a consumer joining mid-epoch is handled."""
        if batches_already_published <= 0:
            self.joins_immediate += 1
            return JoinDecision.IMMEDIATE
        if self.within_window(batches_already_published):
            self.joins_caught_up += 1
            return JoinDecision.CATCH_UP
        self.joins_deferred += 1
        return JoinDecision.WAIT_FOR_NEXT_EPOCH

    def __repr__(self) -> str:
        return f"RubberbandPolicy(window={self.window_fraction:.0%})"
