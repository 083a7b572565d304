"""Channel coefficient sampling.

Coefficients are drawn i.i.d. with magnitude uniform on [h_min, h_max] and
an equiprobable sign, giving a continuous, bounded-away-from-zero law.  The
draw is fully determined by the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One K x K matrix of real coefficients h[k-1, l-1] (receiver k, tx l)."""

    h: np.ndarray
    h_min: float
    h_max: float
    seed: int

    def __post_init__(self):
        mags = np.abs(self.h)
        if not (np.all(mags >= self.h_min) and np.all(mags <= self.h_max)):
            raise ValueError("channel magnitudes violate [h_min, h_max]")

    @property
    def k_users(self) -> int:
        return self.h.shape[0]

    def coeff(self, k: int, l: int) -> float:
        """1-based entry h_{kl}."""
        return float(self.h[k - 1, l - 1])


def sample_channel(
    k_users: int, h_min: float = 0.5, h_max: float = 2.0, seed: int = 0
) -> ChannelRealization:
    if not (0 < h_min < h_max and math.isfinite(h_max)):
        raise ValueError(f"need finite 0 < h_min < h_max, got ({h_min}, {h_max})")
    rng = np.random.default_rng(seed)
    mags = rng.uniform(h_min, h_max, size=(k_users, k_users))
    signs = 2.0 * rng.integers(0, 2, size=(k_users, k_users)) - 1.0
    h = mags * signs
    h.setflags(write=False)
    return ChannelRealization(h=h, h_min=h_min, h_max=h_max, seed=seed)
