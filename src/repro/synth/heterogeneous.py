"""Heterogeneous conference-style contact generator.

This is the stand-in for the paper's Infocom 2006 / CoNExT 2006 iMote traces
(see the introduction of README.md).  The statistical features it is built to reproduce are
exactly the ones the paper's analysis relies on:

* **Heterogeneous per-node contact rates.**  Figure 7 of the paper shows the
  per-node total contact counts are approximately uniformly distributed over
  ``(0, max)`` — some nodes meet hundreds of others, some almost nobody.
  Here each node receives an *activity weight* ``w_i``; pairwise contact
  intensities are proportional to ``w_i * w_j``, so a node's total contact
  rate is approximately proportional to its weight.  Drawing weights
  uniformly therefore yields the near-uniform contact-count distribution.
* **Poisson contact opportunities.**  Conditioned on the weights, each pair's
  contacts form an independent Poisson process, matching the modelling
  assumptions of Section 5.
* **Stationary nodes.**  A configurable number of nodes model the iMotes
  placed at fixed positions around the venue; they receive weights from the
  top of the range (they are passed by everybody).
* **Activity profiles.**  An optional :class:`ActivityProfile` modulates the
  aggregate intensity over the window (e.g. the 5:30–6:00 pm drop-off in the
  afternoon datasets, Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..contacts import Contact, ContactTrace
from .profiles import ActivityProfile, ConstantProfile
from .seeding import SeedLike, resolve_rng

__all__ = ["ConferenceTraceGenerator"]


@dataclass
class ConferenceTraceGenerator:
    """Generate conference-style contact traces with heterogeneous rates.

    Parameters
    ----------
    num_nodes:
        Total number of nodes (mobile participants plus stationary devices).
    num_stationary:
        How many of the nodes model stationary, high-visibility devices.
    duration:
        Window length in seconds (the paper uses 3-hour windows).
    mean_contacts_per_node:
        Target mean number of contacts per node over the window; this sets
        the overall intensity scale.
    min_weight, max_weight:
        Range of the uniform activity-weight distribution for mobile nodes.
        ``min_weight`` slightly above zero avoids completely isolated nodes
        while still producing the very-low-rate "out" nodes the paper
        highlights.
    stationary_weight_range:
        Weight range for stationary nodes (drawn uniformly from it).
    mean_contact_duration:
        Mean duration of a contact in seconds (exponentially distributed).
    profile:
        Optional activity profile applied by Poisson thinning; the intensity
        scale is renormalised so the target mean contact count is preserved.
    weights:
        Explicit per-node activity weights.  When given, ``num_stationary``
        and the weight ranges are ignored; this is how two-class (high/low)
        populations for the Section 5.2 experiments are constructed.
    """

    num_nodes: int = 98
    num_stationary: int = 20
    duration: float = 3 * 3600.0
    mean_contacts_per_node: float = 120.0
    min_weight: float = 0.02
    max_weight: float = 1.0
    stationary_weight_range: Sequence[float] = (0.6, 1.0)
    mean_contact_duration: float = 150.0
    profile: Optional[ActivityProfile] = None
    weights: Optional[Sequence[float]] = None

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ValueError("need at least two nodes")
        if not 0 <= self.num_stationary <= self.num_nodes:
            raise ValueError("num_stationary must lie in [0, num_nodes]")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.mean_contacts_per_node <= 0:
            raise ValueError("mean_contacts_per_node must be positive")
        if not 0 < self.min_weight <= self.max_weight:
            raise ValueError("need 0 < min_weight <= max_weight")
        if self.mean_contact_duration < 0:
            raise ValueError("mean_contact_duration must be non-negative")
        if self.weights is not None and len(self.weights) != self.num_nodes:
            raise ValueError(
                f"expected {self.num_nodes} weights, got {len(self.weights)}"
            )

    # ------------------------------------------------------------------
    def _draw_weights(self, rng: np.random.Generator) -> np.ndarray:
        if self.weights is not None:
            weights = np.asarray(self.weights, dtype=float)
            if np.any(weights <= 0):
                raise ValueError("explicit weights must be strictly positive")
            return weights
        num_mobile = self.num_nodes - self.num_stationary
        mobile = rng.uniform(self.min_weight, self.max_weight, size=num_mobile)
        lo, hi = self.stationary_weight_range
        stationary = rng.uniform(lo, hi, size=self.num_stationary)
        return np.concatenate([mobile, stationary])

    def _profile_mean(self, profile: ActivityProfile, samples: int = 512) -> float:
        """Average intensity of the profile over the window (for renormalisation)."""
        grid = np.linspace(0.0, self.duration, samples, endpoint=False)
        return float(np.mean([profile(t) for t in grid]))

    def _intensity_scale(self, weights: np.ndarray, profile_mean: float) -> float:
        """Scale ``c`` such that pairwise rate ``λ_ij = c w_i w_j`` produces
        the target mean per-node contact count after profile thinning."""
        total_weight = weights.sum()
        sum_sq = float(np.square(weights).sum())
        # Mean per-node contact count = c * T * (S^2 - sum w_i^2) / N
        pair_weight_mass = total_weight ** 2 - sum_sq
        if pair_weight_mass <= 0:
            raise ValueError("degenerate weights: no pair mass")
        effective = self.duration * max(profile_mean, 1e-12)
        return self.mean_contacts_per_node * self.num_nodes / (pair_weight_mass * effective)

    # ------------------------------------------------------------------
    def generate(self, seed: SeedLike = None, name: str = "") -> ContactTrace:
        """Generate one contact trace (seeded per the contract in
        :mod:`repro.synth.seeding`: same seed, same trace, bit-for-bit)."""
        rng = resolve_rng(seed)
        profile = self.profile or ConstantProfile()
        weights = self._draw_weights(rng)
        profile_mean = self._profile_mean(profile)
        scale = self._intensity_scale(weights, profile_mean)

        contacts: List[Contact] = []
        for i in range(self.num_nodes):
            for j in range(i + 1, self.num_nodes):
                rate = scale * weights[i] * weights[j]
                expected = rate * self.duration
                count = rng.poisson(expected)
                if count == 0:
                    continue
                times = rng.uniform(0.0, self.duration, size=count)
                for t in times:
                    if rng.random() > profile(float(t)):
                        continue
                    if self.mean_contact_duration > 0:
                        length = float(rng.exponential(self.mean_contact_duration))
                    else:
                        length = 0.0
                    end = min(float(t) + length, self.duration)
                    contacts.append(Contact(float(t), end, i, j))
        return ContactTrace(
            contacts,
            nodes=range(self.num_nodes),
            duration=self.duration,
            name=name or f"conference-N{self.num_nodes}",
        )

    # ------------------------------------------------------------------
    @classmethod
    def two_class(
        cls,
        num_high: int,
        num_low: int,
        high_weight: float = 1.0,
        low_weight: float = 0.1,
        **kwargs,
    ) -> "ConferenceTraceGenerator":
        """A population with two explicit rate classes.

        This is the configuration used to study the *subset path explosion*
        argument of Section 5.2: high-weight nodes mix quickly among
        themselves while low-weight nodes only rarely meet anyone.
        """
        if num_high < 0 or num_low < 0 or num_high + num_low < 2:
            raise ValueError("need a population of at least two nodes")
        weights = [high_weight] * num_high + [low_weight] * num_low
        kwargs.setdefault("num_stationary", 0)
        return cls(num_nodes=num_high + num_low, weights=weights, **kwargs)
