"""Registry of synthetic stand-ins for the paper's datasets.

The paper analyses four 3-hour windows of iMote contact traces — Infocom
2006 (9AM–12PM and 3PM–6PM on 25 April 2006) and CoNExT 2006 (9AM–12PM and
3PM–6PM on 4 December 2006) — plus a replication on Infocom 2005.  Those
CRAWDAD traces cannot be redistributed, so this module defines seeded
synthetic configurations with matching population sizes, window lengths,
stationary-node counts, and contact-rate heterogeneity (see the
introduction of README.md for the substitution rationale).

Each :class:`DatasetSpec` is deterministic: the same key and scale always
produce the same trace, so every figure in EXPERIMENTS.md is reproducible.
The ``scale`` argument shrinks the population (and proportionally the mean
contact count stays per-node) so tests and benchmarks can run quickly while
keeping the trace's statistical character; ``scale=1.0`` is the
paper-faithful size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from .contacts import ContactTrace
from .synth import ConferenceTraceGenerator, TaperedProfile

__all__ = [
    "DatasetSpec",
    "PAPER_DATASET_KEYS",
    "dataset_spec",
    "load_dataset",
    "paper_datasets",
    "infocom06_9_12",
    "infocom06_3_6",
    "conext06_9_12",
    "conext06_3_6",
    "infocom05",
]


@dataclass(frozen=True)
class DatasetSpec:
    """A named, seeded synthetic dataset configuration."""

    key: str
    description: str
    num_nodes: int
    num_stationary: int
    duration: float
    mean_contacts_per_node: float
    seed: int
    afternoon_dropoff: bool = False

    def scaled_num_nodes(self, scale: float = 1.0) -> int:
        """The population size a given *scale* produces (floor of 10).

        Exposed separately from :meth:`generator` so scenario listings can
        report node counts without building a trace.
        """
        if not 0 < scale <= 1.0:
            raise ValueError("scale must lie in (0, 1]")
        return max(10, int(round(self.num_nodes * scale)))

    def generator(self, scale: float = 1.0,
                  contact_scale: float = 1.0) -> ConferenceTraceGenerator:
        """Build the trace generator, optionally scaled down.

        ``scale`` shrinks the population while keeping each node's contact
        rate (a per-person property) unchanged; this makes the scaled trace
        relatively denser per pair.  ``contact_scale`` additionally scales the
        per-node mean contact count — passing ``contact_scale=scale``
        preserves the *per-pair* contact intensity of the full-size dataset,
        which keeps delivery delays and success rates closer to paper scale
        and is what the benchmark harness uses.
        """
        if not 0 < contact_scale <= 1.0:
            raise ValueError("contact_scale must lie in (0, 1]")
        num_nodes = self.scaled_num_nodes(scale)
        num_stationary = min(num_nodes // 4,
                             int(round(self.num_stationary * scale)))
        profile = None
        if self.afternoon_dropoff:
            # Activity tapers over the final 30 minutes of the window, the
            # 5:30–6:00 pm drop-off visible in the paper's Figure 1(b)/(d).
            profile = TaperedProfile(window_end=self.duration,
                                     taper_start=self.duration - 1800.0,
                                     final_level=0.35)
        return ConferenceTraceGenerator(
            num_nodes=num_nodes,
            num_stationary=num_stationary,
            duration=self.duration,
            mean_contacts_per_node=max(5.0, self.mean_contacts_per_node * contact_scale),
            profile=profile,
        )

    def generate(self, scale: float = 1.0, seed: Optional[int] = None,
                 contact_scale: float = 1.0) -> ContactTrace:
        """Generate the trace (deterministic for a given key and scale)."""
        generator = self.generator(scale=scale, contact_scale=contact_scale)
        suffix = "" if scale == 1.0 and contact_scale == 1.0 else f"-x{scale:g}"
        return generator.generate(seed=self.seed if seed is None else seed,
                                  name=f"{self.key}{suffix}")


_REGISTRY: Dict[str, DatasetSpec] = {
    "infocom06-9-12": DatasetSpec(
        key="infocom06-9-12",
        description="Infocom 2006 stand-in, 25 April, 9AM-12PM window",
        num_nodes=98, num_stationary=20, duration=3 * 3600.0,
        mean_contacts_per_node=200.0, seed=20060425,
    ),
    "infocom06-3-6": DatasetSpec(
        key="infocom06-3-6",
        description="Infocom 2006 stand-in, 25 April, 3PM-6PM window (late drop-off)",
        num_nodes=98, num_stationary=20, duration=3 * 3600.0,
        mean_contacts_per_node=185.0, seed=20060426, afternoon_dropoff=True,
    ),
    "conext06-9-12": DatasetSpec(
        key="conext06-9-12",
        description="CoNExT 2006 stand-in, 4 December, 9AM-12PM window",
        num_nodes=98, num_stationary=20, duration=3 * 3600.0,
        mean_contacts_per_node=110.0, seed=20061204,
    ),
    "conext06-3-6": DatasetSpec(
        key="conext06-3-6",
        description="CoNExT 2006 stand-in, 4 December, 3PM-6PM window (late drop-off)",
        num_nodes=98, num_stationary=20, duration=3 * 3600.0,
        mean_contacts_per_node=100.0, seed=20061205, afternoon_dropoff=True,
    ),
    "infocom05": DatasetSpec(
        key="infocom05",
        description="Infocom 2005 stand-in used for the paper's replication check",
        num_nodes=41, num_stationary=0, duration=3 * 3600.0,
        mean_contacts_per_node=90.0, seed=20050307,
    ),
}

#: The four datasets the paper's figures are based on, in figure order.
PAPER_DATASET_KEYS: Tuple[str, ...] = (
    "infocom06-9-12",
    "infocom06-3-6",
    "conext06-9-12",
    "conext06-3-6",
)


def dataset_spec(key: str) -> DatasetSpec:
    """Look up a dataset specification by key."""
    try:
        return _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown dataset {key!r}; known datasets: {known}") from None


def load_dataset(key: str, scale: float = 1.0, seed: Optional[int] = None,
                 contact_scale: float = 1.0) -> ContactTrace:
    """Generate the named dataset (optionally scaled down).

    See :meth:`DatasetSpec.generator` for the meaning of *scale* (population)
    and *contact_scale* (per-node contact volume).
    """
    return dataset_spec(key).generate(scale=scale, seed=seed,
                                      contact_scale=contact_scale)


def paper_datasets(scale: float = 1.0) -> Dict[str, ContactTrace]:
    """All four paper windows, keyed by dataset key."""
    return {key: load_dataset(key, scale=scale) for key in PAPER_DATASET_KEYS}


def infocom06_9_12(scale: float = 1.0) -> ContactTrace:
    """The Infocom 2006 9AM-12PM stand-in (the paper's primary dataset)."""
    return load_dataset("infocom06-9-12", scale=scale)


def infocom06_3_6(scale: float = 1.0) -> ContactTrace:
    """The Infocom 2006 3PM-6PM stand-in."""
    return load_dataset("infocom06-3-6", scale=scale)


def conext06_9_12(scale: float = 1.0) -> ContactTrace:
    """The CoNExT 2006 9AM-12PM stand-in."""
    return load_dataset("conext06-9-12", scale=scale)


def conext06_3_6(scale: float = 1.0) -> ContactTrace:
    """The CoNExT 2006 3PM-6PM stand-in."""
    return load_dataset("conext06-3-6", scale=scale)


def infocom05(scale: float = 1.0) -> ContactTrace:
    """The Infocom 2005 stand-in used for replication."""
    return load_dataset("infocom05", scale=scale)
