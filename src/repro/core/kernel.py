"""Decision-kernel backend selection and driver-constant folding.

The hot functions live in :mod:`repro.core._kernel_hot` (one module, no
engine imports); this facade re-exports them and decides whether the
strategies run them at all, driven by the ``REPRO_KERNEL`` environment
variable:

``python`` (default)
    The batched pure-Python kernel — flat-array candidate builds and
    packed scoring.
``reference``
    Disables array batching entirely: strategies walk ``SubmitEntry``
    objects and score materialized plans exactly as before the batching
    refactor.  Kept as the semantic oracle for the equivalence tests.

Any other value warns and selects ``python``.

The batched path additionally requires the driver/link/cost types to use
the *stock* method implementations (:func:`constants_for` checks this);
an exotic subclass silently gets the reference walk, never wrong scores.
"""

from __future__ import annotations

import os
import warnings
from typing import TYPE_CHECKING

from repro.core._kernel_hot import (
    DriverConstants,
    PendingArrays,
    SeedBuild,
    build_eager_arrays,
    oversized_waiting_indices,
    probe_uniform_seeds,
    score_eager_packed,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.drivers.base import Driver

__all__ = [
    "ACTIVE_BACKEND",
    "KERNEL_BACKENDS",
    "PendingArrays",
    "DriverConstants",
    "SeedBuild",
    "build_eager_arrays",
    "probe_uniform_seeds",
    "oversized_waiting_indices",
    "score_eager_packed",
    "constants_for",
]

KERNEL_BACKENDS = ("python", "reference")

_ENV_VAR = "REPRO_KERNEL"


def _resolve_backend() -> str:
    requested = os.environ.get(_ENV_VAR, "python").strip().lower() or "python"
    if requested not in KERNEL_BACKENDS:
        warnings.warn(
            f"{_ENV_VAR}={requested!r} is not one of {KERNEL_BACKENDS}; "
            "using the default pure-Python kernel",
            RuntimeWarning,
            stacklevel=2,
        )
        return "python"
    return requested


ACTIVE_BACKEND = _resolve_backend()


def batching_enabled() -> bool:
    """Whether strategies should take the array fast path at all."""
    return ACTIVE_BACKEND != "reference"


def constants_for(driver: "Driver"):
    """The driver's :class:`DriverConstants`, folded once and cached.

    Everything in the result is derived from frozen capability/link
    dataclasses, so the fold is valid for the driver's lifetime; the
    only live callable retained is the NIC's ``reaches`` bound method
    (reachability can change under fault injection and must be
    re-queried per build).

    ``exact`` is ``False`` when the driver (or its link model, or a
    subclass) overrides any method the fold replicates — callers must
    then use the scalar reference path, because the folded arithmetic
    would no longer match the overridden behaviour.
    """
    consts = getattr(driver, "_kernel_constants", None)
    if consts is not None:
        return consts
    from repro.drivers.base import Driver as DriverBase
    from repro.network.model import LinkModel, TransferMode

    caps = driver.caps
    link = driver.nic.link
    cls = type(driver)
    exact = (
        cls.choose_mode is DriverBase.choose_mode
        and cls.wants_rendezvous is DriverBase.wants_rendezvous
        and cls.choose_aggregation is DriverBase.choose_aggregation
        and cls.occupancy is DriverBase.occupancy
        and cls.max_segments_per_packet is DriverBase.max_segments_per_packet
        and type(link) is LinkModel
    )
    if not caps.supports_pio:
        pio_limit = float("-inf")  # choose_mode: DMA always
    elif not caps.supports_dma:
        pio_limit = float("inf")  # choose_mode: PIO always
    else:
        pio_limit = min(float(caps.pio_threshold), link.pio_dma_crossover())
    startup_pio = link.startup(TransferMode.PIO)
    bandwidth_pio = link.bandwidth(TransferMode.PIO)
    startup_dma = link.startup(TransferMode.DMA)
    bandwidth_dma = link.bandwidth(TransferMode.DMA)
    consts = DriverConstants(
        max_aggregate_size=caps.max_aggregate_size,
        max_items_cap=driver.max_segments_per_packet(),
        rdv_threshold=caps.eager_threshold if caps.supports_rdv else None,
        supports_gather=caps.supports_gather,
        max_gather_entries=caps.max_gather_entries,
        gather_entry_cost=link.gather_entry_cost,
        copy_bandwidth=link.copy_bandwidth,
        pio_limit=pio_limit,
        startup_pio=startup_pio,
        bandwidth_pio=bandwidth_pio,
        startup_equiv_pio=startup_pio * bandwidth_pio,
        startup_dma=startup_dma,
        bandwidth_dma=bandwidth_dma,
        startup_equiv_dma=startup_dma * bandwidth_dma,
        reaches=driver.nic.reaches,
        exact=exact,
    )
    driver._kernel_constants = consts
    return consts
