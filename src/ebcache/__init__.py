"""Cache-aided erasure broadcast delivery: analytic rate/length engine
and packet-level simulator that cross-validate each other."""

from .model import (Demand, RateVector, SystemConfig,
                    is_one_sided_fair, load_config)
from .placement import (PlacementMap, centralized_placement,
                        decentralized_placement, unknown_fraction)
from .delivery import SimResult, run_delivery, run_order_start
from .fastsim import run_delivery_lengths

__all__ = [
    "Demand", "RateVector", "SystemConfig",
    "is_one_sided_fair", "load_config",
    "PlacementMap", "centralized_placement", "decentralized_placement",
    "unknown_fraction", "SimResult", "run_delivery", "run_order_start",
    "run_delivery_lengths",
]

__version__ = "0.1.0"
