"""Grover adaptive search workbench for overloaded-MIMO multiuser detection."""

from .channel import (PSK2, QPSK, ChannelInstance, SystemConfig, generate_instance, received_slots,
                      slot_draws)
from .errors import CapacityError, ConfigError
from .spaces import HADAMARD_FULL, W_STATE_REDUCED, VarRegistry

__version__ = "0.1.0"

__all__ = [
    "PSK2", "QPSK", "ChannelInstance", "SystemConfig", "generate_instance",
    "received_slots", "slot_draws", "CapacityError", "ConfigError", "HADAMARD_FULL",
    "W_STATE_REDUCED", "VarRegistry",
    "__version__",
]
