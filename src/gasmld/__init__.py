"""Grover adaptive search workbench for overloaded-MIMO multiuser detection."""

from .channel import (PSK2, QPSK, ChannelInstance, SystemConfig, generate_instance, received_slots,
                      slot_draws)
from .errors import CapacityError, ConfigError
from .hubo import HADAMARD_FULL, W_STATE_REDUCED, HuboPolynomial, VarRegistry, build_hubo

__version__ = "0.1.0"

__all__ = [
    "PSK2", "QPSK", "ChannelInstance", "SystemConfig", "generate_instance",
    "received_slots", "slot_draws", "CapacityError", "ConfigError", "HADAMARD_FULL",
    "W_STATE_REDUCED", "HuboPolynomial", "VarRegistry", "build_hubo",
    "__version__",
]
