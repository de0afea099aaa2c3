"""sidenet: a message-transport network stack for featureless virtual NICs,
with a deterministic simulated fabric for desk-scale experiments.

The stack assumes nothing of its NIC beyond Ethernet frame I/O, one queue
pair per core, 256 descriptors per queue, and opaque receive-side scaling.
Flow-to-engine affinity is won back by spraying connection-setup packets
over random UDP port pairs until the hash cooperates; data then rides a
reliable, message-preserving transport with selective acknowledgments.
"""

from .channel import (CHANNEL_CAPACITY, Channel, ConnectError, FlowError,
                      FlowHandle, Message)
from .driver import Sim, ThreadedRuntime
from .engine import Engine, EnginePolicy, EngineStats
from .fabric import Fabric, FabricConfig, FourTuple, VirtualClock, toeplitz_hash
from .handshake import (MODE_NAIVE, MODE_OPTIMIZED, UdpPorts,
                        naive_batch_size, optimized_batch_exact,
                        optimized_batch_size, optimized_batch_total)
from .nic import Nic, QUEUE_DEPTH
from .stack import Stack, StackError, init
from .transport import Flow
from .wire import FRAGMENT_PAYLOAD, MAX_MESSAGE_BYTES, MTU

__version__ = "0.1.0"

__all__ = [
    "CHANNEL_CAPACITY", "Channel", "ConnectError",
    "FlowError", "FlowHandle", "Message", "Sim", "ThreadedRuntime",
    "Engine", "EnginePolicy", "EngineStats", "Fabric", "FabricConfig",
    "FourTuple", "VirtualClock", "toeplitz_hash", "MODE_NAIVE",
    "MODE_OPTIMIZED", "UdpPorts", "naive_batch_size",
    "optimized_batch_exact", "optimized_batch_size", "optimized_batch_total",
    "Nic", "QUEUE_DEPTH", "Stack", "StackError", "init",
    "Flow", "FRAGMENT_PAYLOAD", "MAX_MESSAGE_BYTES", "MTU",
]
