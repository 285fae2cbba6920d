"""Shared utilities: deterministic RNG helpers and the varint codec.

Timing primitives (``Stopwatch``, ``format_duration``) live in
:mod:`repro.obs.clock`; the ``repro.utils.timers`` shim that used to
re-export them here has been removed.
"""

from .rng import rng_from_seed, spawn_rng
from .varint import decode_uvarint, decode_uvarint_list, encode_uvarint, encode_uvarint_list

__all__ = [
    "rng_from_seed",
    "spawn_rng",
    "encode_uvarint",
    "decode_uvarint",
    "encode_uvarint_list",
    "decode_uvarint_list",
]
