"""Deterministic derivation of independent random streams.

Every sampler in this package consumes a ``numpy.random.Generator``. For
replica-parallel work each (replica, purpose) pair gets its own SFC64
stream, keyed by a ``SeedSequence`` on a single master seed, so results
never depend on scheduling or worker count.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_stream", "derive_block_stream", "name_key"]


def name_key(stream_name: str) -> int:
    """Stable 64-bit key for a stream name (first 8 bytes of SHA-256)."""
    digest = hashlib.sha256(stream_name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_stream(master_seed: int, replica_index: int, stream_name: str) -> np.random.Generator:
    """Derive the random stream for one (replica, purpose) pair.

    The derivation is a keyed construction: the master seed is the entropy
    of a ``SeedSequence`` and (replica index, hashed stream name) form the
    spawn key. Distinct pairs yield statistically independent SFC64
    streams (the ``SeedSequence`` hashing decorrelates their states), and
    the same triple always yields the same stream.
    """
    ss = np.random.SeedSequence(
        entropy=int(master_seed),
        spawn_key=(int(replica_index), name_key(stream_name)),
    )
    return np.random.Generator(np.random.SFC64(ss))


def derive_block_stream(master_seed: int, block_index: int, stream_name: str) -> np.random.Generator:
    """Stream for a fixed block of replicas in a vectorized sampler.

    Vectorized kernels draw for ``block_size`` replicas at once from a
    single stream keyed by the block index. Block boundaries are a fixed
    function of the replica index (never of the worker count), so the
    replica-to-stream mapping stays deterministic under any scheduling.
    """
    return derive_stream(master_seed, block_index, "block:" + stream_name)
