"""Deterministic chunked random streams.

Every sampler draws through Philox, a counter-based 64-bit generator,
keyed per chunk by SeedSequence(seed, spawn_key=(tag, chunk_index)).
Work is split into fixed-size chunks of DEFAULT_CHUNK points; each chunk
owns an independent stream and the results are assembled in chunk order.
The chunks are filled one after another, so outputs are a pure
function of (seed, tag, parameters).

The tag separates draw purposes (uniform cube points vs exponential
sums, say); it is derived from a short name by crc32, which is stable
across platforms and runs.
"""

from __future__ import annotations

import zlib
from typing import Callable

import numpy as np

from .errors import DomainError

DEFAULT_CHUNK = 16384


def stream_tag(name: str) -> int:
    return zlib.crc32(name.encode("ascii"))


def chunk_generator(seed: int, tag: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(tag), int(chunk_index)))
    return np.random.Generator(np.random.Philox(ss))


def generate(seed: int, name: str, count: int,
             fill: Callable[[np.random.Generator, int], np.ndarray]) -> np.ndarray:
    """Assemble fill(generator, m) over DEFAULT_CHUNK chunks, in index order.

    fill must draw exactly the same variates for a given m regardless of
    context; it receives the chunk's own generator.
    """
    count = int(count)
    if count <= 0:
        raise DomainError(f"need count >= 1, got {count}")
    tag = stream_tag(name)
    parts = [np.asarray(fill(chunk_generator(seed, tag, i), min(DEFAULT_CHUNK, count - lo)))
             for i, lo in enumerate(range(0, count, DEFAULT_CHUNK))]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)
