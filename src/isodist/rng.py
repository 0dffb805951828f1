"""Deterministic chunked random streams.

Every sampler draws through SFC64, a small fast 64-bit generator,
keyed per chunk by SeedSequence(seed, spawn_key=(tag, chunk_index));
the chunks owe their independence to that keying, not to the generator.
The streams were Philox, a counter-based generator whose cost per word
was a large share of every sampler's time and bought jumping and
advancing a stream, which nothing here does.
Work is split into fixed-size chunks of DEFAULT_CHUNK points; each chunk
owns an independent stream and its points are copied, in chunk order,
into a batch allocated once.
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

from .bodies import _validate_n

DEFAULT_CHUNK = 16384


def stream_tag(name: str) -> int:
    return zlib.crc32(name.encode("ascii"))


def chunk_generator(seed: int, tag: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(tag), int(chunk_index)))
    return np.random.Generator(np.random.SFC64(ss))


def generate(seed: int, name: str, count: int,
             fill: Callable[[np.random.Generator, int], np.ndarray]) -> np.ndarray:
    """Assemble fill(generator, m) over DEFAULT_CHUNK chunks, in index order.

    fill must draw exactly the same variates for a given m regardless of
    context; it receives the chunk's own generator.  A batch of one chunk
    is the fill's own array.  A longer batch is allocated once, with the
    first chunk's trailing shape and dtype, and each chunk is copied into
    its rows and dropped, so the peak is the batch plus one chunk and
    whatever else the fill holds while it draws.
    count >= 1 and seed >= 0 are read like a dimension n: a fractional,
    infinite or NaN value raises DomainError instead of being truncated.
    """
    count = _validate_n(count, 1)
    seed = _validate_n(seed, 0)
    tag = stream_tag(name)
    for i, lo in enumerate(range(0, count, DEFAULT_CHUNK)):
        m = min(DEFAULT_CHUNK, count - lo)
        part = np.asarray(fill(chunk_generator(seed, tag, i), m))
        if m == count:
            return part
        if lo == 0:
            out = np.empty((count, *part.shape[1:]), dtype=part.dtype)
        out[lo:lo + m] = part
        del part  # dropped before the next chunk is drawn
    return out
