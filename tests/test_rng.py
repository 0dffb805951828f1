import numpy as np
import pytest

from isodist import DomainError
from isodist.rng import DEFAULT_CHUNK, chunk_generator, generate, stream_tag


def unit_fill(g, m):
    return g.random(m)


def test_generate_is_deterministic():
    a = generate(42, "demo", 50_000, unit_fill)
    b = generate(42, "demo", 50_000, unit_fill)
    assert np.array_equal(a, b)
    c = generate(43, "demo", 50_000, unit_fill)
    assert not np.array_equal(a, c)


def test_streams_separate_by_name():
    a = generate(42, "demo", 1000, unit_fill)
    b = generate(42, "other", 1000, unit_fill)
    assert not np.array_equal(a, b)
    assert stream_tag("demo") != stream_tag("other")


def test_partial_chunk_and_explicit_default_agree():
    count = DEFAULT_CHUNK + 777
    a = generate(7, "demo", count, unit_fill)
    # one full DEFAULT_CHUNK from chunk 0, then the 777 left from chunk 1
    tag = stream_tag("demo")
    b = np.concatenate([unit_fill(chunk_generator(7, tag, 0), DEFAULT_CHUNK),
                        unit_fill(chunk_generator(7, tag, 1), 777)])
    assert a.shape == (count,)
    assert np.array_equal(a, b)


def test_prefix_stability_across_counts():
    # chunk layout makes shorter runs a prefix of longer ones
    long = generate(3, "demo", 3 * DEFAULT_CHUNK, unit_fill)
    short = generate(3, "demo", 2 * DEFAULT_CHUNK, unit_fill)
    assert np.array_equal(long[: short.size], short)


def test_chunk_generator_keying():
    g0 = chunk_generator(5, 9, 0)
    g0b = chunk_generator(5, 9, 0)
    g1 = chunk_generator(5, 9, 1)
    a, b, c = g0.random(8), g0b.random(8), g1.random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_generate_rejects_empty():
    with pytest.raises(ValueError):
        generate(1, "demo", 0, unit_fill)
    with pytest.raises(DomainError):
        generate(1, "demo", -3, unit_fill)
