import numpy as np
import pytest

import oracles

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


def test_count_and_seed_must_be_integral():
    want = generate(2, "demo", 3, unit_fill)
    assert np.array_equal(generate(np.int64(2), "demo", 3.0, unit_fill), want)
    for count in (2.7, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            generate(1, "demo", count, unit_fill)
    for seed in (2.5, float("nan"), float("inf"), -1):
        with pytest.raises(DomainError):
            generate(seed, "demo", 3, unit_fill)


def test_streams_are_pinned():
    # SFC64 words and doubles of chunks 0 and 1 for (seed 42, tag "demo").
    # Raw bits, not distribution values: numpy keeps bit-generator streams
    # stable across versions (NEP 19) but may change how a Generator turns
    # them into variates.  random() is the top 53 bits of one word.
    tag = stream_tag("demo")
    assert tag == 3594706848
    pins = {
        0: ([0x1ac84cec0331d931, 0x1320c822ccd474c7, 0x3a2a9d99fa73673c, 0x240be9b61018db85],
            "0x1.ac84cec0331d8p-4", "0x1.a8d9094896f23p-1"),
        1: ([0x961adbd181f4bfe9, 0x017035ac6dcbe207, 0x8e48e62d60e292e6, 0xa6c924ccd21a0fc5],
            "0x1.2c35b7a303e97p-1", "0x1.4ad0346c5b848p-2"),
    }
    for chunk, (words, first, last) in pins.items():
        raw = chunk_generator(42, tag, chunk).bit_generator.random_raw(4)
        assert [int(w) for w in raw] == words
        u = chunk_generator(42, tag, chunk).random(DEFAULT_CHUNK)
        assert u[0] == float.fromhex(first) == (words[0] >> 11) * 2.0**-53
        assert u[-1] == float.fromhex(last)


def test_streams_are_uncorrelated():
    # Pearson correlation of m uniforms from two streams has standard
    # error 1/sqrt(m) when they are independent; hold it to 5 of them
    m = DEFAULT_CHUNK
    tag = stream_tag("demo")
    pairs = [
        (chunk_generator(5, tag, 0).random(m), chunk_generator(5, tag, 1).random(m)),
        (generate(5, "demo", m, unit_fill), generate(6, "demo", m, unit_fill)),
        (generate(5, "demo", m, unit_fill), generate(5, "other", m, unit_fill)),
    ]
    for a, b in pairs:
        assert abs(np.corrcoef(a, b)[0, 1]) < 5 / np.sqrt(m)


@pytest.mark.parametrize("count", [1, DEFAULT_CHUNK, DEFAULT_CHUNK + 1, 3 * DEFAULT_CHUNK + 5])
def test_generate_is_the_concatenated_chunks(count):
    # the batch is allocated once, with the first chunk's trailing shape and
    # dtype, and each chunk copied into its rows
    fills = (unit_fill, lambda g, m: g.random((m, 2, 3)),
             lambda g, m: g.integers(0, 2**40, (m, 2)), lambda g, m: g.random((m, 1)) < 0.5)
    for fill in fills:
        got = generate(9, "demo", count, fill)
        want = oracles.generate_concat(9, "demo", count, fill, DEFAULT_CHUNK)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_one_chunk_is_the_fills_own_array():
    made = []

    def fill(g, m):
        made.append(g.random((m, 4)))
        return made[-1]
    for count in (1, 777, DEFAULT_CHUNK):
        assert generate(1, "demo", count, fill) is made[-1]
