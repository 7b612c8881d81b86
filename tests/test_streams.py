"""substreams derives the keys of many paths in one pass; every generator it
builds draws what numpy's SeedSequence(seed, spawn_key=path) generator and
substream draw."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasmld import streams


def numpy_generator(seed, path):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))


@st.composite
def seed_and_paths(draw):
    """A seed in [0, 2**200], of any number of 32-bit words, and 1-50 paths
    of one depth in 1-4 drawn, with repeats, from a few distinct paths."""
    seed = draw(st.integers(0, 2 ** draw(st.integers(0, 200))))
    depth = draw(st.integers(1, 4))
    distinct = draw(st.lists(st.tuples(*[st.integers(0, 2 ** 32 - 1)] * depth),
                             min_size=1, max_size=10))
    paths = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=50))
    return seed, paths


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(case=seed_and_paths())
def test_keys_are_seed_sequence_keys(case):
    seed, paths = case
    rngs = list(streams.substreams(seed, paths))
    assert len(rngs) == len(paths)
    for path, rng in zip(paths, rngs):
        expected = np.random.SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)
        assert rng.bit_generator.state["state"]["key"].tolist() == expected.tolist()


@pytest.mark.parametrize("seed", [0, 14, 2 ** 32 - 1, 2 ** 32, 2 ** 130 + 7])
@pytest.mark.parametrize("paths", [
    [(streams.CHANNEL, 3)],
    [(streams.PAYLOAD, 5), (streams.NOISE, 5), (streams.EST_ERR, 5)],
    [(streams.TRIAL, trial, vi) for trial in range(4) for vi in range(3)],
    [(streams.GAS, 2, 0), (streams.GAS, 2, 1)] * 2,
    [()] * 4,
])
def test_draws_equal_substream_and_numpy(seed, paths):
    def draws(rng):
        return [rng.random(5).tobytes(), rng.standard_normal((3, 2)).tobytes(),
                rng.integers(0, 7, size=9).tobytes(), rng.uniform(-1.0, 1.0, 4).tobytes()]

    got = [draws(rng) for rng in streams.substreams(seed, paths)]
    assert got == [draws(streams.substream(seed, *path)) for path in paths]
    assert got == [draws(numpy_generator(seed, path)) for path in paths]


@pytest.mark.parametrize("paths", [[(2 ** 32,)], [(-1,)], [(1, 2), (3, 2 ** 32)],
                                   [(0, -1), (0, 0)], [(2 ** 70,), (0,)], [(1,), (1, 2)]])
def test_elements_outside_a_word_are_rejected(paths):
    # numpy would split an element of 2**32 or more into several words
    with pytest.raises(ValueError):
        streams.substreams(7, paths)


def test_an_empty_batch_yields_no_generator():
    assert list(streams.substreams(7, [])) == []


@pytest.mark.parametrize("n_paths", [2, 5])
def test_generators_are_built_as_they_are_taken(monkeypatch, n_paths):
    built = []
    generator = streams._generator

    def counted(key):
        built.append(key)
        return generator(key)

    monkeypatch.setattr(streams, "_generator", counted)
    rngs = streams.substreams(7, [(streams.TRIAL, trial, 0) for trial in range(n_paths)])
    assert built == []
    next(rngs)
    assert len(built) == 1
