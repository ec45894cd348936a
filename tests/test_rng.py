import numpy as np
import pytest

from loopless.rng import SplitMix64, step_draws


def test_same_seed_same_stream():
    a, b = SplitMix64(123456789), SplitMix64(123456789)
    assert [a.next_uint64() for _ in range(100)] == [
        b.next_uint64() for _ in range(100)
    ]


def test_known_reference_values():
    # splitmix64 stream for seed 1234567, from the reference recurrence
    # evaluated independently with 64-bit integer arithmetic
    def ref_stream(seed, count):
        mask = (1 << 64) - 1
        s = seed & mask
        out = []
        for _ in range(count):
            s = (s + 0x9E3779B97F4A7C15) & mask
            z = s
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            out.append(z ^ (z >> 31))
        return out

    rng = SplitMix64(1234567)
    assert [rng.next_uint64() for _ in range(8)] == ref_stream(1234567, 8)


def test_random_in_unit_interval():
    rng = SplitMix64(7)
    draws = np.array([rng.random() for _ in range(20000)])
    assert ((0.0 <= draws) & (draws < 1.0)).all()
    assert abs(draws.mean() - 0.5) < 0.01


def test_randbelow_bounds_and_uniformity():
    rng = SplitMix64(99)
    n = 7
    draws = np.array([rng.randbelow(n) for _ in range(70000)])
    assert draws.min() >= 0 and draws.max() < n
    counts = np.bincount(draws, minlength=n)
    assert (abs(counts / len(draws) - 1 / n) < 0.01).all()


def test_randbelow_one_consumes_nothing():
    rng = SplitMix64(5)
    before = rng._state
    assert rng.randbelow(1) == 0
    assert rng._state == before


def test_randbelow_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(0).randbelow(0)


def test_bernoulli_certain_coin_consumes_nothing():
    rng = SplitMix64(11)
    before = rng._state
    assert rng.bernoulli(1.0) is True
    assert rng._state == before


def test_bernoulli_frequency():
    rng = SplitMix64(13)
    hits = sum(rng.bernoulli(0.3) for _ in range(100000))
    assert abs(hits / 100000 - 0.3) < 0.01


_GAMMA = 0x9E3779B97F4A7C15


@pytest.mark.parametrize(
    "seed",
    [0, 2**64 - 1, (-3 * _GAMMA) % 2**64],  # the last wraps to state 0 at word 3
)
def test_next_words_match_next_uint64(seed):
    block, serial = SplitMix64(seed), SplitMix64(seed)
    for count in (0, 1, 2, 64, 1000, 7):
        words = block.next_words(count)
        assert words.dtype == np.uint64
        assert [int(w) for w in words] == [serial.next_uint64() for _ in range(count)]
        assert block._state == serial._state


def test_step_draws_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        step_draws(SplitMix64(0), 0, 3, coin=False)


@pytest.mark.parametrize("n", [1, 2, 3, 64, 100, 129])
@pytest.mark.parametrize("coin", [False, True])
def test_step_draws_consume_the_serial_words(n, coin):
    # blocks of several sizes continue one serial stream of
    # randbelow(n) (then random() with a coin) calls
    block, serial = SplitMix64(2024 + n), SplitMix64(2024 + n)
    for steps in (0, 1, 300, 17):
        indices, uniforms = step_draws(block, n, steps, coin)
        expected_idx, expected_u = [], []
        for _ in range(steps):
            expected_idx.append(serial.randbelow(n))
            if coin:
                expected_u.append(serial.random())
        assert indices.tolist() == expected_idx
        if coin:
            assert uniforms.tolist() == expected_u
        else:
            assert uniforms is None
        assert block._state == serial._state
