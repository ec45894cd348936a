import numpy as np
import pytest

from loopless.rng import SplitMix64, _uniforms, step_draws

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SerialReference:
    """The splitmix64 recurrence one word at a time in Python integers, and
    the scalar draws spelled out on it: the reference for every draw of
    loopless.rng."""

    def __init__(self, seed):
        self.state = seed & _MASK64

    def next_uint64(self):
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self):
        """Uniform double in [0, 1): the top 53 bits of one word."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def randbelow(self, n):
        """Bit-mask rejection, no word at n = 1."""
        if n == 1:
            return 0
        mask = (1 << (n - 1).bit_length()) - 1
        while True:
            r = self.next_uint64() & mask
            if r < n:
                return r

    def bernoulli(self, p):
        """random() < p, no word at p >= 1."""
        if p >= 1.0:
            return True
        return self.random() < p


def ref_stream(seed, count):
    reference = SerialReference(seed)
    return [reference.next_uint64() for _ in range(count)]


def test_same_seed_same_stream():
    a, b = SplitMix64(123456789), SplitMix64(123456789)
    assert a.next_words(100).tolist() == b.next_words(100).tolist()


def test_known_reference_values():
    # the first splitmix64 outputs for seed 0, as published with the
    # generator, pin the reference recurrence itself
    assert ref_stream(0, 3) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                                0x06C45D188009454F]
    rng = SplitMix64(1234567)
    assert [int(w) for w in rng.next_words(8)] == ref_stream(1234567, 8)


def test_random_in_unit_interval():
    # the coin uniforms of step_draws; the extreme words map to 0 and 1 - 2^-53
    _, draws = step_draws(SplitMix64(7), 5, 20000, coin=True)
    assert ((0.0 <= draws) & (draws < 1.0)).all()
    assert abs(draws.mean() - 0.5) < 0.01
    extremes = _uniforms(np.array([0, _MASK64], dtype=np.uint64))
    assert extremes.tolist() == [0.0, 1.0 - 2.0**-53]


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


@pytest.mark.parametrize(
    "seed",
    [0, 2**64 - 1, (-3 * _GAMMA) % 2**64],  # the last wraps to state 0 at word 3
)
def test_next_words_match_next_uint64(seed):
    block, serial = SplitMix64(seed), SerialReference(seed)
    for count in (0, 1, 2, 64, 1000, 7):
        words = block.next_words(count)
        assert words.dtype == np.uint64
        assert [int(w) for w in words] == [serial.next_uint64() for _ in range(count)]
        assert block._state == serial.state


def test_step_draws_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        step_draws(SplitMix64(0), 0, 3, coin=False)


@pytest.mark.parametrize("n", [1, 2, 3, 64, 100, 129])
@pytest.mark.parametrize("coin", [False, True])
def test_step_draws_consume_the_serial_words(n, coin):
    # blocks of several sizes continue one serial stream of
    # randbelow(n) (then random() with a coin) calls
    block, serial = SplitMix64(2024 + n), SerialReference(2024 + n)
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
        assert block._state == serial.state


# -- the one-call draws against the serial reference --------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 2**20, 2**20 + 1, 10**18, 2**63 + 1])
@pytest.mark.parametrize("p", [0.0, 1e-300, 0.5, 1.0, 1.5])
def test_draws_match_next_uint64_reference(n, p):
    for seed in [0, 1, 2**64 - 1, *range(1000, 1040)]:
        fast, slow = SplitMix64(seed), SerialReference(seed)
        for _ in range(25):  # a step's draws: the index, then the coin
            assert fast.randbelow(n) == slow.randbelow(n)
            assert fast.bernoulli(p) is slow.bernoulli(p)
            assert fast._state == slow.state
