"""worldsim.randbelow draws as random.Random.randrange does.

The generator's datasets are pinned per seed, so the draw helper must give
the value randrange gives and leave the generator in the state randrange
leaves it in, on every CPython the package supports. This file needs
neither numpy nor pytest, so any interpreter can run it directly:

    PYTHONPATH=src python3.12 tests/test_draws.py
"""

import random
import sys

from mazenav.worldsim import randbelow

SEEDS = range(50)
# Every bound up to 1024 holds 2**k - 1, 2**k and 2**k + 1 for k <= 10;
# the larger ones take more than one 32-bit word of the generator.
BOUNDS = [*range(1, 1025), *(2 ** k + d for k in range(11, 70) for d in (-1, 0, 1))]


def test_value_and_state_equal_randrange_after_every_draw():
    for seed in SEEDS:
        ours, reference = random.Random(seed), random.Random(seed)
        for n in BOUNDS:
            assert randbelow(ours, n) == reference.randrange(n), (seed, n)
            assert ours.getstate() == reference.getstate(), (seed, n)


def test_bound_below_one_is_refused():
    for n in (0, -1, -8):
        try:
            randbelow(random.Random(0), n)
        except ValueError:
            continue
        raise AssertionError(f"randbelow(rng, {n}) did not raise")


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} passed on Python {sys.version.split()[0]}")
