"""RNG101 negative fixture: seeded twins of the bad fixture's constructions."""
import random

import numpy as np
from numpy.random import default_rng


def make_rngs(config):
    gen = random.Random(config.seed)
    np_gen = default_rng(config.seed)
    legacy = np.random.RandomState(seed=config.seed + 1)
    return gen, np_gen, legacy
