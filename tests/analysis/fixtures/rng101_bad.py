"""RNG101 positive fixture: three unseeded constructions, each drawing OS entropy."""
import random

import numpy as np
from numpy.random import default_rng

GEN = random.Random()          # RNG101: no seed expression
NP_GEN = default_rng()         # RNG101: numpy generator, unseeded
LEGACY = np.random.RandomState(None)  # RNG101: literal None is unseeded
