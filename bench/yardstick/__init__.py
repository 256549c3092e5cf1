"""Frozen yardstick that measures how fast the machine runs learner code now.

`errors.py`, `ssp.py`, `linear_model.py`, `estimation.py` and `learner.py`
are verbatim copies of the `lrcssp` modules of the same names at the version
the benchmark was defined against (git 1a64eb8).  Never edit them: they are
the fixed work the benchmark's timings are calibrated against, so they must
stay the same while the package under test changes.

Why: on the 2-vCPU virtual machine the benchmark was built on, the speed of
this code drifts by up to 2x over tens of seconds, while a small
cache-resident loop run alongside it barely moves.  A run of the same code,
interleaved with the timed work, moves with the drift, so the benchmark
scales each raw time by NOMINAL over the mean of the yardstick samples taken
just before and just after it.
"""

import time

import numpy as np

from .learner import LearnerConfig, run
from .linear_model import GeneratorSpec, context_sequence, generate_instance

# Median yardstick sample on the reference machine; sets the scale of a
# calibrated second and must never change.
NOMINAL_WALL_S = 0.08
NOMINAL_CPU_S = 0.08


class Yardstick:
    """Fixed learner run at the acceptance reference config, sampled on demand."""

    def __init__(self):
        self.model = generate_instance(GeneratorSpec(
            d=2, n_states=5, n_actions=3, gamma_goal=0.1, l_min_target=0.1,
            seed=7))
        self.contexts = context_sequence("uniform", 60, 2,
                                         rng=np.random.default_rng(0))
        self.cfg = LearnerConfig(delta=0.1, l_min=0.1)
        self.wall = []
        self.cpu = []

    def sample(self):
        """Run the fixed work once; returns and keeps (wall, cpu) seconds."""
        c0 = time.process_time()
        t0 = time.perf_counter()
        run(self.cfg, self.model, self.contexts, seed=0)
        taken = (time.perf_counter() - t0, time.process_time() - c0)
        self.wall.append(taken[0])
        self.cpu.append(taken[1])
        return taken

    @staticmethod
    def scale(before, after):
        """(wall, cpu) factors turning raw seconds measured between two
        samples into calibrated seconds."""
        return (2.0 * NOMINAL_WALL_S / (before[0] + after[0]),
                2.0 * NOMINAL_CPU_S / (before[1] + after[1]))
