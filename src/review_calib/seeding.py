"""Deterministic random-stream derivation.

Every random draw in the toolkit comes from a numpy Generator addressed by
(master_seed, purpose, *indices). The address is turned into a
``SeedSequence(master_seed, spawn_key=(purpose, *indices))``, so streams are
independent and stable: adding repetitions, reordering cases, or running
cells concurrently never changes the draws of an already-addressed stream.

Purpose tags:

* ``PURPOSE_CONFERENCE`` -- conference structure (authors, papers, reviewers).
* ``PURPOSE_SCORES`` -- one stream per (noise case, repetition) score draw,
  addressed by the case's registry index and the repetition number.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, config_int

PURPOSE_CONFERENCE = 0
PURPOSE_SCORES = 1

MAX_SEED = 2**64 - 1


def check_master_seed(seed: int) -> int:
    """``seed`` as an int; ConfigurationError unless it is an integral number in [0, 2**64 - 1]."""
    if not 0 <= (seed := config_int(seed, "master seed")) <= MAX_SEED:
        raise ConfigurationError(f"master seed must fit in 64 bits, got {seed}")
    return seed


def stream(master_seed: int, purpose: int, *indices: int) -> np.random.Generator:
    """Generator for the stream addressed by (purpose, *indices)."""
    seed = check_master_seed(master_seed)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(purpose, *indices)))
