"""Seed handling shared by every Monte Carlo entry point."""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

__all__ = ["fresh_seed_sequence"]


def fresh_seed_sequence(
    seed: Optional[Union[int, np.random.SeedSequence]],
) -> np.random.SeedSequence:
    """A new :class:`~numpy.random.SeedSequence` for ``seed``, never the caller's.

    ``SeedSequence.spawn`` advances the parent's child counter, so
    spawning from a caller's sequence would make a second identical call
    draw different children, and sharing one sequence across several
    samplings (the common-random-numbers brackets) would tie the draws
    to call order and to whether tasks ran in-process or in pickled
    workers. Rebuilding from ``(entropy, spawn_key)`` pins every draw to
    the sequence's identity alone.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(entropy=seed.entropy, spawn_key=seed.spawn_key)
    return np.random.SeedSequence(seed)
