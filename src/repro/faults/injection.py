"""Endurance budgets: when does a PE's usage count kill it?

The wear model of Section IV-B says a PE's stress-to-failure is Weibull
distributed. The ledger the engine keeps is the allocation count
``A_PE``, so the natural discrete fault model is: PE ``(u, v)`` dies
permanently once ``A_PE`` crosses an *endurance budget* sampled from
``Weibull(beta)`` scaled to a chosen mean. Budgets are drawn from a
:class:`numpy.random.SeedSequence`, matching the chunk-seeding
convention of :mod:`repro.reliability.montecarlo`: the sampled budgets
depend only on the seed and the array shape — never on how work is
later distributed over processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.arch.array import PEArray
from repro.errors import ConfigurationError
from repro.reliability.weibull import JEDEC_BETA
from repro.runtime.seeds import fresh_seed_sequence

Seed = Union[int, np.random.SeedSequence]


@dataclass(frozen=True)
class EnduranceBudgets:
    """Per-PE allocation budgets: a PE dies when ``A_PE >= budget``.

    ``budgets`` is a positive float array of the usage-ledger shape
    ``(h, w)``. Deterministic fault injection (explicit death points)
    is expressed by constructing budgets directly; stochastic wear-out
    by :func:`sample_endurance_budgets`.
    """

    budgets: np.ndarray

    def __post_init__(self) -> None:
        array = np.asarray(self.budgets, dtype=float)
        if array.ndim != 2:
            raise ConfigurationError(
                f"endurance budgets must be a 2-D array, got shape {array.shape}"
            )
        if not np.all(array > 0):
            raise ConfigurationError("endurance budgets must be positive")
        object.__setattr__(self, "budgets", array)

    @property
    def shape(self):
        """Ledger shape ``(h, w)`` the budgets apply to."""
        return self.budgets.shape

    def exceeded(self, counts: np.ndarray) -> np.ndarray:
        """Boolean mask of PEs whose usage has crossed their budget."""
        counts = np.asarray(counts)
        if counts.shape != self.budgets.shape:
            raise ConfigurationError(
                f"usage shape {counts.shape} does not match budget "
                f"shape {self.budgets.shape}"
            )
        return counts >= self.budgets

    @classmethod
    def uniform(cls, array: PEArray, budget: float) -> "EnduranceBudgets":
        """Every PE shares one deterministic budget."""
        if budget <= 0:
            raise ConfigurationError(f"budget must be positive, got {budget}")
        return cls(np.full(array.shape, float(budget)))


def sample_endurance_budgets(
    array: PEArray,
    mean_budget: float,
    beta: float = JEDEC_BETA,
    seed: Optional[Seed] = 2025,
    minimum: float = 1.0,
) -> EnduranceBudgets:
    """Draw per-PE Weibull endurance budgets with the given mean.

    The scale is ``mean_budget / Gamma(1 + 1/beta)`` so the sampled
    budgets average ``mean_budget`` allocations. ``minimum`` floors the
    draws (a PE that dies before its first allocation would make the
    zero-fault equivalence property vacuous). The draw depends only on
    ``(seed, array shape)`` — the same seed always yields the same
    budget field, regardless of process count or call site.
    """
    if mean_budget <= 0:
        raise ConfigurationError(f"mean budget must be positive, got {mean_budget}")
    if beta <= 0:
        raise ConfigurationError(f"Weibull beta must be positive, got {beta}")
    if minimum <= 0:
        raise ConfigurationError(f"minimum budget must be positive, got {minimum}")
    rng = np.random.default_rng(fresh_seed_sequence(seed))
    scale = mean_budget / math.gamma(1.0 + 1.0 / beta)
    draws = scale * rng.weibull(beta, size=array.shape)
    return EnduranceBudgets(np.maximum(draws, minimum))
