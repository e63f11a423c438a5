"""Monte Carlo sampling of single and joint measurement outcomes.

Every draw is +/-1; only the averages reproduce the smooth cos(theta)
curves, so a run's statistics depend only on its outcome counts.
Sampling is deterministic for a given seed: one Philox stream seeded by
SeedSequence(seed) draws the counts with a single multinomial call and,
when records are kept, then a permutation of the counted outcomes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .bell import BellState, CHSHSetting, JointSetting, chsh_combination, joint_distribution
from .errors import DomainError
from .spin import QubitState, UnitVector3, projection_probabilities

RNG_DISCIPLINE = "philox:seedsequence:multinomial-counts"

_MAX_SEED = 2**64 - 1

# Generator.multinomial takes n as a C long
_MAX_TRIALS = 2**63 - 1

_SINGLE_OUTCOMES = np.array([1, -1], dtype=np.int8)
# outcome pairs indexed 0..3: (+,+), (+,-), (-,+), (-,-)
_PAIR_OUTCOMES = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=np.int8)


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise DomainError(f"seed must be an integer, got {seed!r}")
    if not 0 <= int(seed) <= _MAX_SEED:
        raise DomainError(f"seed must fit in an unsigned 64-bit integer, got {seed!r}")
    return int(seed)


@dataclass(frozen=True)
class RunStats:
    """Summary of a sampled run of +/-1 outcomes.

    `mean` averages the per-trial value (the outcome for single runs,
    the outcome product for joint runs). `conditional_means` maps
    Alice's outcome to Bob's average over the matching trials; it is
    empty for single-qubit runs and omits outcomes Alice never produced.
    """

    n: int
    mean: float
    stderr: float
    seed: int
    rng: str = RNG_DISCIPLINE
    conditional_means: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"n must be positive, got {self.n}")
        if not -1.0 <= self.mean <= 1.0:
            raise DomainError(f"mean of +/-1 outcomes must lie in [-1, 1], got {self.mean!r}")
        object.__setattr__(self, "conditional_means", MappingProxyType(dict(self.conditional_means)))


def _draw(
    outcomes: np.ndarray, pvals, n: int, seed: int, keep_records: bool
) -> tuple[list[int], np.ndarray]:
    """Counts of each row of `outcomes` over n trials, and the records:
    the counted rows in a seeded random order, or none unless kept."""
    if not 1 <= n <= _MAX_TRIALS:
        raise DomainError(f"n must lie in [1, {_MAX_TRIALS}], got {n}")
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(_check_seed(seed))))
    counts = gen.multinomial(n, pvals)
    records = outcomes[:0]
    if keep_records:
        # shuffle int8 row indices, not the rows: permuting rows costs an int64 index per trial
        order = np.repeat(np.arange(len(outcomes), dtype=np.int8), counts)
        gen.shuffle(order)
        records = outcomes[order]
    return [int(k) for k in counts], records


def _run_stats(seed: int, plus: int, minus: int, conditional=None) -> RunStats:
    """Stats of a run with `plus` values of +1 and `minus` values of -1;
    the stderr is the sample standard deviation over sqrt(n)."""
    n = plus + minus
    stderr = math.sqrt(4 * plus * minus / (n * n * (n - 1))) if n > 1 else 0.0
    return RunStats(n, (plus - minus) / n, stderr, seed, conditional_means=conditional or {})


def sample_single(
    state: QubitState,
    setting: UnitVector3,
    n: int,
    seed: int,
    keep_records: bool = True,
) -> tuple[np.ndarray, RunStats]:
    """Sample n projections of `state` onto `setting`.

    Outcomes are +/-1 with p_up from the Born rule; the mean converges
    to cos(theta). Records are an int8 array of shape (n,) holding the
    outcomes in trial order; pass keep_records=False to get an empty
    array instead (the statistics are unchanged).
    """
    dist = projection_probabilities(state, setting)
    (up, down), records = _draw(_SINGLE_OUTCOMES, [dist.p_up, dist.p_down], n, seed, keep_records)
    return records, _run_stats(int(seed), up, down)


def sample_joint(
    state: BellState,
    setting: JointSetting,
    n: int,
    seed: int,
    keep_records: bool = True,
) -> tuple[np.ndarray, RunStats]:
    """Sample n joint trials of `state` at the given pair of settings.

    The run mean is the empirical correlation (the product of the two
    +/-1 outcomes per trial); conditional means give Bob's average for
    each value of Alice's outcome. Records are an int8 array of shape
    (n, 2) of (Alice, Bob) outcomes in trial order, empty (0, 2) when
    keep_records=False.
    """
    dist = joint_distribution(state, setting)
    (pp, pm, mp, mm), records = _draw(_PAIR_OUTCOMES, dist.probabilities(), n, seed, keep_records)
    conditional = {
        sign: (bob_up - bob_down) / (bob_up + bob_down)
        for sign, bob_up, bob_down in ((1, pp, pm), (-1, mp, mm))
        if bob_up + bob_down
    }
    return records, _run_stats(int(seed), pp + mm, pm + mp, conditional)


@dataclass(frozen=True)
class EmpiricalCHSH:
    """CHSH estimate from four independently sampled correlations."""

    value: float
    stderr: float
    terms: tuple[RunStats, RunStats, RunStats, RunStats]
    seed: int

    def __float__(self) -> float:
        return self.value


def empirical_chsh(
    state: BellState,
    setting: CHSHSetting,
    n_per_pair: int,
    seed: int,
) -> EmpiricalCHSH:
    """Estimate S by sampling each of the four correlations with its own
    sub-seed derived from `seed`; same inputs, same estimate."""
    term_seeds = np.random.SeedSequence(_check_seed(seed)).spawn(4)
    stats = []
    for (a, b), child in zip(setting.pairs(), term_seeds):
        js = JointSetting.in_plane(setting.plane, a, b)
        term_seed = int(child.generate_state(1, dtype=np.uint64)[0])
        _, run = sample_joint(state, js, n_per_pair, term_seed, keep_records=False)
        stats.append(run)
    value = chsh_combination(*(s.mean for s in stats))
    stderr = math.sqrt(sum(s.stderr**2 for s in stats))
    return EmpiricalCHSH(value, stderr, tuple(stats), _check_seed(seed))
