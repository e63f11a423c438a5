"""Monte Carlo sampling of single and joint measurement outcomes.

Every draw is +/-1; only the averages reproduce the smooth cos(theta)
curves, so a run's statistics depend only on its outcome counts.
Sampling is deterministic for a given seed: one Philox stream seeded by
SeedSequence(seed) draws the counts with a single multinomial call and,
when records are kept, then arranges the counted outcomes in a uniformly
random order. Each trial first gets an independent 16-bit label cut at
the counted shares; a few trials of each over-filled outcome, chosen at
random, then take the missing outcomes in a random order. Every step
treats all trials alike, so the order is exchangeable, and an
exchangeable order with fixed counts is uniform.
"""
from __future__ import annotations

import itertools
import math
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

from .bell import BellState, CHSHSetting, JointSetting, _chsh_combination, joint_distribution
from .errors import DomainError
from .spin import NOT_A_NUMBER, QubitState, UnitVector3, _check_integer, _set, _Value, projection_probabilities

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EmpiricalCHSH",
    "RNG_DISCIPLINE",
    "RunStats",
    "empirical_chsh",
    "sample_joint",
    "sample_single",
]

RNG_DISCIPLINE = "philox:seedsequence:multinomial-counts"

_MAX_SEED = 2**64 - 1

# Generator.multinomial takes n as a C long
_MAX_TRIALS = 2**63 - 1

# resolution of the per-trial labels that _arrange cuts at the counted shares
_LABEL_BITS = 16


def _check_seed(seed: int) -> int:
    value = _check_integer(seed, "seed")
    if not 0 <= value <= _MAX_SEED:
        raise DomainError(f"seed must fit in an unsigned 64-bit integer, got {seed!r}")
    return value


def _check_estimate(value: float, bound: float, stderr: float, what: str) -> None:
    """Raise DomainError unless value lies in [-bound, bound] and stderr is
    finite and >= 0; both comparisons are False for NaN."""
    inside = spread = False
    try:
        inside = -bound <= value <= bound
        spread = 0.0 <= stderr < math.inf
    except NOT_A_NUMBER:  # the first argument that is no real number fails its check
        pass
    if not inside:
        raise DomainError(f"{what} must lie in [{-bound:g}, {bound:g}], got {value!r}")
    if not spread:
        raise DomainError(f"stderr must be finite and >= 0, got {stderr!r}")


_NO_MEANS = MappingProxyType({})
_OUTCOMES = frozenset((1, -1))


class RunStats(_Value):
    """Summary of a sampled run of +/-1 outcomes.

    `mean` averages the per-trial value (the outcome for single runs,
    the outcome product for joint runs). `conditional_means` maps
    Alice's outcome (+1 or -1) to Bob's average over the matching
    trials, in [-1, 1]; it is empty for single-qubit runs and omits
    outcomes Alice never produced.
    """

    __slots__ = ("n", "mean", "stderr", "seed", "conditional_means")

    def __init__(self, n: int, mean: float, stderr: float, seed: int,
                 conditional_means: Mapping[int, float] = _NO_MEANS):
        n = _check_integer(n, "n")
        if n < 1:
            raise DomainError(f"n must be positive, got {n}")
        _check_estimate(mean, 1.0, stderr, "mean of +/-1 outcomes")
        try:
            means = dict(conditional_means)
            averages = (means.keys() <= _OUTCOMES and -1.0 <= means.get(1, 0.0) <= 1.0
                        and -1.0 <= means.get(-1, 0.0) <= 1.0)
        except NOT_A_NUMBER:
            averages = False
        if not averages:
            raise DomainError(f"conditional means must map +1 and -1 to values in [-1, 1], got {conditional_means!r}")
        _set(self, "n", n)
        _set(self, "mean", mean)
        _set(self, "stderr", stderr)
        _set(self, "seed", _check_seed(seed))
        _set(self, "conditional_means", MappingProxyType(means))

    def __reduce__(self):  # a mappingproxy cannot be pickled
        return RunStats, (self.n, self.mean, self.stderr, self.seed, dict(self.conditional_means))


def _ranked_positions(labels: np.ndarray, label: int, have: int, ranks: np.ndarray) -> np.ndarray:
    """Positions of the trials carrying `label` with the given ranks in
    trial order. The index is built over the label's own trials or, when
    they are the larger part, over the other trials, so it takes at most
    16/3 bytes per trial."""
    import numpy as np

    if 3 * have <= 2 * labels.size:
        return np.flatnonzero(labels == label)[ranks]
    others = np.flatnonzero(labels != label)
    others -= np.arange(others.size)  # trials of `label` before each other trial
    return ranks + np.searchsorted(others, ranks, side="right")


def _arrange(gen: np.random.Generator, counts: list[int]) -> np.ndarray:
    """A uniformly random int8 sequence holding counts[i] copies of label i."""
    import numpy as np

    n = sum(counts)
    # Python ints, so that the cuts cannot overflow
    cuts = [(c << _LABEL_BITS) // n for c in itertools.accumulate(counts[:-1])]
    u = gen.integers(0, 1 << _LABEL_BITS, n, dtype=np.uint16)
    labels = np.zeros(n, dtype=np.int8)
    above = [n]  # above[i]: trials labelled i or higher
    for cut in cuts:
        mask = u >= cut
        above.append(np.count_nonzero(mask))
        labels += mask
        del mask  # one mask alive at a time
    del u
    have = [a - b for a, b in zip(above, [*above[1:], 0])]
    freed = [
        _ranked_positions(labels, i, h, gen.choice(h, h - k, replace=False, shuffle=False))
        for i, (h, k) in enumerate(zip(have, counts))
        if h > k
    ]
    if freed:
        missing = [max(k - h, 0) for h, k in zip(have, counts)]
        fill = np.repeat(np.arange(len(counts), dtype=np.int8), missing)
        labels[np.concatenate(freed)] = gen.permutation(fill)
    return labels


def _draw(pvals, n: int, seed: int, keep_records: bool) -> tuple[list[int], np.ndarray]:
    """Counts of each label (index into `pvals`) over n trials, and the
    labels: the counted labels in a seeded random order, or none unless kept."""
    import numpy as np

    n = _check_integer(n, "n")
    if not 1 <= n <= _MAX_TRIALS:
        raise DomainError(f"n must lie in [1, {_MAX_TRIALS}], got {n}")
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(_check_seed(seed))))
    counts = gen.multinomial(n, pvals).tolist()
    labels = _arrange(gen, counts) if keep_records else np.zeros(0, dtype=np.int8)
    return counts, labels


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
    (up, down), labels = _draw([dist.p_up, dist.p_down], n, seed, keep_records)
    records = 1 - 2 * labels if keep_records else labels
    return records, _run_stats(seed, up, down)


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
    import numpy as np

    dist = joint_distribution(state, setting)
    (pp, pm, mp, mm), labels = _draw(dist.probabilities(), n, seed, keep_records)
    # label (a << 1) | b holds the outcomes 1 - 2a for Alice and 1 - 2b for Bob
    records = 1 - 2 * np.stack((labels >> 1, labels & 1), axis=1) if keep_records else labels.reshape(0, 2)
    conditional = {
        sign: (bob_up - bob_down) / (bob_up + bob_down)
        for sign, bob_up, bob_down in ((1, pp, pm), (-1, mp, mm))
        if bob_up + bob_down
    }
    return records, _run_stats(seed, pp + mm, pm + mp, conditional)


class EmpiricalCHSH(_Value):
    """CHSH estimate from four independently sampled correlations: S in
    [-4, 4], as each correlation lies in [-1, 1]."""

    __slots__ = ("value", "stderr", "terms", "seed")

    def __init__(self, value: float, stderr: float, terms: tuple[RunStats, RunStats, RunStats, RunStats],
                 seed: int):
        _check_estimate(value, 4.0, stderr, "CHSH estimate")
        try:
            terms = tuple(terms)
        except TypeError:
            terms = ()
        if len(terms) != 4 or not all(isinstance(t, RunStats) for t in terms):
            raise DomainError(f"a CHSH estimate needs four RunStats terms, got {terms!r}")
        _set(self, "value", value)
        _set(self, "stderr", stderr)
        _set(self, "terms", terms)
        _set(self, "seed", _check_seed(seed))


def empirical_chsh(
    state: BellState,
    setting: CHSHSetting,
    n_per_pair: int,
    seed: int,
) -> EmpiricalCHSH:
    """Estimate S by sampling each of the four correlations with its own
    sub-seed derived from `seed`; same inputs, same estimate."""
    import numpy as np

    seed = _check_seed(seed)
    term_seeds = np.random.SeedSequence(seed).spawn(4)
    stats = []
    for (a, b), child in zip(setting.pairs(), term_seeds):
        js = JointSetting.in_plane(setting.plane, a, b)
        term_seed = int(child.generate_state(1, dtype=np.uint64)[0])
        _, run = sample_joint(state, js, n_per_pair, term_seed, keep_records=False)
        stats.append(run)
    value = _chsh_combination(*(s.mean for s in stats))
    stderr = math.sqrt(sum(s.stderr**2 for s in stats))
    return EmpiricalCHSH(value, stderr, tuple(stats), seed)
