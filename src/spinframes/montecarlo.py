"""Monte Carlo sampling of single and joint measurement outcomes.

Every draw is +/-1; only the averages reproduce the smooth cos(theta)
curves, so a run is held as its outcome counts, which fix its statistics.
Sampling is deterministic for a given seed: one Philox stream seeded by
SeedSequence(seed) draws the counts with a single multinomial call and,
when records are kept, then arranges the counted outcomes in a uniformly
random order. Each trial first gets an independent 16-bit label cut at
the counted shares; a few trials of each over-filled outcome, chosen at
random, then take the missing outcomes in a random order. Every step
treats all trials alike, so the order is exchangeable, and an
exchangeable order with fixed counts is uniform.

The four term seeds of `empirical_chsh` come from the plain-Python port
of numpy's SeedSequence in the private `_philox` module on every route.
Only the counts, for n up to 2**53, come by one of two routes, with the
same bits: a process that has not loaded numpy (a CLI process) draws them
with the port's Philox and multinomial when records are off, so it never
imports numpy; otherwise numpy's Generator draws them, as records need
its stream after the multinomial. The route moves time, never bytes.
"""
from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

from .bell import BellState, CHSHSetting, JointSetting, _chsh_combination, joint_distribution
from .errors import DomainError
from .spin import QubitState, UnitVector3, _check_integer, _numpy_loaded, _set, _Value, projection_probabilities

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

# largest n that both routes draw alike: every n the port converts to a float converts exactly
_MAX_TRIALS = 2**53

# resolution of the per-trial labels that _arrange cuts at the counted shares
_LABEL_BITS = 16


def _check_seed(seed: int) -> int:
    value = _check_integer(seed, "seed")
    if not 0 <= value <= _MAX_SEED:
        raise DomainError(f"seed must fit in an unsigned 64-bit integer, got {seed!r}")
    return value


class RunStats(_Value):
    """A sampled run of +/-1 outcomes, held as its outcome counts: (up,
    down) for a single-qubit run, or (pp, pm, mp, mm) for a joint run with
    Alice's outcome first. `mean` averages the per-trial value (the
    outcome, or for joint runs the outcome product), and `stderr` is the
    sample standard deviation of that value over sqrt(n).
    `conditional_means` maps Alice's outcome (+1 or -1) to Bob's average
    over the matching trials; it is empty for single-qubit runs and omits
    outcomes Alice never produced."""

    __slots__ = ("counts",)

    def __init__(self, counts: tuple[int, ...]):
        try:
            checked = tuple(_check_integer(c, "count") for c in counts)
        except TypeError:  # not iterable
            checked = ()
        if len(checked) not in (2, 4) or min(checked) < 0 or not sum(checked):
            raise DomainError(f"counts must be 2 or 4 integers >= 0 with a positive sum, got {counts!r}")
        _set(self, "counts", checked)

    def _plus_minus(self) -> tuple[int, int]:  # trials whose per-trial value is +1, and -1
        if len(self.counts) == 2:
            return self.counts
        pp, pm, mp, mm = self.counts
        return pp + mm, pm + mp

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def mean(self) -> float:
        plus, minus = self._plus_minus()
        return (plus - minus) / (plus + minus)

    @property
    def stderr(self) -> float:
        plus, minus = self._plus_minus()
        n = plus + minus
        return math.sqrt(4 * plus * minus / (n * n * (n - 1))) if n > 1 else 0.0

    @property
    def conditional_means(self) -> dict[int, float]:
        if len(self.counts) == 2:
            return {}
        pp, pm, mp, mm = self.counts
        bob = ((1, pp, pm), (-1, mp, mm))  # (Alice's outcome, Bob's up and down counts)
        return {sign: (up - down) / (up + down) for sign, up, down in bob if up + down}


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


def _draw(pvals, n: int, seed: int, keep_records: bool) -> tuple[list[int], np.ndarray | None]:
    """Counts of each label (index into `pvals`) over n trials, and the
    labels: the counted labels in a seeded random order, or None unless kept."""
    n = _check_integer(n, "n")
    if not 1 <= n <= _MAX_TRIALS:
        raise DomainError(f"n must lie in [1, {_MAX_TRIALS}], got {n}")
    seed = _check_seed(seed)
    if not keep_records and not _numpy_loaded():
        from ._philox import multinomial

        return multinomial(n, pvals, seed), None
    import numpy as np

    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    counts = gen.multinomial(n, pvals).tolist()
    return counts, _arrange(gen, counts) if keep_records else None


def sample_single(
    state: QubitState,
    setting: UnitVector3,
    n: int,
    seed: int,
    keep_records: bool = True,
) -> tuple[np.ndarray | None, RunStats]:
    """Sample n projections of `state` onto `setting`.

    Outcomes are +/-1 with p_up from the Born rule; the mean converges
    to cos(theta). Records are an int8 array of shape (n,) holding the
    outcomes in trial order; pass keep_records=False to get None instead
    (the statistics are unchanged); kept records need numpy.
    """
    dist = projection_probabilities(state, setting)
    counts, labels = _draw([dist.p_up, dist.p_down], n, seed, keep_records)
    return (None if labels is None else 1 - 2 * labels), RunStats(counts)


def sample_joint(
    state: BellState,
    setting: JointSetting,
    n: int,
    seed: int,
    keep_records: bool = True,
) -> tuple[np.ndarray | None, RunStats]:
    """Sample n joint trials of `state` at the given pair of settings.

    The run mean is the empirical correlation (the product of the two
    +/-1 outcomes per trial); conditional means give Bob's average for
    each value of Alice's outcome. Records are an int8 array of shape
    (n, 2) of (Alice, Bob) outcomes in trial order, or None when
    keep_records=False.
    """
    dist = joint_distribution(state, setting)
    counts, labels = _draw(dist.probabilities(), n, seed, keep_records)
    if labels is None:
        return None, RunStats(counts)
    import numpy as np

    # label (a << 1) | b holds the outcomes 1 - 2a for Alice and 1 - 2b for Bob
    return 1 - 2 * np.stack((labels >> 1, labels & 1), axis=1), RunStats(counts)


class EmpiricalCHSH(_Value):
    """CHSH estimate from four independently sampled correlations, one
    run per pair of `CHSHSetting.pairs`. `value` is S of the term means,
    in [-4, 4] as each mean lies in [-1, 1]; `stderr` adds the terms'
    standard errors in quadrature."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[RunStats, RunStats, RunStats, RunStats]):
        try:
            terms = tuple(terms)
        except TypeError:
            terms = ()
        if len(terms) != 4 or not all(isinstance(t, RunStats) for t in terms):
            raise DomainError(f"a CHSH estimate needs four RunStats terms, got {terms!r}")
        _set(self, "terms", terms)

    @property
    def value(self) -> float:
        return _chsh_combination(*(t.mean for t in self.terms))

    @property
    def stderr(self) -> float:
        # added left to right from +0.0, as sum() did up to Python 3.11; from
        # 3.12 sum() compensates float rounding, which moves the printed bits
        a, b, c, d = (t.stderr for t in self.terms)
        return math.sqrt(0.0 + a * a + b * b + c * c + d * d)


def empirical_chsh(
    state: BellState,
    setting: CHSHSetting,
    n_per_pair: int,
    seed: int,
) -> EmpiricalCHSH:
    """Estimate S by sampling each of the four correlations with its own
    sub-seed: the first uint64 of the state of each of the first four
    children that SeedSequence(seed) spawns, which `_philox` computes on
    either route."""
    from ._philox import spawned_seeds

    term_seeds = spawned_seeds(_check_seed(seed), 4)
    terms = []
    for (a, b), term_seed in zip(setting.pairs(), term_seeds):
        js = JointSetting.in_plane(setting.plane, a, b)
        terms.append(sample_joint(state, js, n_per_pair, term_seed, keep_records=False)[1])
    return EmpiricalCHSH(terms)
