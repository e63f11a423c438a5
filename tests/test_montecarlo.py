import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from spinframes import (
    ALL_BELL_STATES,
    Angle,
    CHSHSetting,
    DomainError,
    EnsembleTable,
    JointSetting,
    PHI_PLUS,
    RNG_DISCIPLINE,
    RunStats,
    SINGLET,
    TSIRELSON_BOUND,
    Z_AXIS,
    ZX_PLANE,
    build_exact_ensemble,
    empirical_chsh,
    joint_distribution,
    prepare_state,
    projection_probabilities,
    sample_joint,
    sample_single,
)
from spinframes.montecarlo import _arrange, _ranked_positions

UP_STATE = prepare_state(Z_AXIS)


def tilted(deg: float):
    return ZX_PLANE.direction(Angle.from_degrees(deg))


class TestSeeds:
    def test_seed_must_be_u64(self):
        with pytest.raises(DomainError):
            sample_single(UP_STATE, tilted(60.0), 10, seed=-1)
        with pytest.raises(DomainError):
            sample_single(UP_STATE, tilted(60.0), 10, seed=2**64)
        with pytest.raises(DomainError):
            sample_single(UP_STATE, tilted(60.0), 10, seed=1.5)

    def test_n_must_be_positive(self):
        with pytest.raises(DomainError):
            sample_single(UP_STATE, tilted(60.0), 0, seed=1)
        with pytest.raises(DomainError):
            sample_joint(SINGLET, JointSetting.in_plane(ZX_PLANE, Angle(0.0), Angle(0.5)), 0, seed=1)

    def test_n_must_fit_the_multinomial_draw(self):
        with pytest.raises(DomainError):
            sample_single(UP_STATE, tilted(60.0), 2**63, seed=1, keep_records=False)
        with pytest.raises(DomainError):
            sample_joint(
                SINGLET, JointSetting.in_plane(ZX_PLANE, Angle(0.0), Angle(0.5)), 2**63, seed=1,
                keep_records=False,
            )
        _, stats = sample_single(UP_STATE, tilted(60.0), 2**63 - 1, seed=1, keep_records=False)
        assert stats.n == 2**63 - 1
        assert abs(stats.mean - 0.5) < 1e-6


SIXTY = Angle.from_degrees(60.0)
CHSH_SETTING = CHSHSetting(*map(Angle.from_degrees, (0.0, 90.0, 45.0, 135.0)))


@pytest.mark.parametrize("call", [
    lambda: build_exact_ensemble(SIXTY, 8.0),
    lambda: build_exact_ensemble(Angle(0.0), True),
    lambda: EnsembleTable(1.5, 2),
    lambda: EnsembleTable(6, False),
    lambda: sample_single(UP_STATE, tilted(60.0), 10.5, seed=1),
    lambda: sample_single(UP_STATE, tilted(60.0), True, seed=1),
    lambda: sample_joint(SINGLET, JointSetting.in_plane(ZX_PLANE, Angle(0.0), SIXTY), np.float64(100.0), seed=1),
    lambda: empirical_chsh(SINGLET, CHSH_SETTING, 100.0, seed=1),
], ids=["ensemble-float", "ensemble-bool", "table-float", "table-bool", "single-float", "single-bool",
        "joint-numpy-float", "chsh-float"])
def test_integer_arguments_reject_non_integers(call):
    with pytest.raises(DomainError, match="must be an integer"):
        call()


def test_numpy_integer_arguments_become_ints():
    table = build_exact_ensemble(SIXTY, np.int64(8))
    counts = (table.bob_up_given_alice_up, table.bob_down_given_alice_up)
    assert counts == (6, 2) and all(type(c) is int for c in counts)
    records, stats = sample_single(UP_STATE, tilted(60.0), np.int32(10), seed=np.uint64(3))
    assert records.shape == (10,) and type(stats.n) is int and stats.n == 10


class TestDeterminism:
    def test_same_seed_same_records(self):
        r1, s1 = sample_single(UP_STATE, tilted(60.0), 500, seed=42)
        r2, s2 = sample_single(UP_STATE, tilted(60.0), 500, seed=42)
        assert np.array_equal(r1, r2)
        assert s1 == s2

    def test_same_seed_same_records_sharded(self):
        setting = JointSetting.in_plane(ZX_PLANE, Angle(0.0), Angle.from_degrees(45.0))
        r1, s1 = sample_joint(PHI_PLUS, setting, 501, seed=7)
        r2, s2 = sample_joint(PHI_PLUS, setting, 501, seed=7)
        assert np.array_equal(r1, r2)
        assert s1 == s2

    def test_different_seeds_differ(self):
        _, s1 = sample_single(UP_STATE, tilted(60.0), 2000, seed=1, keep_records=False)
        _, s2 = sample_single(UP_STATE, tilted(60.0), 2000, seed=2, keep_records=False)
        assert s1.mean != s2.mean

    def test_keep_records_does_not_change_stats(self):
        _, s1 = sample_single(UP_STATE, tilted(60.0), 1000, seed=3, keep_records=True)
        _, s2 = sample_single(UP_STATE, tilted(60.0), 1000, seed=3, keep_records=False)
        assert s1 == s2

    def test_keep_records_does_not_change_joint_stats(self):
        setting = JointSetting.in_plane(PHI_PLUS.plane, Angle(0.0), Angle.from_degrees(60.0))
        records, s1 = sample_joint(PHI_PLUS, setting, 1000, seed=3, keep_records=True)
        empty, s2 = sample_joint(PHI_PLUS, setting, 1000, seed=3, keep_records=False)
        assert s1 == s2
        assert records.shape == (1000, 2) and empty.shape == (0, 2)

    def test_empirical_chsh_reproducible(self):
        setting = CHSHSetting(
            Angle(0.0), Angle.from_degrees(90.0), Angle.from_degrees(45.0),
            Angle.from_degrees(135.0), ZX_PLANE,
        )
        e1 = empirical_chsh(SINGLET, setting, 2000, seed=11)
        e2 = empirical_chsh(SINGLET, setting, 2000, seed=11)
        assert e1 == e2

    def test_empirical_chsh_terms_rerun_at_their_sub_seeds(self):
        setting = CHSHSetting(
            Angle(0.0), Angle.from_degrees(90.0), Angle.from_degrees(45.0),
            Angle.from_degrees(135.0), ZX_PLANE,
        )
        est = empirical_chsh(SINGLET, setting, 2000, seed=11)
        children = np.random.SeedSequence(11).spawn(4)
        for term, (a, b), child in zip(est.terms, setting.pairs(), children):
            term_seed = int(child.generate_state(1, dtype=np.uint64)[0])
            js = JointSetting.in_plane(ZX_PLANE, a, b)
            _, again = sample_joint(SINGLET, js, 2000, term_seed, keep_records=False)
            assert term == again


class TestOutcomes:
    def test_records_are_plus_minus_one(self):
        records, _ = sample_single(UP_STATE, tilted(60.0), 300, seed=5)
        assert records.shape == (300,)
        assert set(np.unique(records)) <= {1, -1}

    def test_joint_records_are_plus_minus_one(self):
        setting = JointSetting.in_plane(ZX_PLANE, Angle(0.0), Angle.from_degrees(60.0))
        records, _ = sample_joint(PHI_PLUS, setting, 300, seed=5)
        assert records.shape == (300, 2)
        assert set(np.unique(records[:, 0])) <= {1, -1}
        assert set(np.unique(records[:, 1])) <= {1, -1}

    def test_aligned_setting_is_deterministic(self):
        _, stats = sample_single(UP_STATE, Z_AXIS, 1000, seed=9, keep_records=False)
        assert stats.mean == 1.0
        assert stats.stderr == 0.0

    def test_singlet_equal_settings_always_anticorrelated(self):
        setting = JointSetting.in_plane(ZX_PLANE, Angle(0.7), Angle(0.7))
        records, stats = sample_joint(SINGLET, setting, 500, seed=13)
        assert stats.mean == -1.0
        assert records.shape == (500, 2)
        assert np.all(records[:, 0] != records[:, 1])

    def test_triplet_equal_settings_always_correlated(self):
        setting = JointSetting.in_plane(PHI_PLUS.plane, Angle(1.1), Angle(1.1))
        records, stats = sample_joint(PHI_PLUS, setting, 500, seed=13)
        assert stats.mean == 1.0
        assert records.shape == (500, 2)
        assert np.all(records[:, 0] == records[:, 1])


class TestConvergence:
    def test_single_means_within_five_sigma(self):
        n = 40000
        for deg in range(0, 181, 9):  # 21 grid angles
            _, stats = sample_single(UP_STATE, tilted(float(deg)), n, seed=deg, keep_records=False)
            mu = math.cos(math.radians(deg))
            sigma = math.sqrt(max(1.0 - mu * mu, 1e-30) / n)
            assert abs(stats.mean - mu) <= 5.0 * sigma + 1e-12

    def test_joint_conditional_mean_converges(self):
        setting = JointSetting.in_plane(PHI_PLUS.plane, Angle(0.0), Angle.from_degrees(60.0))
        _, stats = sample_joint(PHI_PLUS, setting, 10**6, seed=21, keep_records=False)
        assert abs(stats.conditional_means[1] - 0.5) < 0.005
        assert abs(stats.conditional_means[-1] + 0.5) < 0.005

    def test_joint_mean_tracks_analytic_correlation(self):
        setting = JointSetting.in_plane(PHI_PLUS.plane, Angle(0.0), Angle.from_degrees(45.0))
        _, stats = sample_joint(PHI_PLUS, setting, 10**6, seed=22, keep_records=False)
        assert abs(stats.mean - math.cos(math.pi / 4)) < 0.005

    def test_empirical_chsh_near_tsirelson(self):
        setting = CHSHSetting(
            Angle(0.0), Angle.from_degrees(90.0), Angle.from_degrees(45.0),
            Angle.from_degrees(135.0), ZX_PLANE,
        )
        est = empirical_chsh(SINGLET, setting, 200000, seed=23)
        assert abs(abs(est.value) - TSIRELSON_BOUND) < 0.02

    def test_empirical_chsh_degenerate_settings(self):
        same = Angle(0.3)
        setting = CHSHSetting(same, same, same, same, PHI_PLUS.plane)
        est = empirical_chsh(PHI_PLUS, setting, 2000, seed=24)
        assert est.value == pytest.approx(2.0, abs=1e-12)


# sha256 of records.tobytes() for UP_STATE at 60 degrees and PHI_PLUS at
# (0, 60) degrees, recorded when records were still gathered from outcome
# tables; (n, seed, single, joint)
RECORD_PINS = [
    (1, 0, "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
     "ca2fd00fa001190744c15c317643ab092e7048ce086a243e2be9437c898de1bb"),
    (1, 2**64 - 1, "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
     "4b3a43f592f577fcfcb5b0e1f42bec5182c9edc414e1f667528f56e7cf0be11d"),
    (1000, 0, "53e458900074c25a96974a058b36e15357cd8b837e62e52db16c90e81e5efacf",
     "449078f427552a94d6a41233151f1b3dddc972de2130b711eaf100bd2f4b4722"),
    (1000, 7, "33d9d9b2c5b90471579b2ae61d89144e9158e1e78e5b93043ab46463d6f909ba",
     "aca33881dd6233077c411b89996554748c6b6ffb82601fb8f44bab2936b5706e"),
    (1000, 2**64 - 1, "e03909d08f67e6acdbb0a26d5f89d97004bd16ca8e274d5b4e8ccb381a14e981",
     "9a6684a9790cbeddb0b4297bcc83fb6cc560e81d5fbb21f600a14bd1eab279cb"),
    (100_000, 0, "879f72883d811fa25ce52a675f7cf914114c9a5a7b7c1146806e0234f86ee003",
     "cf45a266f422c7399eba55229257da09ab1f76f96ff26ededf8b4ed20cda671e"),
    (100_000, 7, "80b4156e5babc46a76c3a5e9b4f660f8360f1ade8abfff7f141a4304ab8e3f81",
     "46557a80427f58b79add65c8988678205a5a29a74cad75bf68e276ea03d6d96f"),
    (100_000, 2**64 - 1, "6c6743a3aca394d9346db4db6e2c167f9e8488957ef658d0927650685edd007b",
     "1cba55d2b4603c7eb3f760dbfc68c999246afe34abc9f56c8aa22eb32eadbf41"),
]

# the outcomes of each label, as a table to gather from
SINGLE_TABLE = np.array([1, -1], dtype=np.int8)
PAIR_TABLE = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=np.int8)


def gathered_records(table: np.ndarray, pvals, n: int, seed: int) -> np.ndarray:
    """Records drawn as the library draws them, then looked up in `table`."""
    gen = philox(seed)
    return table[_arrange(gen, gen.multinomial(n, pvals).tolist())]


@pytest.mark.parametrize("n, seed, single_sha, joint_sha", RECORD_PINS)
def test_records_match_their_pins_and_the_table_oracle(n, seed, single_sha, joint_sha):
    setting = JointSetting.in_plane(PHI_PLUS.plane, Angle(0.0), SIXTY)
    single, _ = sample_single(UP_STATE, tilted(60.0), n, seed)
    joint, _ = sample_joint(PHI_PLUS, setting, n, seed)
    assert hashlib.sha256(single.tobytes()).hexdigest() == single_sha
    assert hashlib.sha256(joint.tobytes()).hexdigest() == joint_sha
    dist = projection_probabilities(UP_STATE, tilted(60.0))
    assert np.array_equal(single, gathered_records(SINGLE_TABLE, [dist.p_up, dist.p_down], n, seed))
    pvals = joint_distribution(PHI_PLUS, setting).probabilities()
    assert np.array_equal(joint, gathered_records(PAIR_TABLE, pvals, n, seed))


class TestRunStats:
    def test_stderr_matches_sample_std(self):
        records, stats = sample_single(UP_STATE, tilted(60.0), 400, seed=31)
        values = records.astype(float)
        assert stats.mean == pytest.approx(values.mean(), abs=1e-15)
        assert stats.stderr == pytest.approx(values.std(ddof=1) / 20.0, abs=1e-15)

    def test_rng_discipline_recorded(self):
        assert "philox" in RNG_DISCIPLINE

    def test_mean_range_enforced(self):
        with pytest.raises(DomainError):
            RunStats(n=10, mean=1.5, stderr=0.0, seed=0)
        with pytest.raises(DomainError):
            RunStats(n=0, mean=0.0, stderr=0.0, seed=0)

    @pytest.mark.parametrize("fields", [
        {"n": 2.5}, {"n": True}, {"seed": "abc"}, {"seed": -5}, {"seed": 2**64},
        {"stderr": -1.0}, {"stderr": math.inf}, {"stderr": math.nan},
    ], ids=["n-float", "n-bool", "seed-str", "seed-negative", "seed-too-large",
            "stderr-negative", "stderr-inf", "stderr-nan"])
    def test_rejects_values_no_run_produces(self, fields):
        with pytest.raises(DomainError):
            RunStats(**{"n": 10, "mean": 0.0, "stderr": 0.1, "seed": 0, **fields})

    def test_integer_fields_become_ints(self):
        stats = RunStats(n=np.int64(10), mean=0.0, stderr=0.1, seed=np.uint64(3))
        assert (stats.n, stats.seed) == (10, 3) and type(stats.n) is type(stats.seed) is int


def assert_stats_match_values(stats, values: np.ndarray):
    n = values.size
    assert stats.n == n
    assert stats.mean == pytest.approx(values.mean(), abs=1e-15)
    stderr = values.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0
    assert stats.stderr == pytest.approx(stderr, abs=1e-15)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 2000),
    seed=st.integers(0, 2**64 - 1),
    prepared=st.floats(0.0, 2 * math.pi),
    measured=st.floats(0.0, 2 * math.pi),
)
def test_single_stats_are_those_of_the_records(n, seed, prepared, measured):
    state = prepare_state(ZX_PLANE.direction(Angle(prepared)))
    records, stats = sample_single(state, ZX_PLANE.direction(Angle(measured)), n, seed)
    assert records.dtype == np.int8 and records.shape == (n,)
    assert set(np.unique(records)) <= {1, -1}
    assert_stats_match_values(stats, records.astype(float))
    assert dict(stats.conditional_means) == {}


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 2000),
    seed=st.integers(0, 2**64 - 1),
    state_idx=st.integers(0, 3),
    alice=st.floats(0.0, 2 * math.pi),
    bob=st.floats(0.0, 2 * math.pi),
)
def test_joint_stats_are_those_of_the_records(n, seed, state_idx, alice, bob):
    state = ALL_BELL_STATES[state_idx]
    setting = JointSetting.in_plane(state.plane, Angle(alice), Angle(bob))
    records, stats = sample_joint(state, setting, n, seed)
    assert records.dtype == np.int8 and records.shape == (n, 2)
    assert set(np.unique(records)) <= {1, -1}
    a, b = records[:, 0].astype(float), records[:, 1].astype(float)
    assert_stats_match_values(stats, a * b)
    assert set(stats.conditional_means) == set(np.unique(records[:, 0]).tolist())
    for sign, mean in stats.conditional_means.items():
        assert mean == pytest.approx(b[a == sign].mean(), abs=1e-15)


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


class TestArrange:
    """`_arrange` returns exactly the counted labels in a uniformly random order."""

    DRAWS = 6000
    P_MIN = 1e-3

    @pytest.mark.parametrize(
        "counts, seed", [((2, 1, 1, 0), 9101), ((1, 4), 9102), ((3, 3), 9103), ((1, 1, 1, 1), 9104)]
    )
    def test_every_arrangement_equally_likely(self, counts, seed):
        labels = [i for i, k in enumerate(counts) for _ in range(k)]
        arrangements = sorted(set(itertools.permutations(labels)))
        index = {a: j for j, a in enumerate(arrangements)}
        seen = np.zeros(len(arrangements), dtype=np.int64)
        gen = philox(seed)
        for _ in range(self.DRAWS):
            seen[index[tuple(_arrange(gen, list(counts)).tolist())]] += 1
        assert np.all(seen > 0)
        assert chisquare(seen).pvalue >= self.P_MIN, seen.tolist()

    def test_all_trials_in_one_label(self):
        for counts in ([500, 0], [0, 500], [0, 0, 500, 0], [0, 0, 0, 500]):
            out = _arrange(philox(5), counts)
            assert out.dtype == np.int8
            assert np.all(out == counts.index(500))

    def test_label_with_share_below_label_resolution(self):
        n = 100_000  # one trial in n is below 2**-16
        positions = set()
        for seed in range(40):
            for counts in ([1, n - 1], [n - 1, 1], [0, 1, n - 2, 1]):
                out = _arrange(philox(seed), counts)
                assert np.bincount(out, minlength=len(counts)).tolist() == counts
            positions.add(int(np.flatnonzero(_arrange(philox(seed), [1, n - 1]) == 0)[0]))
        assert len(positions) > 30

    @pytest.mark.parametrize("share", [0.1, 0.5, 0.9])
    def test_ranked_positions_from_either_side(self, share):
        labels = (philox(3).random(5000) < share).astype(np.int8)
        for label in (0, 1):
            mine = np.flatnonzero(labels == label)
            ranks = philox(4).choice(mine.size, min(mine.size, 300), replace=False)
            got = _ranked_positions(labels, label, mine.size, ranks)
            assert np.array_equal(got, mine[ranks])


@st.composite
def label_counts(draw):
    n = draw(st.integers(1, 3000))
    inner = draw(st.sampled_from([1, 3]))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=inner, max_size=inner)))
    edges = [0, *cuts, n]
    return [b - a for a, b in zip(edges, edges[1:])]


@settings(max_examples=300, deadline=None)
@given(counts=label_counts(), seed=st.integers(0, 2**64 - 1))
def test_arrange_holds_exactly_the_counts(counts, seed):
    out = _arrange(philox(seed), counts)
    assert out.dtype == np.int8 and out.shape == (sum(counts),)
    assert np.bincount(out, minlength=len(counts)).tolist() == counts


N_GUARD = 100_000
RECORD_CALLS = {
    # the traced benchmark's records call
    "benchmark-mix": lambda seed: sample_joint(
        SINGLET, JointSetting.in_plane(SINGLET.plane, Angle(0.0), Angle(1.0)), N_GUARD, seed),
    "single-1deg": lambda seed: sample_single(UP_STATE, tilted(1.0), N_GUARD, seed),
    "single-90deg": lambda seed: sample_single(UP_STATE, tilted(90.0), N_GUARD, seed),
    "phi+-equal": lambda seed: sample_joint(
        PHI_PLUS, JointSetting.in_plane(PHI_PLUS.plane, Angle(0.4), Angle(0.4)), N_GUARD, seed),
}


@pytest.mark.parametrize("case", sorted(RECORD_CALLS))
def test_records_call_memory_per_trial(case):
    for seed in (1, 2, 3, 4):
        tracemalloc.start()
        try:
            records, _ = RECORD_CALLS[case](seed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert records.shape[0] == N_GUARD
        assert peak / N_GUARD <= 10.0, (seed, peak / N_GUARD)
