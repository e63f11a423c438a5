"""In-process workloads: `exact` (closed-form layers, no RNG) and `sampling`.

Only public spinframes names are called, with arguments the planned
simplifications keep; Monte Carlo records are read by count and outcome
tallies, whatever their type.
"""
from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

import spinframes as sf
import oracles as O
from core import Op
from inputs import ball_table, chi0_draw

GEOM = sf.UnitsConfig.geometrized()
SI = sf.UnitsConfig()


def direction(rng: random.Random) -> tuple[object, np.ndarray]:
    v = sf.UnitVector3.normalized(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
    return v, np.array([v.x, v.y, v.z])


def _single(*ops: Op) -> list[list[Op]]:
    return [[op] for op in ops]


# --- exact -----------------------------------------------------------------

def exact_round(rng: random.Random, work: Path, fault_tables) -> list[list[Op]]:
    groups: list[list[Op]] = []
    add = groups.extend

    for _ in range(20):
        (u, ua), (v, va) = direction(rng), direction(rng)
        state = sf.prepare_state(u)

        def check(d, ua=ua, va=va):
            O.close(d.p_up, O.p_up(ua, va), 1e-12, "p_up")
            O.close(d.p_up + d.p_down, 1.0, 1e-12, "p_up + p_down")

        add(_single(Op("spin.projection_probabilities", "spin",
                       lambda s=state, v=v: sf.projection_probabilities(s, v), check)))

    for _ in range(10):
        (n, na), (u, ua) = direction(rng), direction(rng)
        phi = rng.uniform(-2 * math.pi, 2 * math.pi)
        rot = sf.su2_from_axis_angle(n, sf.Angle(phi))
        state = sf.prepare_state(u)
        add(_single(
            Op("frames.su2_from_axis_angle", "frames",
               lambda n=n, phi=phi: sf.su2_from_axis_angle(n, sf.Angle(phi)),
               lambda r, na=na, phi=phi: O.expect(
                   np.abs(np.asarray(r.matrix) - O.su2(na, phi)).max() <= 1e-12, "SU(2) matrix")),
            Op("frames.so3_from_su2", "frames", lambda rot=rot: sf.so3_from_su2(rot),
               lambda r, na=na, phi=phi: O.check_rotation(np.asarray(r.matrix), na, phi)),
            Op("frames.rotate_state", "frames", lambda s=state, rot=rot: sf.rotate_state(s, rot),
               lambda s, na=na, phi=phi, ua=ua: O.expect(
                   np.abs(O.bloch(s.amp_up, s.amp_down) - O.rodrigues(na, phi) @ ua).max() <= 1e-12,
                   "rotated Bloch vector")),
        ))

    states = list(sf.ALL_BELL_STATES)
    for _ in range(20):
        st = rng.choice(states)
        a, b = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        setting = sf.JointSetting.in_plane(st.plane, sf.Angle(a), sf.Angle(b))
        add(_single(Op("bell.joint_distribution", "bell",
                       lambda st=st, s=setting: sf.joint_distribution(st, s),
                       lambda d, lab=st.label, a=a, b=b: O.expect(
                           np.abs(np.array(d.probabilities()) - O.joint_probs(lab, a, b)).max() <= 1e-12,
                           f"joint distribution of {lab}"))))
    for st in states:
        plane = O.BELL[st.label][1]
        angles = [rng.uniform(0, 2 * math.pi) for _ in range(4)]
        chsh_setting = sf.CHSHSetting(*(sf.Angle(x) for x in angles), st.plane)

        def check_max(res, lab=st.label, plane=plane):
            value, s = res
            O.check_chsh_max(lab, plane, value, (s.alice.radians, s.alice_prime.radians,
                                                 s.bob.radians, s.bob_prime.radians))

        add(_single(
            Op("bell.correlation_tensor", "bell", lambda st=st: st.correlation_tensor,
               lambda t, st=st, plane=plane: O.expect(
                   st.plane.name == plane and np.abs(np.asarray(t) - O.TENSORS[st.label]).max() <= 1e-12,
                   f"correlation tensor of {st.label}")),
            Op("bell.chsh_value", "bell", lambda st=st, s=chsh_setting: sf.chsh_value(st, s),
               lambda v, lab=st.label, plane=plane, x=angles: O.close(
                   v, O.chsh(lab, plane, x[0], x[1], x[2], x[3]), 1e-12, "chsh_value")),
            Op("bell.chsh_quantum_max", "bell", lambda st=st: sf.chsh_quantum_max(st), check_max),
            Op("bell.chsh_scan", "bell", lambda st=st: sf.chsh_scan(st),
               lambda pts, lab=st.label: O.check_scan(lab, [(t.radians, s) for t, s in pts])),
        ))
    for n in (8, 4000):
        deg = rng.choice((0, 60, 90, 120, 180))

        def check_ens(t, deg=deg, n=n):
            O.expect(all(int(a) == 1 for a, _ in t.trials), "ensemble row with Alice = -1")
            O.check_ensemble(deg, n, [int(b) for _, b in t.trials], Fraction(t.conditional_average()))

        add(_single(Op("bell.build_exact_ensemble", "bell",
                       lambda deg=deg, n=n: sf.build_exact_ensemble(sf.Angle.from_degrees(deg), n),
                       check_ens)))

    for _ in range(10):
        chi0 = chi0_draw(rng)
        chi, theta, a = rng.uniform(0, math.pi), rng.uniform(0, math.pi), math.exp(rng.uniform(-3, 3))
        units = rng.choice((GEOM, SI))
        add(_single(
            Op("grmass.flrw_mass_ratio", "grmass",
               lambda chi0=chi0: sf.flrw_mass_ratio(sf.JunctionConfig(chi0)),
               lambda r, chi0=chi0: O.close(r.ratio, O.dust_cap_ratio(chi0), 1e-8, "mass ratio", rel=True)),
            Op("grmass.flrw_metric_components", "grmass",
               lambda c=chi, t=theta, a=a, u=units: sf.flrw_metric_components(sf.Angle(c), sf.Angle(t), a, u),
               lambda g, want=O.metric(chi, theta, a, units.c): O.expect(
                   all(abs(x - y) <= 1e-12 * max(abs(y), 1e-300) for x, y in zip(g, want)),
                   "metric components")),
        ))
    for _ in range(2):
        cpt, units = rng.uniform(0.01, 0.9), rng.choice((GEOM, SI))
        mass = math.exp(rng.uniform(-2, 2)) * (1.0 if units is GEOM else 2e30)
        radius = 2.0 * units.G * mass / (units.c**2 * cpt)
        profile = sf.MassProfile.uniform(mass, radius)
        add(_single(Op("grmass.proper_mass_integral.uniform", "grmass",
                       lambda p=profile, u=units: sf.proper_mass_integral(p, u),
                       lambda v, m=mass, c=cpt: O.check_proper_mass(v, m, c, 1e-9))))

    tables = []
    for rows in (33, 65, 129):
        mass, cpt = math.exp(rng.uniform(-2, 2)), rng.uniform(0.01, 0.6)
        path = work / f"table_{rows}.csv"
        ball_table(path, rows, mass, cpt)
        tables.append((path, ("ball", mass, cpt, 1e-6)))
    for path, spec in tables + fault_tables:
        holder = {}

        def load(path=path, holder=holder):
            holder["profile"] = sf.load_profile_csv(str(path))
            return holder["profile"]

        def check_table(v, spec=spec):
            if spec[0] == "step":
                O.check_thin_step(v, spec[1])
            else:
                O.check_proper_mass(v, spec[1], spec[2], spec[3])

        groups.append([
            Op("grmass.load_profile_csv", "grmass", load,
               lambda p, m=spec[1]: O.close(p.mass, m, 1e-12, "table mass", rel=True)),
            Op("grmass.proper_mass_integral.table", "grmass",
               lambda h=holder: sf.proper_mass_integral(h["profile"], GEOM), check_table),
        ])
    return groups


# --- sampling ----------------------------------------------------------------

N_SINGLE = 1_000_000
N_JOINT = 1_000_000
N_RECORDS = 100_000
N_SMALL = 100
SMALL_CALLS = 100
N_PER_PAIR = 250_000


def stats_key(s) -> tuple:
    return (s.n, s.mean, s.stderr, tuple(sorted(dict(s.conditional_means).items())))


def record_tallies(records) -> Counter:
    """Counts of (Alice, Bob) outcome pairs, from record objects with
    `alice`/`bob` or from an array of pairs."""
    if hasattr(records, "shape"):
        return Counter(map(tuple, np.asarray(records).reshape(-1, 2).astype(int).tolist()))
    return Counter((int(r.alice), int(r.bob)) for r in records)


def check_conditionals(stats, e: float, n_given: dict[int, int]) -> None:
    for sign, want in ((1, e), (-1, -e)):
        if sign in stats.conditional_means:
            O.check_mc_mean(stats.conditional_means[sign], n_given[sign], want, f"E[B|A={sign:+d}]")


def joint_inputs(rng: random.Random):
    st = rng.choice(list(sf.ALL_BELL_STATES))
    a, b = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
    return st, sf.JointSetting.in_plane(st.plane, sf.Angle(a), sf.Angle(b)), O.plane_sign(st.label) * math.cos(b - a)


def sampling_round(rng: random.Random) -> list[list[Op]]:
    ops = []

    def seed() -> int:
        return rng.getrandbits(63)

    (u, ua), (v, va) = direction(rng), direction(rng)
    state, s1 = sf.prepare_state(u), seed()

    def check_single(res, want=float(ua @ va)):
        _, stats = res
        O.expect(stats.n == N_SINGLE, "sample_single n")
        O.check_mc_mean(stats.mean, N_SINGLE, want, "sample_single")

    ops.append(Op("montecarlo.sample_single", "montecarlo",
                  lambda: sf.sample_single(state, v, N_SINGLE, s1, keep_records=False), check_single,
                  N_SINGLE))

    st, setting, e = joint_inputs(rng)
    s2 = seed()

    def check_joint(res, e=e):
        _, stats = res
        O.expect(stats.n == N_JOINT, "sample_joint n")
        O.check_mc_mean(stats.mean, N_JOINT, e, "sample_joint")
        # each conditioning outcome has far more than n/4 trials at this n
        check_conditionals(stats, e, {1: N_JOINT // 4, -1: N_JOINT // 4})

    ops.append(Op("montecarlo.sample_joint", "montecarlo",
                  lambda st=st, js=setting: sf.sample_joint(st, js, N_JOINT, s2, keep_records=False),
                  check_joint, N_JOINT))

    st, setting, e = joint_inputs(rng)
    s3 = seed()

    def check_records(res, st=st, js=setting, e=e, s3=s3):
        records, stats = res
        counts = record_tallies(records)
        n = sum(counts.values())
        O.expect(n == N_RECORDS == stats.n and set(counts) <= {(1, 1), (1, -1), (-1, 1), (-1, -1)},
                 f"{n} records with outcomes {sorted(counts)}")
        same = counts[(1, 1)] + counts[(-1, -1)]
        O.close(stats.mean, (2 * same - n) / n, 1e-12, "mean from record tallies")
        n_given = {a: counts[(a, 1)] + counts[(a, -1)] for a in (1, -1)}
        for a in (1, -1):
            if n_given[a]:
                O.close(stats.conditional_means[a], (counts[(a, 1)] - counts[(a, -1)]) / n_given[a],
                        1e-12, f"E[B|A={a:+d}] from record tallies")
        O.check_mc_mean(stats.mean, n, e, "sample_joint with records")
        check_conditionals(stats, e, n_given)
        _, off = sf.sample_joint(st, js, N_RECORDS, s3, keep_records=False)
        O.expect(stats_key(off) == stats_key(stats), "stats differ with records on and off")

    ops.append(Op("montecarlo.sample_joint_records", "montecarlo",
                  lambda st=st, js=setting: sf.sample_joint(st, js, N_RECORDS, s3, keep_records=True),
                  check_records, N_RECORDS))

    for k in range(SMALL_CALLS):
        st, setting, e = joint_inputs(rng)
        sk = seed()

        def check_small(res, st=st, js=setting, e=e, sk=sk, repeat=(k == 0)):
            _, stats = res
            O.expect(stats.n == N_SMALL, "small sample_joint n")
            O.check_mc_mean(stats.mean, N_SMALL, e, "small sample_joint")
            if repeat:
                _, again = sf.sample_joint(st, js, N_SMALL, sk, keep_records=False)
                O.expect(stats_key(again) == stats_key(stats), "repeated seed gave different stats")

        ops.append(Op("montecarlo.sample_joint_small", "montecarlo",
                      lambda st=st, js=setting, sk=sk: sf.sample_joint(st, js, N_SMALL, sk, keep_records=False),
                      check_small, N_SMALL))

    st = rng.choice(list(sf.ALL_BELL_STATES))
    plane = O.BELL[st.label][1]
    angles = [rng.uniform(0, 2 * math.pi) for _ in range(4)]
    chsh_setting = sf.CHSHSetting(*(sf.Angle(x) for x in angles), st.plane)
    s5 = seed()

    def check_chsh(est, lab=st.label, x=angles):
        a, a2, b, b2 = x
        t = O.TENSORS[lab]
        pairs = ((a, b), (a, b2), (a2, b), (a2, b2))
        tol = 0.0
        for term, (p, q) in zip(est.terms, pairs):
            want = float(O.in_plane(plane, p) @ t @ O.in_plane(plane, q))
            O.check_mc_mean(term.mean, N_PER_PAIR, want, "empirical CHSH term")
            tol += O.mc_tolerance(N_PER_PAIR, want)
        m = [term.mean for term in est.terms]
        O.close(est.value, m[0] - m[1] + m[2] + m[3], 1e-12, "S from its terms")
        O.close(est.value, O.chsh(lab, plane, *x), tol, "empirical S")

    ops.append(Op("montecarlo.empirical_chsh", "montecarlo",
                  lambda: sf.empirical_chsh(st, chsh_setting, N_PER_PAIR, s5), check_chsh, 4 * N_PER_PAIR))
    return [[op] for op in ops]
