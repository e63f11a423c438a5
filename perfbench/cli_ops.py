"""The `cli` workload: fresh `python -m spinframes.cli` processes.

Sixteen command kinds cover every subcommand and mode in the README plus
two bulk-output commands and `grmass binding --profile` on a generated
table. Each kind has one output format, eight JSON and eight CSV, so one
round (every kind once) stays near 25 s at today's ~1.5 s per process.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles as O
from core import Op
from inputs import ball_table, chi0_draw

LABELS = {"singlet": "singlet", "psi+": "triplet_psi_plus", "phi+": "triplet_phi_plus",
          "phi-": "triplet_phi_minus"}
SEEDED = ("spin-mc", "bell-mc", "chsh-empirical")


@dataclass
class CliRun:
    """What one invocation printed, and the peak RSS of its process."""

    stdout: bytes
    rss_kb: int = 0


def run_process(argv: list[str], root: Path) -> CliRun:
    """Run one CLI process; a non-zero exit raises, so the op counts as failed.

    The child is reaped with wait4, which gives its own peak RSS; stderr
    goes to a file so that reading stdout to its end cannot block.
    """
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, "-m", "spinframes.cli", *argv], cwd=root,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            tail = err.read().decode(errors="replace").strip()[-300:]
            raise RuntimeError(f"exit {proc.returncode}: {tail}")
    return CliRun(out, usage.ru_maxrss)


def run_main(argv: list[str]) -> CliRun:
    """Warm in-process `spinframes.cli.main` with stdout captured."""
    from spinframes.cli import main

    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()[-300:]}")
    return CliRun(buf.getvalue().encode())


@functools.cache
def schema_validator():
    """Imported on first use, so the `cli` set-up does not load spinframes."""
    from jsonschema import Draft202012Validator
    from spinframes.cli import OUTPUT_SCHEMA

    return Draft202012Validator(OUTPUT_SCHEMA)


def envelope(out: CliRun) -> dict:
    doc = json.loads(out.stdout)
    errors = list(schema_validator().iter_errors(doc))
    O.expect(not errors, f"output does not match OUTPUT_SCHEMA: {errors[:1]}")
    return doc


def table(out: CliRun) -> list[dict]:
    rows = list(csv.reader(io.StringIO(out.stdout.decode())))
    return [dict(zip(rows[0], r)) for r in rows[1:]]


# --- kinds: each returns (argv, check of the output) ------------------------

def k_spin(rng, work):
    deg = rng.uniform(0, 360)

    def check(out):
        (r,) = table(out)
        th = math.radians(deg)
        O.close(float(r["theta_rad"]), th, 1e-12, "theta_rad")
        O.close(float(r["p_up"]), math.cos(th / 2) ** 2, 1e-12, "p_up")
        O.close(float(r["p_down"]), math.sin(th / 2) ** 2, 1e-12, "p_down")
        O.close(float(r["expectation"]), math.cos(th), 1e-12, "expectation")

    return ["--format", "csv", "spin", "--theta-deg", repr(deg)], check


def k_spin_mc(rng, work):
    deg, seed, n = rng.uniform(0, 360), rng.getrandbits(32), 1_000_000

    def check(out):
        doc = envelope(out)
        d, th = doc["data"], math.radians(deg)
        O.expect(doc["manifest"]["seed"] == seed and d["mc"]["n"] == n, "spin manifest seed or n")
        O.close(d["p_up"], math.cos(th / 2) ** 2, 1e-12, "p_up")
        O.check_mc_mean(d["mc"]["mean"], n, math.cos(th), "spin Monte Carlo")

    return ["--format", "json", "spin", "--theta-deg", repr(deg), "--n", str(n), "--seed", str(seed)], check


def k_bell(rng, work):
    label, deg = rng.choice(sorted(LABELS)), rng.uniform(0, 360)

    def check(out):
        d = envelope(out)["data"]
        full, th = LABELS[label], math.radians(deg)
        e = O.plane_sign(full) * math.cos(th)
        O.expect(d["state"] == full and d["plane"] == O.BELL[full][1], "bell state or plane")
        for key, want in zip(("p_pp", "p_pm", "p_mp", "p_mm"), O.joint_probs(full, 0.0, th)):
            O.close(d[key], want, 1e-12, key)
        O.close(d["correlation"], e, 1e-12, "correlation")
        O.close(d["conditional_given_up"], e, 1e-12, "conditional_given_up")
        O.close(d["conditional_given_down"], -e, 1e-12, "conditional_given_down")

    return ["--format", "json", "bell", "--state", label, "--theta-deg", repr(deg)], check


def k_bell_mc(rng, work):
    label, deg, seed, n = rng.choice(sorted(LABELS)), rng.uniform(0, 360), rng.getrandbits(32), 200_000

    def check(out):
        (r,) = table(out)
        full = LABELS[label]
        O.expect(int(r["mc_n"]) == n, "bell mc_n")
        O.check_mc_mean(float(r["mc_mean"]), n, O.plane_sign(full) * math.cos(math.radians(deg)), "bell Monte Carlo")

    return ["--format", "csv", "bell", "--state", label, "--theta-deg", repr(deg), "--n", str(n),
            "--seed", str(seed)], check


def _ensemble(rng, n, fmt):
    deg = rng.choice((0, 60, 90, 120, 180))

    def check(out):
        if fmt == "json":
            d = envelope(out)["data"]
            trials, avg = d["trials"], d["average"]
            O.expect(d["bob_up"] == sum(t["bob"] == "+1" for t in trials), "bob_up count")
        else:
            rows = table(out)
            trials, avg = rows[:-1], rows[-1]["bob"]
            O.expect(rows[-1]["index"] == "average", "ensemble average row")
        O.expect(all(t["alice"] == "+1" for t in trials), "ensemble row with Alice = -1")
        O.check_ensemble(deg, n, [int(t["bob"]) for t in trials], Fraction(avg))

    return ["--format", fmt, "ensemble", "--theta-deg", str(deg), "--n", str(n)], check


def k_ensemble(rng, work):
    return _ensemble(rng, 8, "csv")


def k_ensemble_bulk(rng, work):
    return _ensemble(rng, 8000, "json")


def k_chsh_classical(rng, work):
    def check(out):
        (r,) = table(out)
        O.expect(r["mode"] == "classical-max" and float(r["value"]) == 2.0, "classical CHSH max is not 2")

    return ["--format", "csv", "chsh", "--mode", "classical-max"], check


def k_chsh_max(rng, work):
    label = rng.choice(sorted(LABELS))

    def check(out):
        d = envelope(out)["data"]
        full = LABELS[label]
        O.expect(d["plane"] == O.BELL[full][1], "CHSH plane")
        O.check_chsh_max(full, d["plane"], d["value"],
                         (d["alice_rad"], d["alice_prime_rad"], d["bob_rad"], d["bob_prime_rad"]))

    return ["--format", "json", "chsh", "--mode", "analytic-max", "--state", label], check


def k_chsh_scan(rng, work):
    label = rng.choice(sorted(LABELS))

    def check(out):
        O.check_scan(LABELS[label], [(float(r["angle_rad"]), float(r["s"])) for r in table(out)])

    return ["--format", "csv", "chsh", "--mode", "scan", "--state", label], check


def k_chsh_empirical(rng, work):
    label, seed, n = rng.choice(sorted(LABELS)), rng.getrandbits(32), 1_000_000

    def check(out):
        doc = envelope(out)
        d, full = doc["data"], LABELS[label]
        O.expect(doc["manifest"]["seed"] == seed and d["n_per_pair"] == n, "empirical seed or n")
        plane, t = O.BELL[full][1], O.TENSORS[full]
        a, a2, b, b2 = 0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4
        tol = 0.0
        for term, (p, q) in zip(d["terms"], ((a, b), (a, b2), (a2, b), (a2, b2))):
            want = float(O.in_plane(plane, p) @ t @ O.in_plane(plane, q))
            O.check_mc_mean(term["mean"], n, want, "empirical CHSH term")
            tol += O.mc_tolerance(n, want)
        O.close(d["value"], O.chsh(full, plane, a, a2, b, b2), tol, "empirical S")

    return ["--format", "json", "chsh", "--mode", "empirical", "--state", label, "--n", str(n),
            "--seed", str(seed)], check


def k_ratio(rng, work):
    chi0 = chi0_draw(rng)

    def check(out):
        (r,) = table(out)
        O.close(float(r["ratio"]), O.dust_cap_ratio(float(r["chi0"])), 1e-8, "ratio", rel=True)
        O.close(float(r["chi0"]), chi0, 0.0, "chi0")

    return ["--format", "csv", "grmass", "ratio", "--chi0", repr(chi0)], check


def _curve(rng, points, fmt):
    start, stop = rng.uniform(0.01, 0.5), rng.uniform(2.5, 3.1)

    def check(out):
        pts = envelope(out)["data"]["points"] if fmt == "json" else table(out)
        O.expect(len(pts) == points, f"ratio-curve has {len(pts)} points")
        step = (stop - start) / (points - 1)
        for i, p in enumerate(pts):
            chi0 = float(p["chi0"])
            O.close(chi0, start + i * step, 1e-12, "curve chi0")
            O.close(float(p["ratio"]), O.dust_cap_ratio(chi0), 1e-8, "curve ratio", rel=True)

    return ["--format", fmt, "grmass", "ratio-curve", "--start", repr(start), "--stop", repr(stop),
            "--points", str(points)], check


def k_ratio_curve(rng, work):
    return _curve(rng, 50, "csv")


def k_ratio_curve_bulk(rng, work):
    return _curve(rng, 5000, "json")


def k_binding_uniform(rng, work):
    geometrized = rng.random() < 0.5
    mass = math.exp(rng.uniform(-2, 2)) * (1.0 if geometrized else 2e30)
    cpt = rng.uniform(0.01, 0.9)

    def check(out):
        d = envelope(out)["data"]
        O.expect(d["kind"] == "uniform", "binding kind")
        O.check_proper_mass(d["proper_mass"], mass, cpt, 1e-9)

    return ["--format", "json", "grmass", "binding", "--uniform", "--mass", repr(mass), "--compactness",
            repr(cpt)] + (["--geometrized"] if geometrized else []), check


def k_binding_profile(rng, work):
    mass, cpt = math.exp(rng.uniform(-2, 2)), rng.uniform(0.01, 0.6)
    path = work / f"profile_{rng.getrandbits(40):010x}.csv"
    ball_table(path, 129, mass, cpt)

    def check(out):
        (r,) = table(out)
        O.expect(r["kind"] == "table", "binding kind")
        O.close(float(r["mass"]), mass, 1e-12, "table mass", rel=True)
        O.check_proper_mass(float(r["proper_mass"]), mass, cpt, 1e-6)

    return ["--format", "csv", "grmass", "binding", "--profile", str(path), "--geometrized"], check


def k_metric(rng, work):
    chi, theta = rng.uniform(0, 180), rng.uniform(0, 180)
    a, geometrized = math.exp(rng.uniform(-3, 3)), rng.random() < 0.5

    def check(out):
        d = envelope(out)["data"]
        want = O.metric(math.radians(chi), math.radians(theta), a, 1.0 if geometrized else 299792458.0)
        for key, w in zip(("g_tt", "g_chi_chi", "g_theta_theta", "g_phi_phi"), want):
            O.close(d[key], w, 1e-12 * max(abs(w), 1e-300), key)

    return ["--format", "json", "grmass", "metric", "--chi-deg", repr(chi), "--theta-deg", repr(theta),
            "--scale-factor", repr(a)] + (["--geometrized"] if geometrized else []), check


KINDS: dict[str, Callable] = {
    "spin": k_spin, "spin-mc": k_spin_mc, "bell": k_bell, "bell-mc": k_bell_mc,
    "ensemble": k_ensemble, "ensemble-bulk": k_ensemble_bulk,
    "chsh-classical": k_chsh_classical, "chsh-max": k_chsh_max, "chsh-scan": k_chsh_scan,
    "chsh-empirical": k_chsh_empirical,
    "ratio": k_ratio, "ratio-curve": k_ratio_curve, "ratio-curve-bulk": k_ratio_curve_bulk,
    "binding-uniform": k_binding_uniform, "binding-profile": k_binding_profile, "metric": k_metric,
}


class CliWorkload:
    """Builds rounds of process ops and keeps what the checks need later."""

    def __init__(self, root: Path, work: Path):
        self.root, self.work = root, work
        self.peak_rss_kb = 0
        self.seeded: dict[str, tuple[list[str], bytes]] = {}

    def process_op(self, name: str, argv: list[str], check) -> Op:
        def call():
            out = run_process(argv, self.root)
            self.peak_rss_kb = max(self.peak_rss_kb, out.rss_kb)
            return out

        def check_and_keep(out):
            check(out)
            if name in SEEDED:
                self.seeded.setdefault(name, (argv, out.stdout))

        return Op(f"cli.process.{name}", "cli", call, check_and_keep)

    def round(self, rng: random.Random) -> list[list[Op]]:
        return [[self.process_op(name, *make(rng, self.work))] for name, make in KINDS.items()]

    def main_ops(self, rng: random.Random) -> list[Op]:
        ops = []
        for name, make in KINDS.items():
            argv, check = make(rng, self.work)
            ops.append(Op(f"cli.main.{name}", "cli", lambda a=argv: run_main(a), check))
        return ops

    def replay_seeded(self) -> list[str]:
        """Run each seeded command again; its output must be byte-identical."""
        bad = []
        for name, (argv, first) in sorted(self.seeded.items()):
            try:
                same = run_process(argv, self.root).stdout == first
            except RuntimeError as exc:
                same = False
                bad.append(f"cli.process.{name}: second invocation failed: {exc}")
            if not same:
                bad.append(f"cli.process.{name}: seeded output differs between two invocations")
        return bad
