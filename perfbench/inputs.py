"""Seeded input generation shared by the workloads; no spinframes import."""
from __future__ import annotations

import math
import random
from pathlib import Path

import numpy as np


def chi0_draw(rng: random.Random) -> float:
    """Log-uniform over the series branch [1e-6, 9e-5] or the direct branch
    [2e-4, 3.1]. The band between is left out: there flrw_mass_ratio raises
    DomainError on some inputs (see CHANGES.md)."""
    lo, hi = rng.choice(((1e-6, 9e-5), (2e-4, 3.1)))
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def write_table(path: Path, r: np.ndarray, m: np.ndarray) -> None:
    path.write_text("r,M\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(r.tolist(), m.tolist())))


def ball_table(path: Path, rows: int, mass: float, compactness: float) -> None:
    """Uniform ball M(r) = M (r/R)^3 on a uniform grid, geometrized units."""
    radius = 2.0 * mass / compactness
    r = np.linspace(0.0, radius, rows)
    write_table(path, r, mass * (r / radius) ** 3)


# Fixed inputs of the named proper_mass_integral fault: smooth tables whose
# row count is not 2^k + 1 raise ConvergenceError, and the thin step returns
# 0.0. They do not depend on the seed, so every round fails on the same ops.
FAULT_ROWS = (20, 50, 200, 1000)
FAULT_COMPACTNESS = 0.1
STEP_JUMP = 0.4


def write_fault_tables(work: Path) -> list[tuple[Path, object]]:
    tables = []
    for rows in FAULT_ROWS:
        path = work / f"fault_{rows}.csv"
        ball_table(path, rows, 1.0, FAULT_COMPACTNESS)
        tables.append((path, ("ball", 1.0, FAULT_COMPACTNESS, 1e-6)))
    path = work / "fault_step.csv"
    write_table(path, np.array([0.0, 1.0, 1.0 + 1e-7, 2.0]), np.array([0.0, 0.0, STEP_JUMP, STEP_JUMP]))
    tables.append((path, ("step", STEP_JUMP)))
    return tables
