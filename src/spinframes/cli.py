"""Command-line surface: reproducible JSON/CSV tables for every operation.

JSON output is the envelope {schema_version, manifest, data}; CSV output
is a stable header row plus data rows. Anything seeded is byte-identical
across runs with the same arguments (the manifest timestamp is null
unless --timestamp is passed, keeping full-stream determinism).

Exit codes: 0 success, 2 usage error, unreadable input file or closed
stdout, 3 domain error, 4 convergence error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__
from .bell import (
    BellState,
    CHSHSetting,
    JointSetting,
    XY_PLANE,
    ZX_PLANE,
    ZY_PLANE,
    build_exact_ensemble,
    chsh_classical_max,
    chsh_quantum_max,
    chsh_scan,
    joint_distribution,
)
from .errors import ConvergenceError, DomainError, ProfileError
from .grmass import (
    JunctionConfig,
    MassProfile,
    UnitsConfig,
    flrw_mass_ratio,
    flrw_metric_components,
    load_profile_csv,
    proper_mass_integral,
)
from .spin import (
    Angle,
    Outcome,
    Z_AXIS,
    expectation,
    prepare_state,
    projection_probabilities,
)

SCHEMA_VERSION = 1

# Largest grid one `grmass ratio-curve` call may ask for.
MAX_CURVE_POINTS = 10**6

# jsonschema for every JSON envelope this tool prints
OUTPUT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "manifest", "data"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "manifest": {
            "type": "object",
            "required": ["command", "parameters", "seed", "version", "rng", "timestamp"],
            "additionalProperties": False,
            "properties": {
                "command": {"type": "string"},
                "parameters": {"type": "object"},
                "seed": {"type": ["integer", "null"]},
                "version": {"type": "string"},
                "rng": {"type": ["string", "null"]},
                "timestamp": {"type": ["string", "null"]},
            },
        },
        "data": {"type": ["object", "array"]},
    },
}

_PLANES = {"xy": XY_PLANE, "zx": ZX_PLANE, "zy": ZY_PLANE}


def _add_angle_flags(parser: argparse.ArgumentParser, prefix: str = "theta", required: bool = True):
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument(f"--{prefix}-deg", type=float, default=None, metavar="DEG")
    group.add_argument(f"--{prefix}-rad", type=float, default=None, metavar="RAD")


def _angle_from(args: argparse.Namespace, prefix: str = "theta") -> Angle:
    deg = getattr(args, f"{prefix}_deg")
    if deg is not None:
        return Angle.from_degrees(deg)
    return Angle(getattr(args, f"{prefix}_rad"))


def _outcome_str(o: Outcome | None) -> str:
    if o is None:
        return ""
    return "+1" if o is Outcome.UP else "-1"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinframes",
        description="Qubit measurement averages, Bell correlations, CHSH bounds, "
        "and proper-vs-dynamic mass tables.",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--timestamp", action="store_true", help="stamp the manifest (breaks byte-identity)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_spin = sub.add_parser("spin", help="single-qubit projection statistics")
    _add_angle_flags(p_spin)
    p_spin.add_argument("--n", type=int, default=0, help="Monte Carlo trials (0 = analytic only)")
    p_spin.add_argument("--seed", type=int, default=0)
    p_spin.set_defaults(func=cmd_spin)

    p_bell = sub.add_parser("bell", help="Bell-state joint statistics at a setting separation")
    p_bell.add_argument("--state", default="singlet")
    _add_angle_flags(p_bell)
    p_bell.add_argument("--plane", choices=tuple(_PLANES), default=None, help="override the state's plane")
    p_bell.add_argument("--n", type=int, default=0, help="Monte Carlo trials (0 = analytic only)")
    p_bell.add_argument("--seed", type=int, default=0)
    p_bell.set_defaults(func=cmd_bell)

    p_ens = sub.add_parser("ensemble", help="exact-count outcome table realizing cos(theta)")
    _add_angle_flags(p_ens)
    p_ens.add_argument("--n", type=int, required=True)
    p_ens.set_defaults(func=cmd_ensemble)

    p_chsh = sub.add_parser("chsh", help="CHSH bounds, scans, and empirical estimates")
    p_chsh.add_argument("--mode", choices=("analytic-max", "classical-max", "scan", "empirical"), required=True)
    p_chsh.add_argument("--state", default="singlet")
    p_chsh.add_argument("--resolution-deg", type=float, default=1.0, help="scan step in degrees (scan mode)")
    p_chsh.add_argument("--n", type=int, default=100000, help="trials per correlation (empirical mode)")
    p_chsh.add_argument("--seed", type=int, default=0)
    p_chsh.set_defaults(func=cmd_chsh)

    p_gr = sub.add_parser("grmass", help="proper-vs-dynamic mass tools")
    gr_sub = p_gr.add_subparsers(dest="gr_command", required=True)

    g_ratio = gr_sub.add_parser("ratio", help="closed-form dust-cap mass ratio")
    g_ratio.add_argument("--chi0", type=float, required=True)
    g_ratio.add_argument("--scale-factor", type=float, default=1.0)
    g_ratio.set_defaults(func=cmd_grmass_ratio)

    g_curve = gr_sub.add_parser("ratio-curve", help="mass ratio over a chi0 grid")
    g_curve.add_argument("--start", type=float, default=0.01)
    g_curve.add_argument("--stop", type=float, default=3.1)
    g_curve.add_argument("--points", type=int, default=100)
    g_curve.set_defaults(func=cmd_grmass_curve)

    g_bind = gr_sub.add_parser("binding", help="proper mass of a profile by quadrature")
    src = g_bind.add_mutually_exclusive_group(required=True)
    src.add_argument("--uniform", action="store_true", help="constant-density ball")
    src.add_argument("--profile", type=str, default=None, help="CSV with header r,M")
    g_bind.add_argument("--mass", type=float, default=None)
    g_bind.add_argument("--radius", type=float, default=None)
    g_bind.add_argument("--compactness", type=float, default=None, help="2GM/(c^2 R), alternative to --radius")
    g_bind.add_argument("--geometrized", action="store_true", help="G = c = 1")
    g_bind.set_defaults(func=cmd_grmass_binding)

    g_metric = gr_sub.add_parser("metric", help="closed FLRW metric diagonal")
    _add_angle_flags(g_metric, "chi")
    _add_angle_flags(g_metric, "theta")
    g_metric.add_argument("--scale-factor", type=float, default=1.0)
    g_metric.add_argument("--geometrized", action="store_true")
    g_metric.set_defaults(func=cmd_grmass_metric)

    return parser


class _Output:
    """What a command produced: JSON data plus its CSV rendering."""

    def __init__(self, data, csv_header: list[str], csv_rows: list[list], seed: int | None = None, rng: str | None = None):
        self.data = data
        self.csv_header = csv_header
        self.csv_rows = csv_rows
        self.seed = seed
        self.rng = rng


def _check_trials(n: int) -> None:
    if n < 0:
        raise DomainError(f"--n must be >= 0 (0 = analytic only), got {n}")


def cmd_spin(args: argparse.Namespace) -> _Output:
    _check_trials(args.n)
    theta = _angle_from(args)
    state = prepare_state(Z_AXIS)
    setting = ZX_PLANE.direction(theta)
    dist = projection_probabilities(state, setting)
    data = {
        "theta_rad": theta.radians,
        "p_up": dist.p_up,
        "p_down": dist.p_down,
        "expectation": expectation(dist),
    }
    header = ["theta_rad", "p_up", "p_down", "expectation"]
    row = [theta.radians, dist.p_up, dist.p_down, expectation(dist)]
    seed = None
    rng = None
    if args.n > 0:
        from .montecarlo import RNG_DISCIPLINE, sample_single

        _, stats = sample_single(state, setting, args.n, args.seed, keep_records=False)
        data["mc"] = {"n": stats.n, "mean": stats.mean, "stderr": stats.stderr}
        header += ["mc_n", "mc_mean", "mc_stderr"]
        row += [stats.n, stats.mean, stats.stderr]
        seed, rng = args.seed, RNG_DISCIPLINE
    return _Output(data, header, [row], seed, rng)


def cmd_bell(args: argparse.Namespace) -> _Output:
    _check_trials(args.n)
    state = BellState.from_label(args.state)
    plane = _PLANES[args.plane] if args.plane else state.plane
    theta = _angle_from(args)
    setting = JointSetting.in_plane(plane, Angle(0.0), theta)
    dist = joint_distribution(state, setting)
    cond_up = dist.conditional_bob_mean(Outcome.UP)
    cond_down = dist.conditional_bob_mean(Outcome.DOWN)
    data = {
        "state": state.label,
        "plane": plane.name,
        "theta_rad": theta.radians,
        "p_pp": dist.p_pp,
        "p_pm": dist.p_pm,
        "p_mp": dist.p_mp,
        "p_mm": dist.p_mm,
        "correlation": dist.correlation,
        "conditional_given_up": cond_up,
        "conditional_given_down": cond_down,
    }
    header = [
        "state", "plane", "theta_rad", "p_pp", "p_pm", "p_mp", "p_mm",
        "correlation", "conditional_given_up", "conditional_given_down",
    ]
    row = [
        state.label, plane.name, theta.radians, dist.p_pp, dist.p_pm, dist.p_mp,
        dist.p_mm, dist.correlation, cond_up, cond_down,
    ]
    seed = None
    rng = None
    if args.n > 0:
        from .montecarlo import RNG_DISCIPLINE, sample_joint

        _, stats = sample_joint(state, setting, args.n, args.seed, keep_records=False)
        data["mc"] = {
            "n": stats.n,
            "mean": stats.mean,
            "stderr": stats.stderr,
            "conditional_means": {str(k): v for k, v in stats.conditional_means.items()},
        }
        header += ["mc_n", "mc_mean", "mc_stderr"]
        row += [stats.n, stats.mean, stats.stderr]
        seed, rng = args.seed, RNG_DISCIPLINE
    return _Output(data, header, [row], seed, rng)


def cmd_ensemble(args: argparse.Namespace) -> _Output:
    theta = _angle_from(args)
    table = build_exact_ensemble(theta, args.n)
    avg: Fraction = table.conditional_average()
    trials = [
        {"index": i, "alice": _outcome_str(a), "bob": _outcome_str(b)}
        for i, (a, b) in enumerate(table.trials)
    ]
    data = {
        "theta_rad": theta.radians,
        "n": table.n,
        "bob_up": table.bob_up_given_alice_up,
        "bob_down": table.bob_down_given_alice_up,
        "average": str(avg),
        "average_float": float(avg),
        "trials": trials,
    }
    rows = [[t["index"], t["alice"], t["bob"]] for t in trials]
    rows.append(["average", "", str(avg)])
    return _Output(data, ["index", "alice", "bob"], rows)


def cmd_chsh(args: argparse.Namespace) -> _Output:
    if args.mode == "classical-max":
        value = chsh_classical_max()
        data = {"mode": args.mode, "value": value, "strategies": 16}
        return _Output(data, ["mode", "value"], [[args.mode, value]])

    state = BellState.from_label(args.state)
    if args.mode == "analytic-max":
        value, setting = chsh_quantum_max(state)
        data = {
            "mode": args.mode,
            "state": state.label,
            "plane": setting.plane.name,
            "value": value,
            "alice_rad": setting.alice.radians,
            "alice_prime_rad": setting.alice_prime.radians,
            "bob_rad": setting.bob.radians,
            "bob_prime_rad": setting.bob_prime.radians,
        }
        header = ["mode", "state", "value", "alice_rad", "alice_prime_rad", "bob_rad", "bob_prime_rad"]
        row = [args.mode, state.label, value, setting.alice.radians,
               setting.alice_prime.radians, setting.bob.radians, setting.bob_prime.radians]
        return _Output(data, header, [row])
    if args.mode == "scan":
        points = chsh_scan(state, Angle.from_degrees(args.resolution_deg))
        data = {
            "mode": args.mode,
            "state": state.label,
            "plane": state.plane.name,
            "points": [{"angle_rad": a.radians, "s": s} for a, s in points],
        }
        rows = [[a.radians, s] for a, s in points]
        return _Output(data, ["angle_rad", "s"], rows)
    # empirical
    from .montecarlo import RNG_DISCIPLINE, empirical_chsh

    quarter = Angle.from_degrees(45.0)
    setting = CHSHSetting(
        Angle(0.0), Angle.from_degrees(90.0), quarter, Angle.from_degrees(135.0), state.plane
    )
    est = empirical_chsh(state, setting, args.n, args.seed)
    data = {
        "mode": args.mode,
        "state": state.label,
        "plane": state.plane.name,
        "value": est.value,
        "stderr": est.stderr,
        "n_per_pair": args.n,
        "terms": [{"mean": t.mean, "stderr": t.stderr, "n": t.n} for t in est.terms],
    }
    header = ["mode", "state", "value", "stderr", "n_per_pair"]
    row = [args.mode, state.label, est.value, est.stderr, args.n]
    return _Output(data, header, [row], args.seed, RNG_DISCIPLINE)


def cmd_grmass_ratio(args: argparse.Namespace) -> _Output:
    result = flrw_mass_ratio(JunctionConfig(args.chi0, args.scale_factor))
    data = {"chi0": result.chi0, "scale_factor": result.scale_factor, "ratio": result.ratio}
    return _Output(data, ["chi0", "ratio"], [[result.chi0, result.ratio]])


def cmd_grmass_curve(args: argparse.Namespace) -> _Output:
    if not 2 <= args.points <= MAX_CURVE_POINTS:
        raise DomainError(f"need 2 to {MAX_CURVE_POINTS} grid points, got {args.points}")
    if not 0.0 < args.start < args.stop < math.pi:
        raise DomainError(
            f"grid must satisfy 0 < start < stop < pi, got [{args.start}, {args.stop}]"
        )
    step = (args.stop - args.start) / (args.points - 1)
    rows = []
    for i in range(args.points):
        chi0 = args.start + i * step
        rows.append([chi0, flrw_mass_ratio(JunctionConfig(chi0)).ratio])
    data = {"points": [{"chi0": c, "ratio": r} for c, r in rows]}
    return _Output(data, ["chi0", "ratio"], rows)


def cmd_grmass_binding(args: argparse.Namespace) -> _Output:
    units = UnitsConfig.geometrized() if args.geometrized else UnitsConfig()
    if args.profile is not None:
        profile = load_profile_csv(args.profile)
    else:
        if args.mass is None:
            raise DomainError("--uniform needs --mass")
        if (args.radius is None) == (args.compactness is None):
            raise DomainError("--uniform needs exactly one of --radius or --compactness")
        if args.radius is not None:
            radius = args.radius
        else:
            if not 0.0 < args.compactness < 1.0:
                raise DomainError(f"compactness must lie in (0, 1), got {args.compactness}")
            radius = 2.0 * units.G * args.mass / (units.c**2 * args.compactness)
        profile = MassProfile.uniform(args.mass, radius)
    proper = proper_mass_integral(profile, units)
    compactness = 2.0 * units.G * profile.mass / (units.c**2 * profile.radius)
    data = {
        "kind": profile.kind,
        "mass": profile.mass,
        "radius": profile.radius,
        "compactness": compactness,
        "proper_mass": proper,
        "ratio": proper / profile.mass,
        "G": units.G,
        "c": units.c,
    }
    header = ["kind", "mass", "radius", "compactness", "proper_mass", "ratio"]
    row = [profile.kind, profile.mass, profile.radius, compactness, proper, proper / profile.mass]
    return _Output(data, header, [row])


def cmd_grmass_metric(args: argparse.Namespace) -> _Output:
    units = UnitsConfig.geometrized() if args.geometrized else UnitsConfig()
    chi = _angle_from(args, "chi")
    theta = _angle_from(args, "theta")
    g = flrw_metric_components(chi, theta, args.scale_factor, units)
    names = ["g_tt", "g_chi_chi", "g_theta_theta", "g_phi_phi"]
    data = {
        "chi_rad": chi.radians,
        "theta_rad": theta.radians,
        "scale_factor": args.scale_factor,
        **dict(zip(names, g)),
    }
    return _Output(data, ["chi_rad", "theta_rad", "scale_factor", *names],
                   [[chi.radians, theta.radians, args.scale_factor, *g]])


def _manifest(args: argparse.Namespace, out: _Output) -> dict:
    skip = {"func", "command", "gr_command", "format", "timestamp"}
    params = {k: v for k, v in vars(args).items() if k not in skip}
    command = args.command
    if getattr(args, "gr_command", None):
        command = f"{args.command} {args.gr_command}"
    return {
        "command": command,
        "parameters": params,
        "seed": out.seed,
        "version": __version__,
        "rng": out.rng,
        "timestamp": datetime.now(timezone.utc).isoformat() if args.timestamp else None,
    }


def _emit(args: argparse.Namespace, out: _Output, stream) -> None:
    if args.format == "json":
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "manifest": _manifest(args, out),
            "data": out.data,
        }
        json.dump(envelope, stream, indent=2, sort_keys=True)
        stream.write("\n")
    else:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(out.csv_header)
        writer.writerows(out.csv_rows)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        out = args.func(args)
    except (DomainError, ProfileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(args, out, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so the flush at
        # interpreter shutdown does not raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    return 0


def run() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
