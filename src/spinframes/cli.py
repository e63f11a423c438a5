"""Command-line surface: reproducible JSON/CSV tables for every operation.

JSON output is the envelope {schema_version, manifest, data}; CSV output
is a stable header row plus data rows. Anything seeded is byte-identical
across runs with the same arguments (the manifest timestamp is null
unless --timestamp is passed, keeping full-stream determinism).

Exit codes: 0 success, 2 usage error, unreadable input file or stdout
that cannot be written, 3 domain error, 4 convergence error.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import NamedTuple

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
    _ball_ratio,
    flrw_mass_ratio,
    flrw_metric_components,
    load_profile_csv,
    proper_mass_integral,
)
from .montecarlo import RNG_DISCIPLINE, empirical_chsh, sample_joint, sample_single
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

# a Monte Carlo run: its trial count, its average of +/-1 values and that average's stderr
_AVERAGE = {"type": "number", "minimum": -1, "maximum": 1}
_RUN = {"n": {"type": "integer", "minimum": 1}, "mean": _AVERAGE, "stderr": {"type": "number", "minimum": 0}}

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
        "data": {
            "type": ["object", "array"],
            "properties": {  # the Monte Carlo blocks of `spin`, `bell` and `chsh --mode empirical`
                "mc": {
                    "type": "object", "required": [*_RUN], "additionalProperties": False,
                    "properties": {**_RUN, "conditional_means": {
                        "type": "object", "propertyNames": {"enum": ["1", "-1"]}, "additionalProperties": _AVERAGE,
                    }},
                },
                "terms": {
                    "type": "array", "minItems": 4, "maxItems": 4,
                    "items": {"type": "object", "required": [*_RUN], "additionalProperties": False, "properties": _RUN},
                },
            },
        },
    },
}

_PLANES = {"xy": XY_PLANE, "zx": ZX_PLANE, "zy": ZY_PLANE}


def _add_angle_flags(parser: argparse.ArgumentParser, prefix: str = "theta"):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(f"--{prefix}-deg", type=float, default=None, metavar="DEG")
    group.add_argument(f"--{prefix}-rad", type=float, default=None, metavar="RAD")


def _angle_from(args: argparse.Namespace, prefix: str = "theta") -> Angle:
    deg = getattr(args, f"{prefix}_deg")
    if deg is not None:
        return Angle.from_degrees(deg)
    return Angle(getattr(args, f"{prefix}_rad"))


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


class _Output(NamedTuple):
    """What a command produced: its JSON data and the CSV rows it is built
    from. The CSV header is the keys of the first row."""

    data: dict
    rows: list[dict]
    seed: int | None = None


def _one_row(row: dict, **extras) -> _Output:
    """A one-row table; JSON data is the row plus the JSON-only `extras`."""
    return _Output({**row, **extras}, [row])


def _with_mc(row: dict, stats, seed: int, **mc_extras) -> _Output:
    """A one-row table with a Monte Carlo estimate drawn at `seed`: nested
    under "mc" in JSON, flattened to mc_n, mc_mean and mc_stderr in CSV."""
    mc = {"n": stats.n, "mean": stats.mean, "stderr": stats.stderr}
    flat = {f"mc_{k}": v for k, v in mc.items()}
    return _Output({**row, "mc": {**mc, **mc_extras}}, [{**row, **flat}], seed)


def _check_trials(n: int) -> None:
    if n < 0:
        raise DomainError(f"--n must be >= 0 (0 = analytic only), got {n}")


def cmd_spin(args: argparse.Namespace) -> _Output:
    _check_trials(args.n)
    theta = _angle_from(args)
    state = prepare_state(Z_AXIS)
    setting = ZX_PLANE.direction(theta)
    dist = projection_probabilities(state, setting)
    row = {"theta_rad": theta.radians, "p_up": dist.p_up, "p_down": dist.p_down,
           "expectation": expectation(dist)}
    if args.n == 0:
        return _one_row(row)
    _, stats = sample_single(state, setting, args.n, args.seed, keep_records=False)
    return _with_mc(row, stats, args.seed)


def cmd_bell(args: argparse.Namespace) -> _Output:
    _check_trials(args.n)
    state = BellState.from_label(args.state)
    plane = _PLANES[args.plane] if args.plane else state.plane
    theta = _angle_from(args)
    setting = JointSetting.in_plane(plane, Angle(0.0), theta)
    dist = joint_distribution(state, setting)
    row = {
        "state": state.label,
        "plane": plane.name,
        "theta_rad": theta.radians,
        **dict(zip(("p_pp", "p_pm", "p_mp", "p_mm"), dist.probabilities())),
        "correlation": dist.correlation,
        "conditional_given_up": dist.conditional_bob_mean(Outcome.UP),
        "conditional_given_down": dist.conditional_bob_mean(Outcome.DOWN),
    }
    if args.n == 0:
        return _one_row(row)
    _, stats = sample_joint(state, setting, args.n, args.seed, keep_records=False)
    means = {str(k): v for k, v in stats.conditional_means.items()}
    return _with_mc(row, stats, args.seed, conditional_means=means)


def cmd_ensemble(args: argparse.Namespace) -> _Output:
    theta = _angle_from(args)
    table = build_exact_ensemble(theta, args.n)
    avg = table.conditional_average()
    ups = table.bob_up_given_alice_up
    trials = [{"index": i, "alice": "+1", "bob": "+1" if i < ups else "-1"} for i in range(table.n)]
    data = {
        "theta_rad": theta.radians,
        "n": table.n,
        "bob_up": ups,
        "bob_down": table.bob_down_given_alice_up,
        "average": str(avg),
        "average_float": float(avg),
        "trials": trials,
    }
    return _Output(data, [*trials, {"index": "average", "alice": "", "bob": str(avg)}])


def cmd_chsh(args: argparse.Namespace) -> _Output:
    state = BellState.from_label(args.state)  # in every mode, as the manifest echoes the label
    if args.mode == "classical-max":
        return _one_row({"mode": args.mode, "value": chsh_classical_max()}, strategies=16)
    if args.mode == "analytic-max":
        value, best = chsh_quantum_max(state)
        angles = {f"{k}_rad": getattr(best, k).radians for k in ("alice", "alice_prime", "bob", "bob_prime")}
        row = {"mode": args.mode, "state": state.label, "value": value, **angles}
        return _one_row(row, plane=best.plane.name)
    if args.mode == "scan":
        scan = chsh_scan(state, Angle.from_degrees(args.resolution_deg))
        points = [{"angle_rad": a.radians, "s": s} for a, s in scan]
        data = {"mode": args.mode, "state": state.label, "plane": state.plane.name, "points": points}
        return _Output(data, points)
    # empirical
    setting = CHSHSetting(*map(Angle.from_degrees, (0.0, 90.0, 45.0, 135.0)), state.plane)
    est = empirical_chsh(state, setting, args.n, args.seed)
    row = {"mode": args.mode, "state": state.label, "value": est.value, "stderr": est.stderr,
           "n_per_pair": args.n}
    terms = [{"mean": t.mean, "stderr": t.stderr, "n": t.n} for t in est.terms]
    return _Output({**row, "plane": state.plane.name, "terms": terms}, [row], args.seed)


def cmd_grmass_ratio(args: argparse.Namespace) -> _Output:
    cfg = JunctionConfig(args.chi0, args.scale_factor)
    return _one_row({"chi0": cfg.chi0, "ratio": flrw_mass_ratio(cfg).ratio}, scale_factor=cfg.scale_factor)


def cmd_grmass_curve(args: argparse.Namespace) -> _Output:
    if not 2 <= args.points <= MAX_CURVE_POINTS:
        raise DomainError(f"need 2 to {MAX_CURVE_POINTS} grid points, got {args.points}")
    if not 0.0 < args.start < args.stop < math.pi:
        raise DomainError(
            f"grid must satisfy 0 < start < stop < pi, got [{args.start}, {args.stop}]"
        )
    step = (args.stop - args.start) / (args.points - 1)
    grid = (min(args.start + i * step, args.stop) for i in range(args.points))  # no rounding past stop
    points = [{"chi0": chi0, "ratio": flrw_mass_ratio(JunctionConfig(chi0)).ratio} for chi0 in grid]
    return _Output({"points": points}, points)


def cmd_grmass_binding(args: argparse.Namespace) -> _Output:
    units = UnitsConfig.geometrized() if args.geometrized else UnitsConfig()
    if args.profile is not None:
        given = [f"--{name}" for name in ("mass", "radius", "compactness") if getattr(args, name) is not None]
        if given:  # the table fixes them, and the manifest would echo a value that was never used
            raise DomainError(f"--profile takes its mass and radius from the table, not {', '.join(given)}")
        profile = load_profile_csv(args.profile)
    else:
        if args.mass is None:
            raise DomainError("--uniform needs --mass")
        if (args.radius is None) == (args.compactness is None):
            raise DomainError("--uniform needs exactly one of --radius or --compactness")
        radius = args.radius
        if radius is None:
            if not 0.0 < args.compactness < 1.0:
                raise DomainError(f"compactness must lie in (0, 1), got {args.compactness}")
            radius = 2.0 * units.G * args.mass / (units.c * units.c * args.compactness)
        profile = MassProfile.uniform(args.mass, radius)
    proper = proper_mass_integral(profile, units)
    row = {
        "kind": profile.kind,
        "mass": profile.mass,
        "radius": profile.radius,
        "compactness": 2.0 * units.G / (units.c * units.c) * profile.mass / profile.radius,  # c^2 R may overflow
        "proper_mass": proper,
        "ratio": _ball_ratio(profile, units) if profile.spline is None else proper / profile.mass,
    }
    return _one_row(row, G=units.G, c=units.c)


def cmd_grmass_metric(args: argparse.Namespace) -> _Output:
    units = UnitsConfig.geometrized() if args.geometrized else UnitsConfig()
    chi = _angle_from(args, "chi")
    theta = _angle_from(args, "theta")
    g = flrw_metric_components(chi, theta, args.scale_factor, units)
    row = {
        "chi_rad": chi.radians,
        "theta_rad": theta.radians,
        "scale_factor": args.scale_factor,
        **dict(zip(("g_tt", "g_chi_chi", "g_theta_theta", "g_phi_phi"), g)),
    }
    return _one_row(row)


def _parameters(args: argparse.Namespace) -> dict:
    skip = {"func", "command", "gr_command", "format", "timestamp"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _finite(value) -> bool:
    """Whether every float in a tree of dicts and lists is finite."""
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, list):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _check_finite(args: argparse.Namespace, out: _Output) -> None:
    """Raise before any byte is written if either format would print a NaN or
    an infinity: every CSV value is in `out.data`; JSON adds the parameters."""
    for name, value in _parameters(args).items():
        if not _finite(value):
            raise DomainError(f"--{name.replace('_', '-')} must be finite, got {value}")
    if not _finite(out.data):
        raise DomainError("the result is not finite")


def _manifest(args: argparse.Namespace, out: _Output) -> dict:
    command = args.command
    if getattr(args, "gr_command", None):
        command = f"{args.command} {args.gr_command}"
    timestamp = None
    if args.timestamp:
        from datetime import datetime, timezone

        timestamp = datetime.now(timezone.utc).isoformat()
    return {
        "command": command,
        "parameters": _parameters(args),
        "seed": out.seed,
        "version": __version__,
        "rng": RNG_DISCIPLINE if out.seed is not None else None,  # only Monte Carlo runs are seeded
        "timestamp": timestamp,
    }


def _emit(args: argparse.Namespace, out: _Output, stream) -> None:
    # each format's module is imported only when that format is written
    if args.format == "json":
        import json

        # a list in `data` is a table of flat rows: json writes the rest, and
        # each row is one item from a template, so bulk output streams
        key = next((k for k, v in out.data.items() if isinstance(v, list)), None)
        data = {**out.data, key: None} if key else out.data
        envelope = {"schema_version": SCHEMA_VERSION, "manifest": _manifest(args, out), "data": data}
        text = json.dumps(envelope, indent=2, sort_keys=True)
        if key:
            # the first `"<key>": null` is the table's: `data` sorts first in
            # the envelope and holds no other null; the table sits directly
            # under `data`, so its rows are indented 6 spaces
            head, text = text.split(f'"{key}": null', 1)
            rows = iter(out.data[key])
            first = next(rows)  # every table is non-empty
            # repr is how json writes ints and floats; the only strings, +1 and -1, need no escaping
            fields = (f'"{k}": "{{{k}}}"' if isinstance(v, str) else f'"{k}": {{{k}!r}}'
                      for k, v in sorted(first.items()))
            row = "      {{\n        " + ",\n        ".join(fields) + "\n      }}"
            stream.write(f'{head}"{key}": [\n{row.format_map(first)}')
            stream.writelines(",\n" + row.format_map(r) for r in rows)
            text = "\n    ]" + text
        stream.write(text + "\n")
    else:
        import csv

        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(out.rows[0].keys())
        writer.writerows(row.values() for row in out.rows)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process: building it costs
    about thirty times as much as a parse."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        out = args.func(args)
        _check_finite(args, out)
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
    except OSError as exc:
        # the reader went away or the device is full; point stdout at devnull
        # so the flush at interpreter shutdown does not raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def run() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
