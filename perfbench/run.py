"""spinframes benchmark: one command for the `cli`, `exact` and `sampling` workloads.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
./src, never from an installed copy. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones, taken from spans recorded around every call into a layer. See
perfbench/README.md for what each metric should move.
"""
import os

# One BLAS/OpenMP thread for the benchmark and every child it starts, so
# the figures measure the program and not the scheduler (2-core machine).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("cli", "exact", "sampling")
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
MAIN_REPEATS = 3

from statistics import median  # noqa: E402

from core import Tally, Tracer, end_to_end, run_op, run_rounds, warn  # noqa: E402

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_ms.geomean": "ms", "peak_rss_mb": "MB"}


def per_layer_names() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    from cli_ops import KINDS

    names = {
        "import.spinframes.ms": ("ms", "lower"),
        "import.spinframes.grmass.ms": ("ms", "lower"),
        "import.modules_loaded": ("count", "lower"),
        "import.numpy.ms": ("ms", "lower"),
    }
    for where in ("process", "main"):
        for kind in KINDS:
            names[f"cli.{where}.{kind}.ms"] = ("ms", "lower")
    for kind, unit in LATENCY_KINDS.items():
        names[f"{kind}.{unit}"] = (unit, "lower")
    for kind in THROUGHPUT_KINDS:
        names[f"{kind}.trials_per_s"] = ("1/s", "higher")
    names["montecarlo.records.bytes_per_trial"] = ("B", "lower")
    names["grmass.proper_mass_integral.failed"] = ("count", "lower")
    for layer in ("cli", "spin", "frames", "bell", "montecarlo", "grmass"):
        names[f"{layer}.self_s"] = ("s", "lower")
    names["trace.ops_per_s"] = ("1/s", "higher")
    return names


LATENCY_KINDS = {
    "spin.projection_probabilities": "us",
    "frames.su2_from_axis_angle": "us",
    "frames.so3_from_su2": "us",
    "frames.rotate_state": "us",
    "bell.joint_distribution": "us",
    "bell.correlation_tensor": "us",
    "bell.chsh_value": "us",
    "bell.chsh_quantum_max": "ms",
    "bell.chsh_scan": "ms",
    "bell.build_exact_ensemble": "ms",
    "montecarlo.sample_joint_small": "us",
    "montecarlo.empirical_chsh": "ms",
    "grmass.flrw_mass_ratio": "us",
    "grmass.flrw_metric_components": "us",
    "grmass.proper_mass_integral.uniform": "ms",
    "grmass.proper_mass_integral.table": "ms",
    "grmass.load_profile_csv": "ms",
}
THROUGHPUT_KINDS = ("montecarlo.sample_single", "montecarlo.sample_joint", "montecarlo.sample_joint_records")
SCALE = {"us": 1e6, "ms": 1e3}


# --- set-up ------------------------------------------------------------------

class Workload:
    """What a workload needs to run: its round builder, first round and the
    peak-RSS reading that applies to it."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.work = name, work
        self.rng = random.Random(f"{name}:{seed}")
        if name == "cli":
            from cli_ops import CliWorkload, run_process

            self.cli = CliWorkload(ROOT, work)
            self.make_round = self.cli.round
            self.first = self.make_round(self.rng)
            # pays for import and .pyc compilation before the first timed op
            run_process(["grmass", "ratio", "--chi0", "1.0"], ROOT)
            return
        import inproc

        if name == "exact":
            from inputs import write_fault_tables

            faults = write_fault_tables(work)
            self.make_round = lambda rng: inproc.exact_round(rng, work, faults)
        else:
            self.make_round = inproc.sampling_round
        self.first = self.make_round(self.rng)
        warmed = set()
        for group in self.first:
            if group[0].kind not in warmed:
                warmed.add(group[0].kind)
                for op in group:
                    try:
                        op.call()
                    except Exception:  # the timed call reports it
                        pass

    def peak_rss_mb(self) -> float:
        if self.name == "cli":
            return self.cli.peak_rss_kb / 1024.0
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_samples(args) -> list[float]:
    """Fresh interpreters doing the workload's set-up: start to ready."""
    out = []
    for k in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
               str(args.seed + k), "--seconds", "0", "--probe"]
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        out.append(perf_counter() - start)
        proc.stdout.close()
        proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return out


def import_layer(tracer: Tracer) -> dict[str, float]:
    """`-X importtime` of a fresh `import spinframes`, and the numpy floor."""
    cum: dict[str, list[float]] = {"spinframes": [], "spinframes.grmass": []}
    loaded, floor = [], []
    code = "import sys, spinframes; print(len(sys.modules))"
    for _ in range(IMPORT_SAMPLES):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, check=True)
        tracer.add("import.spinframes", "import", start, perf_counter())
        loaded.append(int(proc.stdout.split()[-1]))
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in cum and parts[1].strip().isdigit():
                cum[parts[2].strip()].append(int(parts[1]) / 1e3)
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, env=child_env(), check=True)
        floor.append((perf_counter() - start) * 1e3)
        tracer.add("import.numpy", "import", start, perf_counter())
    if len(set(loaded)) != 1:
        warn(f"modules loaded by `import spinframes` varied: {loaded}")
    return {
        "import.spinframes.ms": median(cum["spinframes"]),
        "import.spinframes.grmass.ms": median(cum["spinframes.grmass"]),
        "import.modules_loaded": float(loaded[0]),
        "import.numpy.ms": median(floor),
    }


# --- traced extras -------------------------------------------------------------

def other_layers(args, wl: Workload, tracer: Tracer, extra: Tally) -> None:
    """One round of each layer the workload does not call, so that every
    per-layer metric comes from this run, plus warm in-process cli.main."""
    for name in WORKLOADS:
        if name != args.workload:
            other = Workload(name, args.seed, Path(tempfile.mkdtemp(dir=wl.work)))
            run_rounds(other.make_round, other.rng, 0.0, extra, tracer, other.first, max_rounds=1)
    from cli_ops import CliWorkload

    cw = wl.cli if args.workload == "cli" else CliWorkload(ROOT, wl.work)
    for op in cw.main_ops(random.Random(f"main:{args.seed}")):
        try:
            op.call()  # warm call, untimed; the timed calls report errors
        except Exception:
            pass
        for _ in range(MAIN_REPEATS):
            run_op(op, extra, tracer, None)


def bytes_per_trial() -> float:
    import tracemalloc

    import inproc
    import spinframes as sf

    setting = sf.JointSetting.in_plane(sf.SINGLET.plane, sf.Angle(0.0), sf.Angle(1.0))
    tracemalloc.start()
    try:
        records, _ = sf.sample_joint(sf.SINGLET, setting, inproc.N_RECORDS, 1, keep_records=True)
        _, peak = tracemalloc.get_traced_memory()
        del records
    finally:
        tracemalloc.stop()
    return peak / inproc.N_RECORDS


def layer_metrics(args, loop: Tally, extra: Tally, tracer: Tracer, imports: dict) -> dict[str, float]:
    lat: dict[str, list[float]] = {}
    for t in (loop, extra):
        for kind, xs in t.latency.items():
            lat.setdefault(kind, []).extend(xs)
    out = dict(imports)
    for kind, xs in lat.items():
        if kind.startswith("cli."):
            out[f"{kind}.ms"] = median(xs) * 1e3
    for kind, unit in LATENCY_KINDS.items():
        out[f"{kind}.{unit}"] = median(lat[kind]) * SCALE[unit]
    trials = {**extra.trials, **loop.trials}
    for kind in THROUGHPUT_KINDS:
        out[f"{kind}.trials_per_s"] = trials[kind] / median(lat[kind])
    out["montecarlo.records.bytes_per_trial"] = bytes_per_trial()
    exact = loop if args.workload == "exact" else extra
    out["grmass.proper_mass_integral.failed"] = float(
        exact.failed_by_kind.get("grmass.proper_mass_integral.table", 0) / (loop.rounds if exact is loop else 1))
    self_s = tracer.self_seconds()
    for layer in ("cli", "spin", "frames", "bell", "montecarlo", "grmass"):
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    out["trace.ops_per_s"] = end_to_end(loop)["ops_per_s"]
    return out


# --- record ----------------------------------------------------------------------

def provenance() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "machine": {"platform": platform.platform(), "arch": platform.machine(), "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "spinframes" / "__init__.py").is_file():
        warn(f"error: no spinframes sources at {SRC}; run from the root of a spinframes checkout")
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        if args.probe:
            Workload(args.workload, args.seed, work)
            print("ready", flush=True)
            return 0
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], cwd=ROOT, check=True)
    tracer = Tracer(bool(args.trace))
    imports = import_layer(tracer) if args.trace else {}
    setups = [] if args.trace else setup_samples(args)

    wl = Workload(args.workload, args.seed, work)
    import spinframes

    if not Path(spinframes.__file__).resolve().is_relative_to(SRC):
        warn(f"error: spinframes was imported from {spinframes.__file__}, not {SRC}")
        return 2
    loop = Tally()
    run_rounds(wl.make_round, wl.rng, args.seconds, loop, tracer, wl.first)
    if args.workload == "cli":
        loop.mismatches += wl.cli.replay_seeded()

    if args.trace:
        extra = Tally()
        other_layers(args, wl, tracer, extra)
        loop.mismatches += extra.mismatches
        values = layer_metrics(args, loop, extra, tracer, imports)
        units = {k: u for k, (u, _) in per_layer_names().items()}
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps(tracer.spans))
    else:
        values = {"setup_s": median(setups), **end_to_end(loop), "peak_rss_mb": wl.peak_rss_mb()}
        units = END_TO_END
    if set(values) != set(units):
        raise RuntimeError(f"metric names differ from the declared ones: {set(values) ^ set(units)}")

    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    result = {"correct": not loop.mismatches, "attempted": loop.attempted, "failed": loop.failed,
              "metrics": metrics}
    record = {"time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "rounds": loop.rounds,
              **result, "setup_samples_s": setups, "failures": loop.failures,
              "kind_median_ms": {k: median(v) * 1e3 for k, v in sorted(loop.latency.items())},
              "round_ops_per_s": [ok / busy for ok, busy in loop.round_rates],
              "mismatches": loop.mismatches[:20], **provenance()}
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    for m in loop.mismatches[:20]:
        warn(f"MISMATCH {m}")
    for k, m in metrics.items():
        print(f"{args.workload:9s} {k:48s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:9s} rounds {loop.rounds}, attempted {loop.attempted}, failed {loop.failed}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
