"""Alternated parent/change pairs of the benchmark, written as a BENCH_<n>.json ledger record.

    python3 tools/bench_pairs.py PARENT CHANGE --workload exact \\
        --seeds 32101 32102 32103 32104 32105 32106 32107 32108 32109 32110 --out BENCH_32.json

Run from the root of a git checkout that holds both commits. Each commit is
exported with `git archive` into a fresh directory and its .pyc files are
compiled. There is one pair per seed. Each pair runs `perfbench/run.py
--workload W --seed S --seconds T --trace 0` in both exports on its seed,
the parent first in even pairs and the change first in odd ones; T is
BENCHMARK.json's run_seconds. The record holds every run and, for each
end-to-end metric of BENCHMARK.json, the medians and quartiles of both
sides, the change's wins and losses over the pairs, and whether the change
stays within the metric's bound. A metric whose parent spread is wider than
its bound is unresolved, unless every change run reads better than every
parent run. Where --out already holds a record of the same two commits, the
set is added to it and its notes are kept: the first set of a workload under
its name, a later one under name_set2, name_set3, ..., so none is overwritten.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

SIDES = ("parent", "change")
QUARTILES = "statistics.quantiles(n=4, method='inclusive')"


def spread(values: list) -> dict:
    """Median and quartiles; with one value all three are that value."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict, metrics: list) -> dict:
    """The per-metric summary of paired runs: runs[side][i] is pair i's run of that side, a dict of metric
    values; metrics are BENCHMARK.json's end-to-end entries (name, unit, better, bound)."""
    out = {}
    for m in metrics:
        name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
        parent, change = ([run[name] for run in runs[side]] for side in SIDES)
        p, c = spread(parent), spread(change)
        worse = sign * (c["median"] - p["median"]) / p["median"]
        iqr = (p["q3"] - p["q1"]) / p["median"]
        dominates = max(sign * x for x in change) < min(sign * x for x in parent)
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"], "parent": p, "change": c,
            "change_over_parent_median": c["median"] / p["median"],
            "change_wins": sum(sign * (y - x) < 0 for x, y in zip(parent, change)),
            "change_losses": sum(sign * (y - x) > 0 for x, y in zip(parent, change)),
            "worse_by_fraction_of_parent_median": worse,
            "parent_iqr_fraction_of_median": iqr,
            "unresolved": iqr > m["bound"] and not dominates,
            "within_bound": worse <= m["bound"],
        }
    return out


def workload_record(runs: dict, seeds: list, first: list, metrics: list) -> dict:
    ok = all(run["exit"] == 0 for side in SIDES for run in runs[side])
    return {
        "pairs": len(seeds), "seeds": seeds, "first_in_pair": first, "runs": runs,
        "summary": summarize(runs, metrics) if ok else None,
        "failed_ops": {side: sum(run["failed"] or 0 for run in runs[side]) for side in SIDES},
        "attempted_ops": {side: sum(run["attempted"] or 0 for run in runs[side]) for side in SIDES},
        "all_correct": {side: all(run["exit"] == 0 and run["correct"] for run in runs[side]) for side in SIDES},
    }


def set_name(workloads: dict, workload: str) -> str:
    """The key of a new set of `workload` in a record's workloads, which no earlier set holds."""
    name, k = workload, 1
    while name in workloads:
        k += 1
        name = f"{workload}_set{k}"
    return name


def export(commit: str, into: Path) -> str:
    """Extract the commit's files into `into`, compile them, and return the full sha."""
    sha = subprocess.run(["git", "rev-parse", commit], capture_output=True, text=True, check=True).stdout.strip()
    into.mkdir()
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "archive", sha], stdout=tar, check=True)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as archive:
            archive.extractall(into, filter="data")
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=into, check=True)
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float, metrics: list) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    run = {"seed": seed, "exit": proc.returncode, "correct": False, "attempted": None, "failed": None}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        run["exit"] = run["exit"] or 1  # no result line
        return run
    run.update(correct=result["correct"], attempted=result["attempted"], failed=result["failed"])
    run.update({m["name"]: result["metrics"][m["name"]]["value"] for m in metrics})
    return run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one seed per pair")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    first = [SIDES[i % 2] for i in range(len(args.seeds))]
    runs = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as work:
        trees = {side: Path(work) / side for side in SIDES}
        shas = {side: export(commit, trees[side]) for side, commit in zip(SIDES, (args.parent, args.change))}
        bench = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
        seconds, metrics = bench["run_seconds"], bench["end_to_end"]
        for seed, lead in zip(args.seeds, first):
            for side in (lead, SIDES[lead == "parent"]):
                runs[side].append(run_once(trees[side], args.workload, seed, seconds, metrics))
                print(f"{args.workload} seed {seed} {side}: {runs[side][-1]}", file=sys.stderr, flush=True)

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    if (record.get("parent_sha"), record.get("change_sha")) != (shas["parent"], shas["change"]):
        record = {
            "what": "alternated parent/change runs of `python3 perfbench/run.py --workload W --seed S --seconds "
                    f"{seconds:g} --trace 0`, each pair on one seed, the side that runs first alternating "
                    "from pair to pair; each side runs from its own `git archive` export of the commit's files "
                    "with .pyc files compiled",
            "parent_sha": shas["parent"], "change_sha": shas["change"],
            "machine": {"platform": platform.platform(), "arch": platform.machine(), "cpus": os.cpu_count()},
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "quartiles": QUARTILES, "claimed": None, "workloads": {}, "notes": [],
        }
    wl = workload_record(runs, args.seeds, first, metrics)
    record["workloads"][set_name(record["workloads"], args.workload)] = wl
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(wl["all_correct"].values()) and wl["summary"] is not None else 1


if __name__ == "__main__":
    sys.exit(main())
