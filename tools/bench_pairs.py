"""Alternating parent/change benchmark pairs, written as one ``BENCH_<n>.json``.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pairs 10 --out BENCH_17.json

Each revision's committed files are exported with ``git archive`` into the
ignored ``.bench_build/<sha>``, and both exports are removed when the run ends,
on an error too.  For seeds 1..N and each workload,
``bench/run.py`` runs once in each export, the parent first on odd seeds.
For every end-to-end metric of ``BENCHMARK.json`` the file holds both
sides' values, medians, quartiles and extremes, the pairs the change won,
the medians of the side that ran first in each pair and of the side that ran
second (``first_median``, ``second_median``), and the machine facts, and each side's ``src/simplexdyn/*.py`` line counts,
per file and in total.  Each metric's ``verdict`` is ``"gain"``,
``"regression"``, ``"unresolved"`` or null (see ``verdict``); one line per
workload names them at the end, and a last line gives both sides' line
totals and their difference.  A run whose last stdout line is not a JSON
object is kept as ``malformed``; it, and any run that exits nonzero, keeps
the last 20 lines of its stderr.
After a workload's pairs, one ``--trace 1`` run per side (seed 3, 0 s)
records its exit code, ``correct`` and the metrics that read null.  The file
is rewritten after every pair.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

NUMPY_FACTS = (
    "import json, numpy as np; blas = np.show_config(mode='dicts')['Build Dependencies']['blas'];"
    "print(json.dumps({'numpy': np.__version__, 'blas': {k: blas.get(k) for k in"
    " ('name', 'version', 'openblas configuration')}}))"
)


def export(rev: str) -> tuple[str, str]:
    """(sha, directory) of ``rev``'s committed files under ``.bench_build``."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], check=True,
                         capture_output=True, text=True).stdout.strip()
    path = os.path.join(".bench_build", sha)
    if not os.path.isdir(path):
        os.makedirs(path + ".part", exist_ok=True)
        archive = subprocess.run(["git", "archive", sha], check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", path + ".part"], input=archive, check=True)
        os.rename(path + ".part", path)
    return sha, path


@contextlib.contextmanager
def exports(*revs: str):
    """The (sha, directory) of each of ``revs`` (``export``), each removed when the block ends.

    An error in the block, or in a later export, removes the exports made; ``.bench_build``
    goes too once it is empty.
    """
    made = []
    try:
        for rev in revs:
            made.append(export(rev))
        yield made
    finally:
        for _, path in made:
            shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(".bench_build")


def line_counts(path: str) -> dict:
    """Lines of each ``src/simplexdyn/*.py`` file of the export at ``path``, and their total."""
    src = os.path.join(path, "src", "simplexdyn")
    files = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                files[name] = fh.read().count(b"\n")  # as wc -l counts
    return {"files": files, "total": sum(files.values())}


def machine_facts() -> dict:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
    facts = json.loads(subprocess.run([sys.executable, "-c", NUMPY_FACTS], check=True,
                                      capture_output=True, text=True).stdout)
    verbose = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                             text=True, env=dict(os.environ, OPENBLAS_VERBOSE="2"))
    lines = (verbose.stdout + verbose.stderr).splitlines()
    core = [line.split(":", 1)[1].strip() for line in lines if line.startswith("Core:")]
    return {"nproc": os.cpu_count(), "cpu": (cpu or [""])[0], "python": platform.python_version(),
            **facts, "openblas_core": (core or [None])[0],
            "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))}


def run_once(path: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One ``bench/run.py`` run: its exit code, ``correct``, metric values and null metrics.

    A run whose last stdout line is not a JSON object is recorded as ``malformed``; such a run,
    or one with a nonzero exit, keeps the last 20 lines of its stderr as ``stderr_tail``.
    """
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed",
                           str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=path, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    record = {"exit": proc.returncode, "malformed": True, "correct": False, "values": {},
              "null": []}
    if isinstance(result, dict):
        values = {name: m["value"] for name, m in result.get("metrics", {}).items()}
        record.update(malformed=False, correct=result.get("correct", False), values=values,
                      null=sorted(name for name, v in values.items() if v is None))
    if record["malformed"] or proc.returncode != 0:
        record["stderr_tail"] = proc.stderr.splitlines()[-20:]
    return record


def spread(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "min": min(values),
            "max": max(values)}


def verdict(stats: dict, lower: bool, bound: float) -> str | None:
    """``"gain"``, ``"regression"``, ``"unresolved"`` or None for one metric's ``summary`` entry.

    A gain: the change won at least 9 in 10 of the pairs (a tie counts for
    neither side) and its median beats the parent's by more than the parent's
    interquartile range.  A regression: the change's median is worse than the
    parent's by more than ``bound``, a share of the parent's median.  Unresolved:
    neither, while the parent's interquartile range is wider than that bound (the
    runs cannot tell a change within it from none), unless every run of the change
    beats every run of the parent.
    """
    parent, change = stats["parent"], stats["change"]
    better = (parent["median"] - change["median"]) * (1 if lower else -1)
    iqr, allowed = parent["q3"] - parent["q1"], bound * abs(parent["median"])
    if 10 * stats["change_won"] >= 9 * stats["pairs"] and better > iqr:
        return "gain"
    if -better > allowed:
        return "regression"
    apart = change["max"] < parent["min"] if lower else change["min"] > parent["max"]
    return "unresolved" if iqr > allowed and not apart else None


def summary(runs: list, declared: list) -> dict:
    out = {}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [(r["seed"], r["parent"]["values"][name], r["change"]["values"][name])
                 for r in runs if r["parent"]["values"].get(name) is not None
                 and r["change"]["values"].get(name) is not None]
        if not pairs:
            continue
        won = sum((c < p) if lower else (c > p) for _, p, c in pairs)
        # main runs the parent first on odd seeds
        first = [p if seed % 2 else c for seed, p, c in pairs]
        second = [c if seed % 2 else p for seed, p, c in pairs]
        out[name] = {**metric, "parent": spread([p for _, p, _ in pairs]),
                     "change": spread([c for _, _, c in pairs]), "change_won": won,
                     "pairs": len(pairs), "first_median": statistics.median(first),
                     "second_median": statistics.median(second)}
        out[name]["verdict"] = verdict(out[name], lower, metric["bound"])
    return out


def verdict_line(workload: str, metrics: dict) -> str:
    """``workload: gain a, b; regression -``, from the verdicts of its summary.

    ``; unresolved c`` follows only when some metric is unresolved.
    """
    names = {kind: [name for name, m in metrics.items() if m["verdict"] == kind]
             for kind in ("gain", "regression", "unresolved")}
    if not names["unresolved"]:
        del names["unresolved"]
    return f"{workload}: " + "; ".join(f"{kind} {', '.join(found) or '-'}"
                                       for kind, found in names.items())


def lines_line(lines: dict) -> str:
    """``src lines: <parent> -> <change> (<+-delta>)``, from the ``lines`` record."""
    parent, change = lines["parent"]["total"], lines["change"]["total"]
    return f"src lines: {parent} -> {change} ({change - parent:+d})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")  # both are git revisions
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    with exports(args.parent, args.change) as [(parent, parent_dir), (change, change_dir)]:
        record = {"parent": parent, "change": change, "seconds": args.seconds, "pairs": args.pairs,
                  "machine": machine_facts(),
                  "lines": {"parent": line_counts(parent_dir), "change": line_counts(change_dir)},
                  "workloads": {}}
        for workload in args.workloads or [w["name"] for w in spec["workloads"]]:
            runs, order = [], [("parent", parent_dir), ("change", change_dir)]
            for seed in range(1, args.pairs + 1):
                pair = {side: run_once(path, workload, seed, args.seconds)
                        for side, path in (order if seed % 2 else order[::-1])}
                runs.append({"seed": seed, **pair})
                record["workloads"][workload] = {"summary": summary(runs, spec["end_to_end"]),
                                                 "runs": runs}
                with open(args.out, "w", encoding="utf-8") as fh:
                    json.dump(record, fh, indent=1)
                print(workload, seed, {side: (run["values"].get("step_us"), run["correct"])
                                       for side, run in pair.items()}, file=sys.stderr, flush=True)
            # one traced run per side: a traced name that no longer binds reads null
            traced = {side: run_once(path, workload, 3, 0, trace=1) for side, path in order}
            record["workloads"][workload]["traced"] = {
                side: {key: run[key]
                       for key in ("exit", "malformed", "correct", "null", "stderr_tail")
                       if key in run} for side, run in traced.items()}
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1)
            print(workload, "traced", record["workloads"][workload]["traced"], file=sys.stderr,
                  flush=True)
    for workload, entry in record["workloads"].items():
        print(verdict_line(workload, entry["summary"]))
    print(lines_line(record["lines"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
