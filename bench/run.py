"""Layered benchmark of the ``gammaspacings`` CLI.

One run drives one workload the way a user does: one CLI invocation per
operation, each in a fresh interpreter, in a closed loop with a single
client and one invocation at a time, while the next invocation is
expected to end within ``--seconds`` of summed wall time.  Every
invocation's outputs are checked.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S
    python3 bench/run.py --compare PARENT_DIR CHANGE_DIR --workload all \\
        --seed N --seconds S --pairs 10

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced invocations and reports
the per-layer metrics of the traced invocation with the median command
time, plus the tracing overhead.  ``--compare`` benchmarks two source
trees (each holding ``src/gammaspacings``) with this benchmark's code,
in pairs of runs whose order alternates, and gives a verdict per
workload and metric.  Every run leaves a record with its inputs,
environment and per-invocation samples in ``.bench_runs/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from datetime import datetime, timezone
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, cli_seed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
LAUNCHER = BENCH_DIR / "launch.py"
INVOCATION_TIMEOUT_S = 120.0
# Stop starting invocations after this much real time, so that a run
# ends within three minutes even on a stalled machine.
RUN_DEADLINE_S = 130.0
# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
# A gain is claimed only from at least this many pairs of runs.
MIN_PAIRS = 10
# The probe: a fixed interpreter-bound loop timed just before and just
# after each invocation.  On a shared host the speed of the machine
# swings by up to 2x over minutes, and raw seconds swing with it; the
# gated metrics divide by the probe, which cancels most of that swing.
PROBE_LOOPS = 300_000
# ``setup_s`` must read in seconds, so the import time is divided by the
# probe and multiplied by this nominal probe time: the probe's typical
# time on the 2-vCPU host the baseline was measured on.
PROBE_NOMINAL_S = 0.012
# Raw times: printed, recorded and compared, but not gated by
# BENCHMARK.json, because their run-to-run spread on a shared host
# reaches the largest bound allowed.
UNGATED = ({"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "setup_raw_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "work_per_s", "unit": "units/s", "better": "higher", "bound": 0.25})


class SetupError(RuntimeError):
    """The tree to benchmark or the benchmark's definition is missing."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"{path} not found")
    return json.loads(path.read_text())


def source_dir(root: Path) -> Path:
    src = root / "src"
    if not (src / "gammaspacings" / "cli.py").is_file():
        raise SetupError(f"{root} holds no src/gammaspacings/cli.py to benchmark")
    return src


def probe_s() -> float:
    """Median time of three runs of the probe loop."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for k in range(PROBE_LOOPS):
            total += k
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_invocation(src: Path, argv: list, outdir: Path, traced: bool) -> dict:
    """Run the CLI once in a fresh interpreter with ``outdir`` as its
    working directory; return its timings, exit code and peak RSS."""
    outdir.mkdir(parents=True)
    record_path = outdir / "launch-record.json"
    cmd = [sys.executable, str(LAUNCHER), str(src), str(record_path),
           "1" if traced else "0", "--", *argv]
    with open(outdir / "stdout.txt", "wb") as out, open(outdir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=outdir, stdout=out, stderr=err)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    inv = {"traced": traced, "wall_s": wall, "exit_code": proc.returncode,
           "peak_rss_mb": usage.ru_maxrss / 1024.0}
    try:
        inv.update(json.loads(record_path.read_text()))
    except (OSError, ValueError) as exc:
        inv["error"] = f"no launch record: {exc}"
    return inv


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


def quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    values = sorted(values)
    if len(values) <= TAIL_BEYOND:
        return None
    return values[len(values) - TAIL_BEYOND - 1]


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 root: Path = ROOT) -> dict:
    """One benchmark run: invocations while the next one is expected to
    end within ``seconds`` of summed wall time (at least one, and with
    ``trace`` at least one traced and one untraced)."""
    src = source_dir(root)
    compileall.compile_dir(src, quiet=1)
    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}-{time.time_ns()}"
    argv = workload.argv(cli_seed(workload.name, seed))
    oracle_cache = {}
    invocations = []
    measured = 0.0
    begin = time.monotonic()
    try:
        while True:
            kinds = {inv["traced"] for inv in invocations}
            expected = statistics.median(inv["wall_s"] for inv in invocations) if invocations else 0
            enough = (invocations and measured + expected > seconds
                      and (not trace or kinds == {False, True}))
            if enough or (invocations and time.monotonic() - begin > RUN_DEADLINE_S):
                break
            traced = trace and len(invocations) % 2 == 1
            outdir = work / f"inv-{len(invocations)}"
            before = probe_s()
            inv = run_invocation(src, argv, outdir, traced)
            inv["probe_s"] = (before + probe_s()) / 2
            measured += inv["wall_s"]
            problems = []
            if inv.get("error"):
                problems.append(inv["error"])
            if inv["exit_code"] != 0:
                problems.append(f"exit code {inv['exit_code']}: "
                                + (outdir / "stderr.txt").read_text()[-500:])
            problems += workload.check(outdir, workload.size, seed, oracle_cache)
            inv["digest"] = digest(outdir / name for name in workload.data_files)
            if invocations and inv["digest"] != invocations[0]["digest"]:
                problems.append("data files differ from the run's first invocation")
            inv["problems"] = problems
            invocations.append(inv)
            shutil.rmtree(outdir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    return summarize(workload, seed, seconds, trace, invocations)


def summarize(workload, seed, seconds, trace, invocations) -> dict:
    timed = [inv for inv in invocations if "command_s" in inv]
    plain = [inv for inv in timed if not inv["traced"]]
    failed = sum(1 for inv in invocations if inv["problems"])
    metrics = {}  # name -> (value, samples)
    if plain:
        walls = [inv["wall_s"] for inv in plain]
        metrics["wall_s"] = (statistics.median(walls), len(walls))
        metrics["wall_norm"] = (statistics.median(
            inv["wall_s"] / inv["probe_s"] for inv in plain), len(plain))
        metrics["wall_tail_s"] = (tail(walls), len(walls))
        metrics["setup_s"] = (statistics.median(
            inv["setup_s"] / inv["probe_s"] * PROBE_NOMINAL_S for inv in plain), len(plain))
        metrics["setup_raw_s"] = (statistics.median(inv["setup_s"] for inv in plain),
                                  len(plain))
        # Throughput of the run: all work done over all command time.
        metrics["work_per_s"] = (workload.work_units * len(plain)
                                 / sum(inv["command_s"] for inv in plain), len(plain))
        metrics["work_norm"] = (workload.work_units * len(plain) / sum(
            inv["command_s"] / inv["probe_s"] for inv in plain), len(plain))
        metrics["peak_rss_mb"] = (statistics.median(inv["peak_rss_mb"] for inv in plain),
                                  len(plain))
    metrics["fail_ratio"] = (failed / len(invocations), len(invocations))
    traced = sorted((inv for inv in timed if inv["traced"]), key=lambda inv: inv["command_s"])
    if traced:
        chosen = traced[(len(traced) - 1) // 2]
        for name, value in chosen["layers"].items():
            metrics[name] = (value, len(traced))
        if plain:
            overhead = (statistics.median(inv["command_s"] for inv in traced)
                        - statistics.median(inv["command_s"] for inv in plain))
            metrics["trace.overhead_s"] = (overhead, min(len(traced), len(plain)))
    return {"workload": workload.name, "seed": seed, "seconds": seconds,
            "trace": trace, "cli_args": workload.argv(cli_seed(workload.name, seed)),
            "work_unit": workload.unit, "attempted": len(invocations),
            "failed": failed, "metrics": metrics, "invocations": invocations}


def git_state(root: Path) -> dict:
    if not (root / ".git").exists():
        return {"sha": None, "src_dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True, timeout=30).stdout.strip()

    return {"sha": git("rev-parse", "HEAD") or None,
            "src_dirty": bool(git("status", "--porcelain", "--", "src", "pyproject.toml"))}


def environment(root: Path) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"git": git_state(root), "python": sys.version.split()[0],
            **{dist: version(dist) for dist in ("numpy", "scipy", "click", "mpmath")},
            "nproc": len(os.sched_getaffinity(0)),
            "time": datetime.now(timezone.utc).isoformat()}


def save(record: dict, stem: str) -> Path:
    out = ROOT / ".bench_runs"
    out.mkdir(exist_ok=True)
    path = out / f"{datetime.now(timezone.utc):%Y%m%dT%H%M%S%f}-{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def print_table(result, spec):
    print(f"== {result['workload']}  seed={result['seed']}  work unit: {result['work_unit']}")
    print(f"   gammaspacings {' '.join(result['cli_args'])}")
    units = {d["name"]: d["unit"] for d in [*spec["end_to_end"], *spec["per_layer"], *UNGATED]}
    units.update({"wall_tail_s": "s", "fail_ratio": "ratio"})
    for name, (value, samples) in result["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        note = f"  (needs > {TAIL_BEYOND} samples)" if value is None else ""
        print(f"   {name:28s} {shown:>12s} {units.get(name, ''):8s} n={samples}{note}")
    for i, inv in enumerate(result["invocations"]):
        for problem in inv["problems"]:
            print(f"   invocation {i} FAILED: {problem}")


def emit(results, spec, trace):
    """Print the result line: every metric ``BENCHMARK.json`` lists for
    the run's mode, with its unit."""
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        for d in spec["per_layer"] if trace else spec["end_to_end"]:
            value = result["metrics"].get(d["name"], (None,))[0]
            if value is None:
                raise SetupError(f"{result['workload']}: metric {d['name']} not measured")
            metrics[prefix + d["name"]] = {"value": value, "unit": d["unit"]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def verdict(parent, change, better, bound, parent_failed, change_failed):
    """improved / unchanged / worse / unresolved for one metric, from
    paired runs (``parent[i]`` and ``change[i]`` ran as pair ``i``)."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - parent) > 0 is worse
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = quartiles(parent)
    spread = (q3 - q1) / abs(p_med)
    worse_by = sign * (c_med - p_med) / abs(p_med)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    all_worse = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= 0.9 * len(parent) and abs(c_med - p_med) > q3 - q1:
        enough = len(parent) >= MIN_PAIRS and change_failed <= parent_failed
        return "improved" if enough else "unresolved"
    if worse_by > bound and (spread <= bound or all_worse):
        return "worse"
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def compare(parent_root, change_root, names, seed, seconds, pairs, spec):
    sides = {"parent": Path(parent_root).resolve(), "change": Path(change_root).resolve()}
    for root in sides.values():
        source_dir(root)
    runs = {(side, name): [] for side in sides for name in names}
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for name in names:
            for side in order:
                result = run_workload(WORKLOADS[name], seed + pair, seconds, False,
                                      root=sides[side])
                runs[side, name].append(result)
                print(f"pair {pair} {name} {side}: wall_s="
                      f"{result['metrics']['wall_s'][0]:.4f} failed={result['failed']}",
                      flush=True)
    rows = []
    print(f"{'workload':18s} {'metric':12s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins':>6s}  verdict")
    for name in names:
        failed = {side: sum(r["failed"] for r in runs[side, name]) for side in sides}
        for d in [*spec["end_to_end"], *UNGATED]:
            values = {side: [r["metrics"][d["name"]][0] for r in runs[side, name]]
                      for side in sides}
            sign = 1.0 if d["better"] == "lower" else -1.0
            wins = sum(1 for p, c in zip(values["parent"], values["change"])
                       if sign * (c - p) < 0)
            row = {"workload": name, "metric": d["name"], "unit": d["unit"],
                   "bound": d["bound"], "wins": wins, "pairs": pairs,
                   "verdict": verdict(values["parent"], values["change"], d["better"],
                                      d["bound"], failed["parent"], failed["change"]),
                   **{side: {"median": statistics.median(v), "quartiles": quartiles(v),
                             "values": v} for side, v in values.items()}}
            rows.append(row)
            cells = [f"{row[s]['median']:.5g} [{row[s]['quartiles'][0]:.5g}, "
                     f"{row[s]['quartiles'][2]:.5g}] {d['unit']}" for s in sides]
            print(f"{name:18s} {d['name']:12s} {cells[0]:>34s} {cells[1]:>34s} "
                  f"{wins:>3d}/{pairs:<2d}  {row['verdict']}")
        pooled = {side: tail(inv["wall_s"] for r in runs[side, name]
                             for inv in r["invocations"] if "command_s" in inv)
                  for side in sides}
        shown = {side: "n/a" if v is None else f"{v:.5g} s" for side, v in pooled.items()}
        print(f"{name:18s} wall_tail_s pooled: parent {shown['parent']}, change "
              f"{shown['change']}; failed invocations: parent {failed['parent']}, "
              f"change {failed['change']}")
    return {"compare": {side: str(root) for side, root in sides.items()},
            "seed": seed, "seconds": seconds, "pairs": pairs, "rows": rows,
            "runs": {f"{side}/{name}": r for (side, name), r in runs.items()}}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    parser.add_argument("--pairs", type=int, default=10)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        spec = load_spec()
        if args.compare:
            report = compare(*args.compare, names, args.seed, args.seconds, args.pairs, spec)
            report["environment"] = {side: environment(Path(root))
                                     for side, root in report["compare"].items()}
            print(f"record: {save(report, 'compare')}")
            return 0
        results = []
        for name in names:
            result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            result["environment"] = environment(ROOT)
            print_table(result, spec)
            print(f"   record: {save(result, f'{name}-seed{args.seed}-trace{args.trace}')}")
            results.append(result)
        emit(results, spec, bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
