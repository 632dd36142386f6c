"""cellseed benchmark.

One run of one workload (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload lift-ladder --seed 1 --seconds 40 --trace 0

prints each metric by name and unit, then, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the workload untraced and then traced
and reports the per-layer metrics.

All four workloads, several seeds, into a result set:

    python3 perfbench/run.py --all --runs 10 --seconds 40 --trace 1 --out .perfbench/parent.json

Two result sets, parent against change, one row per metric and workload:

    python3 perfbench/run.py --compare .perfbench/parent.json .perfbench/change.json

Run from the repository root; the package is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

#: the metric tables (names, units, directions, bounds)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: every workload, including any that BENCHMARK.json leaves out
WORKLOADS = ("lift-ladder", "mutation-walk", "oracle-exact", "cli-readme")

#: fresh processes that only set up, besides the measuring one; setup_s is
#: the median over all of them
SETUP_PROBES = 2
#: a worker is stopped if it has not finished by then
WORKER_TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def spawn_worker(args, probe: bool) -> tuple[float, dict | None]:
    """Start a worker; return (seconds from start to ``ready``, result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--probe"] if probe else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        watchdog.join()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready":
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    if probe:
        return setup, None
    lines = [ln for ln in rest.splitlines() if ln.startswith("result ")]
    if not lines:
        raise BenchError("worker printed no result")
    return setup, json.loads(lines[-1][len("result "):])


def single_run(args) -> dict:
    if not (ROOT / "src" / "cellseed" / "__init__.py").is_file():
        raise BenchError(f"no package source at {ROOT / 'src' / 'cellseed'}")
    setups = []
    if not args.trace:
        setups = [spawn_worker(args, probe=True)[0] for _ in range(SETUP_PROBES)]
    setup, res = spawn_worker(args, probe=False)
    setups.append(setup)
    if not args.trace:
        res["metrics"]["setup_s"] = statistics.median(setups)
    table = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    missing = [m["name"] for m in table if m["name"] not in res["metrics"]]
    if missing:
        raise BenchError(f"worker reported no {missing}")
    metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]} for m in table}
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(), "setup_samples_s": setups,
        "raised": res["raised"], "failed_ratio": res["failed"] / res["attempted"],
        "self_check": res["self_check"], "first_mismatch": res["first_mismatch"],
        **res["info"],
    }
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:36s} {m['value']:16.6g} {m['unit']}")
    print(f"{args.workload:14s} {'failed_ratio':36s} {summary['failed_ratio']:16.6g} ratio")
    print("summary " + json.dumps(summary))
    return {
        "correct": res["mismatched"] == 0 and res["self_check"],
        "attempted": res["attempted"],
        "failed": res["mismatched"],
        "metrics": metrics,
    }


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if out.returncode != 0:
        raise BenchError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.splitlines()
    summary = next(json.loads(ln[8:]) for ln in lines if ln.startswith("summary "))
    return {"seed": seed, "result": json.loads(lines[-1]), "summary": summary}


def metric_rows(runs: list[dict]) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for run in runs:
        for name, m in run["result"]["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values


def suite(args) -> None:
    results = {"env": environment(), "seconds": args.seconds, "runs": {}, "traced": {}}
    for r in range(args.runs):
        for w in WORKLOADS:
            run = run_child(w, args.seed + r, args.seconds, 0)
            results["runs"].setdefault(w, []).append(run)
            print(f"{w} seed {args.seed + r}: correct={run['result']['correct']} "
                  f"failed={run['result']['failed']}/{run['result']['attempted']}",
                  file=sys.stderr)
    if args.trace:
        for w in WORKLOADS:
            results["traced"][w] = [run_child(w, args.seed, args.seconds, 1)]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    print(f"env: {json.dumps(results['env'])}")
    for w in WORKLOADS:
        runs = results["runs"][w]
        for name, vals in metric_rows(runs).items():
            q1, q2, q3 = stats.quartiles(vals)
            print(f"{w:14s} {name:14s} {q2:14.6g} {units[name]:6s} [q1 {q1:.6g}, q3 {q3:.6g}]"
                  f"  spread {(q3 - q1) / q2 if q2 else 0:.2%}  n={len(vals)}")
        fr = [r["summary"]["failed_ratio"] for r in runs]
        print(f"{w:14s} {'failed_ratio':14s} {statistics.median(fr):14.6g} ratio")
        print(f"{w:14s} {'tail':14s} p{runs[0]['summary']['tail_percentile']} of "
              f"{runs[0]['summary']['samples']} samples")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"result set written to {out}")


def compare(parent_path: str, change_path: str) -> None:
    parent = json.loads(Path(parent_path).read_text())
    change = json.loads(Path(change_path).read_text())
    print(f"parent env: {json.dumps(parent['env'])}")
    print(f"change env: {json.dumps(change['env'])}")
    for w in WORKLOADS:
        p_runs = {r["seed"]: r for r in parent["runs"].get(w, [])}
        c_runs = {r["seed"]: r for r in change["runs"].get(w, [])}
        seeds = sorted(set(p_runs) & set(c_runs))
        if not seeds:
            continue
        pv = metric_rows([p_runs[s] for s in seeds])
        cv = metric_rows([c_runs[s] for s in seeds])
        for m in SPEC["end_to_end"]:
            name, unit = m["name"], m["unit"]
            p1, pm, p3 = stats.quartiles(pv[name])
            c1, cm, c3 = stats.quartiles(cv[name])
            v = stats.verdict(pv[name], cv[name], m["better"], m["bound"])
            print(f"{w:14s} {name:13s} {unit:6s} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
                  f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  {v}  ({len(seeds)} pairs)")
        pt, ct = parent["traced"].get(w), change["traced"].get(w)
        if pt and ct:
            pl, cl = metric_rows(pt), metric_rows(ct)
            for m in SPEC["per_layer"]:
                name, unit = m["name"], m["unit"]
                a, b = statistics.median(pl[name]), statistics.median(cl[name])
                delta = f"{(b - a) / a:+.1%}" if a else "n/a"
                print(f"{w:14s}   {name:36s} {a:12.6g} -> {b:12.6g} {unit:5s} {delta}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, --runs seeds from --seed")
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--out", default=".perfbench/results.json")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = ap.parse_args()
    try:
        if args.compare:
            compare(*args.compare)
        elif args.all:
            suite(args)
        elif args.workload:
            print(json.dumps(single_run(args)))
        else:
            ap.error("give --workload, --all or --compare")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
