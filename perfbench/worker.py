"""One workload in one process: set up, say ``ready``, run the timed loop.

Started by ``run.py``; not meant to be run by hand.  The first stdout line is
``ready`` once set-up is done (the parent times process start to this line
as ``setup_s``); with ``--probe`` the worker stops there.  Otherwise the last
line is ``result <json>``.

The loop is closed with one client: one op at a time, in whole passes.  A
pass is every op of the workload once, in an order drawn from the workload
seed.  Another pass starts only if the last pass's duration says it will end
within the time budget, once ``min_passes`` are done, so every run measures
the same mix of ops.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time

import stats
import tracing
import workloads


class Phase:
    def __init__(self):
        self.latencies: list[float] = []
        self.raised = 0
        self.mismatched = 0
        self.failed = 0  # raised or mismatched
        self.passes = 0
        self.pass_rates: list[float] = []  # ops per second of op time, per pass
        self.wall = 0.0
        self.last = None  # (op, result, exc, expected) of the last op, for the self-check
        self.first_mismatch = None

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def ops_per_s(self) -> float:
        return self.attempted / sum(self.latencies)


def run_phase(wl, rng, budget: float, min_passes: int, tracer=None, ph=None) -> Phase:
    """Run whole passes of ``wl`` (into ``ph`` if given) until the budget is spent."""
    if ph is None:
        ph = Phase()
    clock = time.perf_counter
    start = clock()
    while True:
        ops = wl.pass_ops(rng)
        rng.shuffle(ops)
        pass_start = clock()
        for op in ops:
            if tracer is not None:
                tracer.op_id = ph.attempted
            t0 = clock()
            try:
                result, exc = wl.run(op), None
            except Exception as e:  # an op that raises is counted, and the loop goes on
                result, exc = None, e
            ph.latencies.append(clock() - t0)
            expected = wl.expected(op)
            matched = wl.check(op, result, exc, expected)
            ph.raised += exc is not None
            ph.mismatched += not matched
            ph.failed += exc is not None or not matched
            if not matched and ph.first_mismatch is None:
                ph.first_mismatch = (wl.key(op), wl.outcome(op, result, exc))
            ph.last = (op, result, exc, expected)
        if tracer is not None:
            tracer.end_pass()
        ph.passes += 1
        ph.pass_rates.append(len(ops) / sum(ph.latencies[-len(ops):]))
        now = clock()
        if ph.passes >= min_passes and (now - start) + (now - pass_start) > budget:
            ph.wall = now - start
            return ph


def self_check(wl, ph: Phase) -> bool:
    """A corrupted reference entry must be reported as a failed op."""
    op, result, exc, expected = ph.last
    return not wl.check(op, result, exc, wl.corrupt(expected))


def e2e_metrics(wl, ph: Phase) -> tuple[dict, dict]:
    lat_ms = [x * 1000.0 for x in ph.latencies]
    pct, tail_ms = stats.tail(lat_ms)
    rss = wl.peak_rss_kib() or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": ph.ops_per_s(),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "peak_rss_kib": float(rss),
        "ok_ratio": 1.0 - ph.failed / ph.attempted,
    }
    info = {"tail_percentile": pct, "samples": ph.attempted, "passes": ph.passes,
            "wall_s": round(ph.wall, 3), "pass_rates": [round(r, 4) for r in ph.pass_rates]}
    return metrics, info


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    os.chdir(workloads.ROOT)
    wl = workloads.make(args.workload)
    print("ready", flush=True)
    if args.probe:
        return 0

    rng = random.Random(f"{args.workload}:{args.seed}")
    out: dict = {}
    if not args.trace:
        ph = run_phase(wl, rng, args.seconds, min_passes=2)
        phases = [ph]
        out["metrics"], out["info"] = e2e_metrics(wl, ph)
    else:
        is_cli = isinstance(wl, workloads.CliReadme)
        share = args.seconds / (3 if is_cli else 2)
        phases = []
        if is_cli:
            # child processes for cli.process_ms; then in process, untraced and traced
            phases.append(run_phase(wl, rng, share, min_passes=1))
            wl.in_process = True
        plain, traced = Phase(), Phase()
        tracer = tracing.Tracer()
        start = time.perf_counter()
        while True:
            # untraced and traced passes in turn, so that drift in the
            # machine's speed affects both sides of the overhead ratio alike
            pair_start = time.perf_counter()
            run_phase(wl, rng, 0, 1, ph=plain)
            tracer.install()
            try:
                run_phase(wl, rng, 0, 1, tracer=tracer, ph=traced)
            finally:
                tracer.uninstall()
            now = time.perf_counter()
            if (now - start) + (now - pair_start) > 2 * share:
                break
        phases += [plain, traced]
        metrics = tracer.metrics(traced.attempted)
        metrics["cli.import_ms"] = tracing.cli_import_ms(workloads.SRC)
        metrics["cli.process_ms"] = (
            1000.0 * statistics.median(phases[0].latencies) if is_cli else 0.0
        )
        metrics["trace.overhead_ratio"] = traced.ops_per_s() / plain.ops_per_s()
        out["metrics"] = metrics
        spans = workloads.ROOT / ".perfbench" / "spans" / f"{args.workload}-seed{args.seed}.tsv"
        tracer.write_spans(spans)
        layer_share, span_share = tracer.self_shares()
        out["info"] = {
            "layer_self_share": layer_share,
            "span_self_share": span_share,
            "spans": len(tracer.span_name),
            "spans_file": str(spans.relative_to(workloads.ROOT)),
            "passes": [p.passes for p in phases],
        }

    out["attempted"] = sum(p.attempted for p in phases)
    out["raised"] = sum(p.raised for p in phases)
    out["mismatched"] = sum(p.mismatched for p in phases)
    out["failed"] = sum(p.failed for p in phases)
    out["self_check"] = all(self_check(wl, p) for p in phases)
    out["first_mismatch"] = next(
        (p.first_mismatch for p in phases if p.first_mismatch), None
    )
    print("result " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
