"""Benchmark entry point.

    python3 perfbench/run.py --workload cold_sweep --seed 0 --seconds 15 --trace 0

Run from the repository root.  The workloads are described in
:mod:`perfbench.workloads` and listed, with the metrics, in
``BENCHMARK.json``.

``--trace 0`` sets the workload up three times (``setup_s`` is the
median), then runs timed ops until ``--seconds`` have passed and the
workload's minimum op count is met, and reports the end-to-end metrics;
the op latency percentiles are printed beside them.
``--trace 1`` sets up once, runs half the time untraced and half with
the layer wrappers of :mod:`perfbench.tracing` installed, and reports
the per-layer metrics (per op of the traced half) plus the tracing
overhead.  Spans go to ``.perfbench/traces/<workload>.jsonl``.

Output: a provenance line, one line per metric with its unit and sample
count, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every op passed its output checks, 1 when any failed, and 2
when the program or the benchmark could not be set up (no result line).
"""

from __future__ import annotations

import argparse
import bisect
import json
import shutil
import signal
import sys
from statistics import median
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

if __name__ == "__main__":
    # Import the benchmark as a package from the repository root, not
    # its files as top-level modules from this directory.
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import env as benv  # noqa: E402
from perfbench.fidelity import FIG14_PAPER  # noqa: E402
from perfbench.stats import latency_summary  # noqa: E402
from perfbench.tracing import (START, layer_totals,  # noqa: E402
                               unattributed_share)

SETUP_REPS = 3
# Untimed ops after setup for workloads whose ops are short, so the
# first timed op does not pay for leftovers of setup.
WARMUP_S = 1.0
# Stop starting ops past this point even below the minimum op count,
# so a very slow machine still finishes a run in bounded time.
MAX_MEASURE_S = 120.0


def measure(workload, seconds: float, min_ops: int):
    """Closed-loop ops until ``seconds`` have passed and ``min_ops`` ran."""
    ops, intervals = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(ops) >= min_ops and elapsed >= seconds:
            break
        if ops and elapsed >= MAX_MEASURE_S:
            break
        result = workload.run_op()
        ops.append(result)
        if result.ok:
            intervals.append(workload.interval)
        if workload.period_s:
            time.sleep(max(workload.interval[0] + workload.period_s
                           - time.perf_counter(), 0.0))
    return ops, intervals


def ok_seconds(ops) -> List[float]:
    return [op.seconds for op in ops if op.ok]


def end_to_end(workload, ops, setups: Sequence[float]) -> Dict[str, float]:
    jobs = sum(op.jobs for op in ops if op.ok)
    return {"jobs_per_s": jobs / sum(ok_seconds(ops)),
            "setup_s": median(setups),
            "peak_rss_mb": workload.peak_rss_mb(),
            "paper_log_err": workload.fidelity_value}


def spans_in(spans: List[list], intervals: Sequence[Tuple[float, float]]
             ) -> List[list]:
    """Spans that started inside one of the (sorted, disjoint) op
    intervals; matching by time also places the daemon's spans."""
    starts = [lo for lo, _ in intervals]
    keep = []
    for rec in spans:
        index = bisect.bisect_right(starts, rec[START]) - 1
        if index >= 0 and rec[START] <= intervals[index][1]:
            keep.append(rec)
    return keep


def per_layer(workload, ops, base_ops, spans, intervals,
              server: Dict[str, float]) -> Dict[str, float]:
    n = max(len(ok_seconds(ops)), 1)
    totals = layer_totals(spans_in(spans, sorted(intervals)))
    counters = workload.counters

    def self_s(layer: str) -> float:
        return totals.get(layer, {}).get("self_s", 0.0) / n

    def calls(layer: str) -> float:
        return totals.get(layer, {}).get("calls", 0) / n

    def count(name: str) -> float:
        return counters.get(name, 0) / n

    gets = counters.get("artifacts.gets", 0)
    out = {
        "graphs.partition.calls": calls("graphs.partition"),
        "graphs.partition.self_s": self_s("graphs.partition"),
        "graphs.datasets.calls": calls("graphs.datasets"),
        "graphs.datasets.self_s": self_s("graphs.datasets"),
        "sim.workload.self_s": self_s("sim.workload"),
        "sim.simulate.self_s": self_s("sim.simulate"),
        "artifacts.puts": count("artifacts.puts"),
        "artifacts.put.self_s": self_s("artifacts.put"),
        "artifacts.bytes_written": count("artifacts.bytes_written"),
        "artifacts.gets": count("artifacts.gets"),
        "artifacts.get.self_s": self_s("artifacts.get"),
        "artifacts.hit_ratio": (counters.get("artifacts.hits", 0) / gets
                                if gets else 0.0),
        "perf.cache.disk.hits": count("perf.cache.disk.hits"),
        "perf.cache.disk.stores": count("perf.cache.disk.stores"),
        "perf.cache.disk.get.self_s": self_s("perf.cache.disk.get"),
        "eval.engine.executed_jobs": count("eval.engine.executed_jobs"),
        "eval.engine.fingerprint.self_s": self_s("eval.engine.fingerprint"),
        "eval.engine.run.self_s": self_s("eval.engine.run"),
        "eval.journal.appends": calls("eval.journal.append"),
        "eval.journal.append.self_s": self_s("eval.journal.append"),
        "report.run_experiment.self_s": self_s("report.run_experiment"),
        "report.render.self_s": self_s("report.render"),
        "serve.server_p50_ms": server.get("serve.server_p50_ms", 0.0),
        "serve.server_p99_ms": server.get("serve.server_p99_ms", 0.0),
        "serve.transport_p50_ms": server.get("serve.transport_p50_ms", 0.0),
        "serve.cpu_ms_per_request": server.get("serve.cpu_ms_per_request",
                                               0.0),
        "serve.rejected": count("serve.rejected"),
        "serve.deduped": count("serve.deduped"),
        "nn.train.self_s": self_s("nn.train"),
        "tensor.backward.self_s": self_s("tensor.backward"),
        "tensor.matmul.self_s": self_s("tensor.matmul"),
        "tensor.spmm.self_s": self_s("tensor.spmm"),
        "tensor.functional.dropout.self_s":
            self_s("tensor.functional.dropout"),
        "tensor.optim.step.self_s": self_s("tensor.optim.step"),
        "quant.fake_quant.forward.self_s": self_s("quant.fake_quant.forward"),
        "quant.fake_quant.backward.self_s":
            self_s("quant.fake_quant.backward"),
        "quant.degree_aware.self_s": self_s("quant.degree_aware"),
    }
    for name in FIG14_PAPER:
        out[f"sim.fig14.{name}"] = workload.fig14.get(name, 0.0)
    out["sim.identical_baseline_pairs"] = workload.identical_pairs
    out["trace.unattributed_share"] = unattributed_share(intervals, spans)
    out["trace.overhead"] = (median(ok_seconds(ops))
                             / median(ok_seconds(base_ops)))
    return out


def run_untraced(workload, seconds: float):
    setups = [workload.setup() for _ in range(SETUP_REPS)]
    warm = warm_up(workload)
    workload.begin_measure()
    ops, _ = measure(workload, seconds, workload.min_ops)
    problems = workload.final_problems()
    metrics = end_to_end(workload, ops, setups) if ok_seconds(ops) else {}
    counts = {"setup_s": len(setups), "peak_rss_mb": 1, "paper_log_err": 1}
    return warm, ops, problems, metrics, counts


def warm_up(workload) -> list:
    """Untimed ops whose checks still count (see :data:`WARMUP_S`)."""
    if not workload.warm_up:
        return []
    return measure(workload, WARMUP_S, 1)[0]


def run_traced(workload, seconds: float, spans_path: Path):
    # Back to back, so the serve daemon's window of its last 1024 request
    # latencies (read from /stats) holds traced requests only, not the
    # cold ones that warmed it.
    workload.period_s = 0.0
    workload.setup()
    warm = warm_up(workload)
    workload.begin_measure()
    base_ops, _ = measure(workload, seconds / 2, 1)
    workload.start_trace(spans_path)
    warm += warm_up(workload)
    workload.begin_measure()
    ops, intervals = measure(workload, seconds / 2,
                             max(workload.min_ops - len(base_ops), 1))
    problems = workload.final_problems()
    server = workload.server_metrics(ok_seconds(ops)) if ok_seconds(ops) \
        else {}
    spans = workload.finish_trace(spans_path)
    metrics = {}
    if ok_seconds(ops) and ok_seconds(base_ops):
        metrics = per_layer(workload, ops, base_ops, spans, intervals, server)
    return warm + base_ops, ops, problems, metrics, {}


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((benv.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def print_summary(workload, ops, untimed, metrics, units, counts,
                  problems) -> None:
    n_ok = len(ok_seconds(ops))
    attempted = untimed + ops
    failed = sum(1 for op in attempted if not op.ok)
    print(f"# {workload.name}: {workload.loop}; loads "
          f"{', '.join(workload.loads)}; bypasses "
          f"{', '.join(workload.bypasses)}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6g} {units[name]:6s} "
              f"n={counts.get(name, n_ok)}")
    if "jobs_per_s" in metrics:
        # Printed, not bounded: on this kind of shared VM the op latency
        # percentiles of the millisecond workloads move between runs by
        # more than any bound BENCHMARK.json allows (see CHANGES.md).
        latency = latency_summary(ok_seconds(ops))
        for key in ("p50", "p90", "p99"):
            print(f"{'latency_' + key + '_ms':34s} "
                  f"{latency[key + '_ms']:14.6g} {'ms':6s} n={n_ok}"
                  f"{_tail_note(key, latency)}")
    print(f"{'error_rate':34s} {failed / max(len(attempted), 1):14.6g} "
          f"{'ratio':6s} n={len(attempted)}")
    if workload.name == "train_table6" and "jobs_per_s" in metrics:
        print(f"{'epochs_per_s':34s} "
              f"{metrics['jobs_per_s'] * workload.EPOCHS:14.6g} "
              f"{'1/s':6s} n={n_ok}")
    if workload.name != "train_table6" and "paper_log_err" in metrics:
        print(f"{'fig14_log_err':34s} {metrics['paper_log_err']:14.6g} "
              f"{'ln':6s} n=1")
    for op in [op for op in attempted if not op.ok][:5]:
        print(f"# failed op: {op.error}")
    for problem in problems:
        print(f"# failed check: {problem}")


def _tail_note(key: str, latency: Dict) -> str:
    if key == "p50" or latency[f"{key}_resolved"]:
        return ""
    return (f"  (tail unresolved: {latency[f'{key}_beyond']} samples "
            f"beyond {key}, needs 10)")


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Smaller grids for the benchmark's own smoke tests.
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        benv.require_program()
        units = declared_metrics(bool(args.trace))
    except (benv.MissingProgram, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like Ctrl-C, so the daemon and temp dirs are cleaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    (benv.WORK / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=benv.WORK / "tmp"))
    calibration = [benv.calibration_ms()]
    workload = None
    try:
        child_env = benv.clean_environment(workdir / "cache")
        workload = WORKLOADS[args.workload](args.seed, workdir, child_env,
                                            size=args.size)
        if args.trace:
            (benv.WORK / "traces").mkdir(parents=True, exist_ok=True)
            # One file per workload: the last traced run's spans.
            spans_path = benv.WORK / "traces" / f"{args.workload}.jsonl"
            untimed, ops, problems, metrics, counts = run_traced(
                workload, args.seconds, spans_path)
        else:
            untimed, ops, problems, metrics, counts = run_untraced(
                workload, args.seconds)
    except Exception as exc:
        print(f"perfbench: {args.workload} failed: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    calibration.append(benv.calibration_ms())

    attempted = untimed + ops
    failed = sum(1 for op in attempted if not op.ok)
    correct = not failed and not problems and set(metrics) == set(units)
    if metrics and set(metrics) != set(units):
        problems.append(f"metrics {sorted(set(metrics) ^ set(units))} do "
                        f"not match BENCHMARK.json")
    record = dict(benv.provenance(), workload=args.workload, seed=args.seed,
                  trace=args.trace, calibration_ms=calibration)
    print("# env " + json.dumps(record))
    print_summary(workload, ops, untimed, metrics, units, counts, problems)
    result = {"correct": correct, "attempted": len(attempted),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()
                          if name in units}}
    with open(benv.WORK / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(dict(record, result=result)) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
