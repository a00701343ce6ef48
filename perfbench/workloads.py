"""The benchmark's four workloads, each driven through public APIs.

===============  =========================================================
``cold_sweep``   the Fig. 14 paper grid (10 workloads x 7 accelerators =
                 70 ``SimJob``) on the serial engine, with an empty store
                 and cleared in-process caches for every op
``warm_replay``  the quick-suite grid (35 jobs) replayed by a fresh
                 ``SweepEngine`` from a store filled during setup
``serve_warm``   a ``repro serve`` subprocess warmed during setup; one
                 closed-loop client, paced to at most 25 requests/s,
                 sends the four quick-suite tables in seeded random order
``train_table6`` Table VI (``accuracy_comparison``) trained cold on
                 cora-gcn under the fp32, dq-int4 and degree-aware flows
===============  =========================================================

Every op is timed around the public call only; its output checks run
afterwards, untimed, and an op whose check fails counts as failed and
contributes no timing.  Each workload keeps its store under its own
directory (``REPRO_CACHE_DIR`` included), and the seed reaches the
program only through the jobs (or request order) generated from it.
"""

from __future__ import annotations

import contextlib
import gc
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Dict, List, Optional, Tuple

from . import env as benv
from . import fidelity
from .stats import nearest_rank
from .tracing import Tracer, read_spans

LAUNCHER = Path(__file__).with_name("serve_launcher.py")

@dataclass
class OpResult:
    seconds: float
    jobs: int
    ok: bool
    error: str = ""


class Workload:
    """One benchmark workload: repeated setup, timed ops, checks."""

    name: ClassVar[str] = ""
    loads: ClassVar[Tuple[str, ...]] = ()
    bypasses: ClassVar[Tuple[str, ...]] = ()
    # Ops a run needs at least, so cross-op identity checks have a pair.
    min_ops: ClassVar[int] = 1
    # Short ops get a second of untimed warm-up ops after setup.
    warm_up: ClassVar[bool] = True
    # Minimum time from one op's start to the next (0: back to back).
    period_s: ClassVar[float] = 0.0
    # Modules a fresh interpreter imports as part of setup.
    imports: ClassVar[Tuple[str, ...]] = ()

    def __init__(self, seed: int, workdir: Path, child_env: Dict[str, str],
                 size: str = "full") -> None:
        self.seed = seed
        self.workdir = workdir
        self.child_env = child_env
        self.size = size
        self.tracer: Optional[Tracer] = None
        self.counters: Counter = Counter()
        self.interval: Tuple[float, float] = (0.0, 0.0)
        self.fidelity_value: Optional[float] = None
        self.fig14: Dict[str, float] = {}
        self.identical_pairs = 0
        self.ops_started = 0

    # -- lifecycle ---------------------------------------------------------
    def setup(self) -> float:
        """One setup repetition: a fresh interpreter's imports plus this
        workload's preparation.  Returns its wall time in seconds."""
        seconds = benv.time_fresh_import(self.imports, self.child_env)
        start = time.perf_counter()
        self.prepare()
        return seconds + time.perf_counter() - start

    def prepare(self) -> None:
        """Make the workload ready for its first op (repeatable)."""

    def run_op(self) -> OpResult:
        try:
            return self.op()
        except Exception as exc:  # a crashed op is a failed op
            return OpResult(0.0, 0, False, f"{type(exc).__name__}: {exc}")

    def op(self) -> OpResult:
        raise NotImplementedError

    def begin_measure(self) -> None:
        """Called right before the timed loop (and after tracing starts)."""
        self.counters.clear()

    def start_trace(self, spans_path: Path) -> None:
        """Install the layer wrappers for the rest of the run."""
        self.tracer = Tracer()
        self.tracer.install()

    def finish_trace(self, spans_path: Path) -> List[list]:
        tracer, self.tracer = self.tracer, None
        tracer.uninstall()
        tracer.write(spans_path)
        return tracer.spans

    def final_problems(self) -> List[str]:
        """Checks over the whole run (beyond the per-op ones)."""
        return []

    def peak_rss_mb(self) -> float:
        return benv.peak_rss_mb()

    def server_metrics(self, ok_latencies_s: List[float]) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        """Stop everything this workload started."""

    # -- helpers -----------------------------------------------------------
    @contextlib.contextmanager
    def timed(self):
        """The timed region of one op; spans recorded inside carry the op."""
        self.ops_started += 1
        if self.tracer is not None:
            self.tracer.op = self.ops_started
        start = time.perf_counter()
        try:
            yield
        finally:
            self.interval = (start, time.perf_counter())
            if self.tracer is not None:
                self.tracer.op = None

    @property
    def loop(self) -> str:
        pace = f", at most {1 / self.period_s:g} ops/s" if self.period_s else ""
        return "closed loop, 1 client" + pace

    @property
    def elapsed(self) -> float:
        return self.interval[1] - self.interval[0]

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.workdir))

    def fresh_store(self) -> Path:
        """An empty cache directory that this process's engine and every
        process-wide store (large-graph partitions, journals) now use."""
        store = self.fresh_dir("store-")
        os.environ["REPRO_CACHE_DIR"] = str(store)
        return store

    def count_engine(self, engine) -> None:
        """Add one op's engine counters (a fresh engine per op)."""
        store = engine.artifacts
        self.counters["artifacts.puts"] += store.puts
        self.counters["artifacts.gets"] += store.gets
        self.counters["artifacts.hits"] += store.hits
        if store.puts:
            self.counters["artifacts.bytes_written"] += (
                store.stats()["size_bytes"])
        self.counters["perf.cache.disk.hits"] += engine.disk.hits
        self.counters["perf.cache.disk.stores"] += engine.disk.stores
        self.counters["eval.engine.executed_jobs"] += engine.executed_jobs


def _report_digest(results, jobs) -> Dict[tuple, tuple]:
    return {(job.dataset, job.model, job.accelerator):
            (rep.total_cycles, rep.traffic.transferred_bytes,
             rep.energy.total_pj)
            for job, rep in ((job, results[job]) for job in jobs)}


class _SimGrid(Workload):
    """Shared by the two in-process simulation workloads."""

    imports = ("repro.eval.engine", "repro.eval.experiments")
    suite = ""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        from repro.eval.engine import SimJob
        from repro.registry import get_suite

        suite = "smoke" if self.size == "tiny" else self.suite
        self.workloads = get_suite(suite).workloads
        self.jobs = [SimJob(name, dataset, model, seed=self.seed)
                     for dataset, model in self.workloads
                     for name in fidelity.FIG14_ACCELERATORS]
        self.reference: Optional[Dict[tuple, tuple]] = None

    def _score(self, digest: Dict[tuple, tuple]) -> List[str]:
        """Fidelity from one op's reports, plus the Fig. 14 shape check."""
        cycles = {(f"{d}-{m}", a): value[0]
                  for (d, m, a), value in digest.items()}
        names = [f"{d}-{m}" for d, m in self.workloads]
        self.fig14 = fidelity.speedup_geomeans(cycles, names)
        self.fidelity_value = fidelity.fig14_log_err(self.fig14)
        self.identical_pairs = fidelity.identical_baseline_pairs(
            {w: {a: cycles[(w, a)] for a in fidelity.DISTINCT_BASELINES}
             for w in names})
        gm = self.fig14
        problems = [f"geomean {a}={v:.3f} <= 1" for a, v in gm.items()
                    if not v > 1.0]
        if not gm["hygcn"] > gm["gcnax"] >= gm["sgcn"]:
            problems.append("Fig. 14 order hygcn > gcnax >= sgcn broken")
        return problems


class ColdSweep(_SimGrid):
    name = "cold_sweep"
    loads = ("graphs.datasets", "graphs.partition", "sim.workload",
             "sim.simulate", "artifacts (write)", "perf.cache (write)",
             "eval.engine")
    bypasses = ("serve", "eval.journal", "tensor", "nn", "quant")
    suite = "paper"
    min_ops = 2
    warm_up = False

    def op(self) -> OpResult:
        from repro.eval.engine import SweepEngine
        from repro.eval.experiments import clear_caches

        store = self.fresh_store()
        clear_caches()
        gc.collect()
        with self.timed():
            engine = SweepEngine(cache_dir=store)
            results = engine.run(self.jobs)
        digest = _report_digest(results, self.jobs)
        problems = self._score(digest)
        if engine.executed_jobs != len(self.jobs):
            problems.append(f"executed {engine.executed_jobs} jobs, "
                            f"expected {len(self.jobs)}")
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append("reports differ from the first op's")
        self.count_engine(engine)
        del engine, results
        shutil.rmtree(store, ignore_errors=True)
        gc.collect()
        return OpResult(self.elapsed, len(self.jobs), not problems,
                        "; ".join(problems))


class WarmReplay(_SimGrid):
    name = "warm_replay"
    loads = ("artifacts (read)", "perf.cache (read)",
             "eval.engine (fingerprint)")
    bypasses = ("graphs.partition", "graphs.datasets", "sim", "serve",
                "eval.journal", "tensor", "nn", "quant")
    suite = "quick"

    def prepare(self) -> None:
        from repro.eval.engine import SweepEngine
        from repro.eval.experiments import clear_caches

        self.store = self.fresh_store()
        clear_caches()
        engine = SweepEngine(cache_dir=self.store)
        self.reference = _report_digest(engine.run(self.jobs), self.jobs)
        self.shape_problems = self._score(self.reference)

    def op(self) -> OpResult:
        from repro.eval.engine import SweepEngine
        from repro.eval.experiments import clear_caches
        from repro.perf.cache import cache_stats

        clear_caches()
        with self.timed():
            engine = SweepEngine(cache_dir=self.store)
            results = engine.run(self.jobs)
        caches = cache_stats()
        problems = list(self.shape_problems)
        if engine.executed_jobs:
            problems.append(f"executed {engine.executed_jobs} jobs")
        for layer in ("partition", "dataset"):
            if caches[layer]["misses"]:
                problems.append(f"{caches[layer]['misses']} {layer} calls")
        digest = _report_digest(results, self.jobs)
        if digest != self.reference:
            problems.append("reports differ from the setup run's")
        self.count_engine(engine)
        return OpResult(self.elapsed, len(self.jobs), not problems,
                        "; ".join(problems))


class TrainTable6(Workload):
    name = "train_table6"
    loads = ("graphs.datasets", "tensor", "nn", "quant", "eval.engine",
             "artifacts (write)")
    bypasses = ("graphs.partition", "sim", "serve", "eval.journal")
    imports = ("repro.eval.engine", "repro.eval.accuracy", "repro.report")
    min_ops = 2
    warm_up = False
    # At 20 epochs degree-aware training collapses to accuracy 0.0; at
    # 40 it trains (0.81 at seed 0).
    EPOCHS = 40

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.reference: Optional[Dict[str, tuple]] = None

    def op(self) -> OpResult:
        from repro.eval.engine import SweepEngine
        from repro.eval.experiments import clear_caches
        from repro.eval import accuracy  # noqa: F401  registers the spec
        from repro.nn import TrainConfig
        from repro.report import run_experiment

        store = self.fresh_store()
        clear_caches()
        gc.collect()
        config = TrainConfig(epochs=self.EPOCHS, patience=10_000)
        with self.timed():
            engine = SweepEngine(cache_dir=store)
            artifact = run_experiment("accuracy_comparison", engine=engine,
                                      seed=self.seed, config=config)
        table = artifact.value["cora-gcn"]
        ours, dq = table["degree-aware"], table["dq-int4"]
        problems = []
        if not ours["accuracy"] >= dq["accuracy"]:
            problems.append(f"degree-aware accuracy {ours['accuracy']:.4f} "
                            f"< dq-int4 {dq['accuracy']:.4f}")
        if not ours["cr"] > 8.0:
            problems.append(f"degree-aware CR {ours['cr']:.2f} <= 8")
        if engine.executed_train_jobs != 3:
            problems.append(f"trained {engine.executed_train_jobs} models, "
                            f"expected 3")
        digest = {flow: (row["accuracy"], row["avg_bits"], row["cr"])
                  for flow, row in table.items()}
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append("accuracies differ from the first op's")
        self.fidelity_value = fidelity.mean_log_error(
            {"cora-gcn": ours["avg_bits"]}, fidelity.TABLE6_AVERAGE_BITS)
        self.count_engine(engine)
        del engine, artifact
        shutil.rmtree(store, ignore_errors=True)
        gc.collect()
        return OpResult(self.elapsed, 3, not problems, "; ".join(problems))


class ServeWarm(Workload):
    name = "serve_warm"
    loads = ("serve", "eval.journal", "report", "eval.engine (memory)")
    bypasses = ("artifacts", "perf.cache", "graphs", "sim", "tensor", "nn",
                "quant")
    EXPERIMENTS = ("speedup_table", "dram_table", "energy_table",
                   "stall_table")
    # Each request journals with three fsyncs.  Back to back (~350/s)
    # they slow the shared disk over consecutive runs, and every later
    # request with it, so the client is paced.
    period_s = 0.04

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.suite = "smoke" if self.size == "tiny" else "quick"
        self.proc: Optional[subprocess.Popen] = None
        self.client = None
        self.rng = random.Random(self.seed)
        self.order: List[str] = []
        self.reference: Dict[str, list] = {}
        self.stats_before: Dict = {}
        self.cpu_before = 0.0
        self.phase_ops = 0

    # -- daemon lifecycle --------------------------------------------------
    def setup(self) -> float:
        # The daemon is a fresh interpreter: its start-up is the import.
        start = time.perf_counter()
        self.prepare()
        return time.perf_counter() - start

    def prepare(self, spans_path: Optional[Path] = None) -> None:
        from repro.client import ServeClient

        self._stop_daemon()
        cache = self.fresh_dir("serve-")
        port_file = cache / "port"
        serve_args = ["serve", "--port", "0", "--port-file", str(port_file),
                      "--quiet"]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro"] + serve_args
        else:
            cmd = [sys.executable, str(LAUNCHER), str(spans_path)] + serve_args
        child_env = dict(self.child_env, REPRO_CACHE_DIR=str(cache))
        with open(cache / "daemon.log", "wb") as log:
            self.proc = subprocess.Popen(cmd, env=child_env,
                                         cwd=str(benv.ROOT),
                                         stdout=subprocess.DEVNULL,
                                         stderr=log)
        port = self._wait_port(port_file)
        self.client = ServeClient(f"http://127.0.0.1:{port}", retries=0)
        if not self.client.wait_ready(timeout=60.0):
            raise RuntimeError("serve daemon never became ready")
        for name in self.EXPERIMENTS:
            response = self.client.submit(name, suite=self.suite)
            if response["failed"]:
                raise RuntimeError(f"warm-up {name} failed")
            self.reference[name] = response["artifact"]["rows"]
            if name == "speedup_table":
                self._score(response["artifact"]["rows"])

    def _wait_port(self, port_file: Path) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve daemon exited with "
                                   f"{self.proc.returncode}")
            try:
                return int(port_file.read_text())
            except (OSError, ValueError):
                time.sleep(0.02)
        raise RuntimeError("serve daemon wrote no port file")

    def begin_measure(self) -> None:
        self.stats_before = self.client.stats()
        self.cpu_before = benv.cpu_seconds(self.proc.pid)
        self.phase_ops = 0
        self.counters.clear()

    def _stop_daemon(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def close(self) -> None:
        self._stop_daemon()

    # -- ops ---------------------------------------------------------------
    def _score(self, rows: list) -> None:
        by_row = {row["row"]: row for row in rows}
        self.fig14 = {name: by_row["geomean"][name]
                      for name in fidelity.FIG14_ACCELERATORS
                      if name != "mega"}
        self.fidelity_value = fidelity.fig14_log_err(self.fig14)
        self.identical_pairs = fidelity.identical_baseline_pairs(
            {key: row for key, row in by_row.items() if key != "geomean"})

    def op(self) -> OpResult:
        if not self.order:
            self.order = list(self.EXPERIMENTS)
            self.rng.shuffle(self.order)
        name = self.order.pop()
        self.phase_ops += 1
        with self.timed():
            response = self.client.submit(name, suite=self.suite)
        artifact = response["artifact"]
        jobs = artifact["metadata"]["jobs"]
        problems = []
        if response["failed"]:
            problems.append(f"{response['failed']} failed jobs")
        if jobs["executed"]:
            problems.append(f"executed {jobs['executed']} jobs")
        if artifact["rows"] != self.reference[name]:
            problems.append(f"{name} rows differ from the setup response")
        return OpResult(self.elapsed, jobs["unique"], not problems,
                        "; ".join(problems))

    def _engine_counts(self, stats: Dict) -> Counter:
        engine = stats["engine"]
        store, disk = engine.get("artifacts", {}), engine.get("disk", {})
        return Counter({
            "artifacts.puts": store.get("puts", 0),
            "artifacts.gets": store.get("gets", 0),
            "artifacts.hits": store.get("hits", 0),
            "artifacts.bytes_written": store.get("size_bytes", 0),
            "perf.cache.disk.hits": disk.get("hits", 0),
            "perf.cache.disk.stores": disk.get("stores", 0),
            "eval.engine.executed_jobs": engine["executed"]["jobs"],
            "serve.rejected": stats["counters"]["rejected"],
            "serve.deduped": stats["counters"]["deduped"],
        })

    def _end_phase(self) -> Dict:
        stats = self.client.stats()
        after = self._engine_counts(stats)
        after.subtract(self._engine_counts(self.stats_before))
        self.counters = after
        return stats

    def final_problems(self) -> List[str]:
        stats = self._end_phase()
        grown = stats["engine"]["executed"]["jobs"] - (
            self.stats_before["engine"]["executed"]["jobs"])
        return [f"engine executed {grown} jobs while serving"] if grown else []

    def peak_rss_mb(self) -> float:
        return benv.peak_rss_mb(self.proc.pid)

    def server_metrics(self, ok_latencies_s: List[float]) -> Dict[str, float]:
        stats = self._end_phase()
        cpu = benv.cpu_seconds(self.proc.pid) - self.cpu_before
        server = stats["latency_ms"]
        client_p50 = nearest_rank(sorted(ok_latencies_s), 0.5) * 1e3
        return {"serve.server_p50_ms": server["p50_ms"],
                "serve.server_p99_ms": server["p99_ms"],
                "serve.transport_p50_ms": client_p50 - server["p50_ms"],
                "serve.cpu_ms_per_request":
                    cpu * 1e3 / max(self.phase_ops, 1)}

    # -- tracing: the daemon is restarted under the launcher ---------------
    def start_trace(self, spans_path: Path) -> None:
        self.prepare(spans_path)

    def finish_trace(self, spans_path: Path) -> List[list]:
        self._stop_daemon()
        return read_spans(spans_path)


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (ColdSweep, WarmReplay, ServeWarm, TrainTable6)}
