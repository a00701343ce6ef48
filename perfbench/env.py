"""Environment hygiene, provenance and process probes.

Every run clears all ``REPRO_*`` variables, then points
``REPRO_CACHE_DIR`` at a private directory inside the checkout, so the
engine runs with its defaults (serial, batching on, fsync on, no
faults) and never touches ``~/.cache/repro``.  Provenance records what
the numbers depend on beyond the code: interpreter and library
versions, core count, load, and the time of a fixed pure-Python loop
taken at the start and the end of the run, which shows how fast this
machine was running at the time.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


class MissingProgram(RuntimeError):
    """The checkout does not hold the program's sources."""


def require_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` and check that
    ``repro`` is imported from there and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise MissingProgram(f"repro imported from {repro.__file__}, "
                             f"not from {SRC}")


def clean_environment(cache_dir: Path) -> Dict[str, str]:
    """Drop every ``REPRO_*`` variable and set ``REPRO_CACHE_DIR``; the
    returned mapping is the environment for child processes."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def calibration_ms(iterations: int = 2_000_000) -> float:
    """Wall time of a fixed pure-Python loop, in milliseconds."""
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i & 7
    elapsed = time.perf_counter() - start
    if acc < 0:  # keeps the loop's result alive
        raise AssertionError
    return elapsed * 1e3


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance() -> Dict[str, object]:
    import numpy
    import scipy

    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {"git_commit": _git_commit(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "loadavg": load}


def _status_kb(pid, field: str) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return float(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/{pid}/status")


def peak_rss_mb(pid="self") -> float:
    """VmHWM (peak resident set size) of a process, in MiB."""
    return _status_kb(pid, "VmHWM") / 1024.0


def cpu_seconds(pid) -> float:
    """User + system CPU time a process has used so far."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def time_fresh_import(modules, env: Dict[str, str]) -> float:
    """Wall time for a fresh interpreter to import ``modules``."""
    code = "import " + ", ".join(modules)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=str(ROOT),
                   check=True, timeout=120)
    return time.perf_counter() - start
