"""Shared plumbing of the benchmark: paths, subprocesses, statistics, records.

The benchmark runs from the root of a source checkout.  It imports the
program from ``<root>/src`` and starts every CLI subprocess with that
directory on ``PYTHONPATH``, the artifact cache off and tracing off, so a
run measures the tree it sits in and nothing installed elsewhere.
"""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
HERE = Path(__file__).resolve().parent

#: CLI flags that pin every experiment command to one worker process with
#: the artifact cache off (the load and process rules of every workload).
PINNED = ("--jobs", "1", "--no-cache")
#: The small fixture of the self-test: 12 chips and a light detector.
SMALL_FLAGS = ("--chips", "12", "--kde-samples", "2000")


class SetupError(RuntimeError):
    """The benchmark cannot run here (no source tree, a set-up step failed)."""


def require_source_tree() -> None:
    """Fail unless the checkout holds the program's sources."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise SetupError(f"no program sources under {SRC}")


def use_source_tree() -> None:
    """Put ``<root>/src`` first on ``sys.path`` and check ``repro`` resolves there.

    Finds the package without importing it: the workloads time their imports.
    """
    require_source_tree()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("repro")
    if spec is None or Path(spec.origin).resolve().parent != SRC / "repro":
        raise SetupError(f"repro resolves to {spec and spec.origin}, not {SRC}")


def child_env(unbuffered: bool = False) -> Dict[str, str]:
    """Environment of a CLI subprocess: this tree's sources, cache off."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_CACHE")}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@dataclass
class Context:
    """Arguments of one benchmark run plus its scratch directory."""

    workload: str
    seed: int
    seconds: int
    work: Path
    #: The run's span recorder (see :mod:`spans`); ``None`` when untraced.
    tracer: object = None
    _spans: Iterator[int] = field(default_factory=itertools.count)

    @property
    def trace(self) -> bool:
        return self.tracer is not None

    def cli(self, *args: str) -> Tuple[List[str], Optional[Path]]:
        """Argv of a ``repro.cli`` subprocess and its spans file when traced."""
        if not self.trace:
            return [sys.executable, "-m", "repro.cli", *args], None
        spans_file = self.work / f"spans-{next(self._spans)}.json"
        return [sys.executable, str(HERE / "shim.py"), str(spans_file), *args], spans_file


@dataclass
class Command:
    """One finished CLI subprocess."""

    start: float
    end: float
    returncode: int
    stdout: str
    stderr: str

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def run_cli(ctx: Context, *args: str, timeout: float = 120.0) -> Command:
    """Run one cold ``repro.cli`` command and time it from spawn to exit."""
    argv, spans_file = ctx.cli(*args)
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ctx.work, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    end = time.perf_counter()
    if spans_file is not None and spans_file.exists():
        ctx.tracer.adopt(spans_file)
    return Command(start, end, proc.returncode, proc.stdout, proc.stderr)


def checked(command: Command, what: str) -> Command:
    """Raise :class:`SetupError` when a set-up command failed."""
    if command.returncode != 0:
        raise SetupError(f"{what} exited {command.returncode}: {command.stderr[-2000:]}")
    return command


def fresh_imports(ctx: Context, modules: str, repeats: int = 3) -> List[tuple]:
    """``import modules`` in fresh interpreters: (seconds, modules loaded, scipy 0/1) each."""
    code = ("import sys, time; t = time.perf_counter(); import " + modules + "; "
            "print(time.perf_counter() - t, len(sys.modules), "
            "int(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)))")
    samples = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], cwd=ctx.work,
                             env=child_env(), capture_output=True, text=True,
                             timeout=60, check=True).stdout.split()
        samples.append((float(out[0]), int(out[1]), int(out[2])))
    return samples


def import_probe(ctx: Context, repeats: int = 3) -> Dict[str, float]:
    """Fresh-interpreter ``import repro.cli``: median time, module count, scipy."""
    samples = fresh_imports(ctx, "repro.cli", repeats)
    return {
        "cli.import_s": statistics.median(s[0] for s in samples),
        "cli.modules": samples[-1][1],
        "cli.scipy_loaded": samples[-1][2],
    }


def request_batch(fingerprints, devices: int, rng):
    """``devices`` rows drawn (with replacement) from a fixture's DUTTs."""
    return fingerprints[rng.integers(0, fingerprints.shape[0], size=devices)]


def engine_probe(bundle_path, fixture_path, repeats: int = 21) -> Dict[str, float]:
    """Median in-process ``ScoringEngine.score`` time at 64 and 2048 devices."""
    import numpy as np

    from repro.core.io import load_experiment_data
    from repro.serve.bundle import load_bundle
    from repro.serve.engine import ScoringEngine

    engine = ScoringEngine(load_bundle(bundle_path).detector)
    fingerprints = load_experiment_data(fixture_path).dutt_fingerprints
    rng = np.random.default_rng(0)
    probe = {}
    for devices in (64, 2048):
        batch = request_batch(fingerprints, devices, rng)
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            engine.score(batch)
            samples.append(time.perf_counter() - start)
        probe[f"engine.score_ms_{devices}"] = 1e3 * statistics.median(samples)
    return probe


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(values: Sequence[float]) -> Optional[tuple]:
    """The highest of p99.9/p99/p95/p90/p50 with at least ten samples beyond it.

    Returns ``(percentile, value)``, or ``None`` for fewer than 20 samples.
    """
    for pct in (99.9, 99.0, 95.0, 90.0, 50.0):
        if len(values) * (100.0 - pct) / 100.0 >= 10:
            return pct, percentile(values, pct)
    return None


# ----------------------------------------------------------------------
# results and provenance
# ----------------------------------------------------------------------

@dataclass
class Result:
    """What one workload run measured."""

    #: The ``end_to_end`` metrics of BENCHMARK.json, by name.
    e2e: Dict[str, float] = field(default_factory=dict)
    #: The workload's own metrics, by name: ``(value, unit)``.
    named: Dict[str, tuple] = field(default_factory=dict)
    #: Per-layer metrics (traced runs only).
    layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        """Count one failed operation."""
        self.failures.append(message)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _blas() -> Optional[str]:
    try:
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}".strip()
    except (ImportError, KeyError, TypeError):
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_revision() -> Optional[str]:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the program sources (identifies a tree without git)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint() -> dict:
    """Machine and software identity recorded with every result."""
    import numpy
    import scipy

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git": _git_revision(),
        "source_sha256": source_digest(),
    }


def history_path() -> Path:
    return OUT / "history.jsonl"


def last_untraced(workload: str, seed: int, seconds: int) -> Optional[dict]:
    """The newest untraced record of the same workload, seed and length."""
    path = history_path()
    if not path.exists():
        return None
    found = None
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if (record["workload"], record["seed"], record["seconds"], record["trace"]) \
                    == (workload, seed, seconds, False):
                found = record
    return found


def append_history(record: dict) -> Path:
    """Append one record to the run history (one JSON object per line)."""
    OUT.mkdir(exist_ok=True)
    path = history_path()
    with open(path, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path
