"""mixreg benchmark: fixed `mixreg` CLI workloads, timed end to end, plus a
traced run that gives per-layer numbers.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a mixreg checkout; it runs the package from `src/`.
Each CLI run is a child process, one at a time (a closed loop of one
client).  An untraced run, set-up probes and checks included, takes about
`--seconds`.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds the
run's metadata and raw per-process numbers.  bench/README.md lists the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import marshal
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUP_REPS = 3        # fresh set-up processes per run; setup_s is their median
MIN_CLI_RUNS = 2      # at least two, so every run checks byte-identical CSVs
POOL_THREADS = 2      # MIXREG_THREADS of the pool check runs
# Per-layer metrics of the pool runs; 0 on workloads without a pool check.
POOL_LAYER = ("parallel.pool.map_chunks.s", "parallel.pool.chunks", "parallel.pool.workers",
              "parallel.pool.wall_s", "parallel.pool.cpu_s")
CHILD_LIMIT_S = 150   # a child still running after this is killed and fails
REFERENCE_REL = 1e-9  # float columns against the committed reference CSV
THREADS_REL = 1e-10   # MIXREG_THREADS > 1 against the serial CSV

CSV_NAMES = {"coverage": "coverage.csv", "noise-walk": "noisewalk.csv"}
# Monte Carlo stages of n_mc trajectories each, besides the `trials` stage:
# noise-walk runs decoupled resamples and a spectrum, coverage a spectrum.
MC_STAGES = {"coverage": 1, "noise-walk": 2}
FLOAT_COLUMNS = {"bound", "quantile", "coverage", "threshold", "exceedance",
                 "budget", "r", "lambda_odd", "lambda_even"}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str              # mixreg CLI subcommand
    config: Path
    reference: Path | None    # expected CSV at the config's own seed
    pool_check: bool = False  # also run once with MIXREG_THREADS=POOL_THREADS


# The timed CLI runs are serial (MIXREG_THREADS=1, the CLI's default).  The
# pool path is run and checked on coverage-ar, untimed: on a machine with
# nproc = POOL_THREADS its times measure the scheduler more than mixreg.
WORKLOADS = {w.name: w for w in (
    Workload("coverage-ar", "coverage", BENCH / "workloads" / "coverage-ar.cfg",
             BENCH / "reference" / "coverage-ar.csv", pool_check=True),
    Workload("coverage-iid", "coverage", BENCH / "workloads" / "coverage-iid.cfg",
             BENCH / "reference" / "coverage-iid.csv"),
    Workload("noise-walk-ar", "noise-walk", BENCH / "workloads" / "noise-walk-ar.cfg",
             BENCH / "reference" / "noise-walk-ar.csv"),
)}


def experiment(config: Path) -> configparser.SectionProxy:
    parser = configparser.ConfigParser()
    parser.read(config)
    return parser["experiment"]


def trajectories(w: Workload) -> int:
    exp = experiment(w.config)
    return int(exp["trials"]) + MC_STAGES[w.command] * int(exp["n_mc"])


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

@dataclass
class Proc:
    """One finished child process: exit code and its own resource use,
    including the pool workers it waited for."""
    label: str
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    csv: bytes | None = None


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["MIXREG_THREADS"] = str(threads)
    return env


def spawn(label: str, argv: list[str], threads: int, log: Path) -> Proc:
    """Run argv to completion; wall time from spawn to exit, CPU time and
    peak RSS from wait4 (the child plus the descendants it reaped)."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(threads),
                                stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        watchdog = threading.Timer(CHILD_LIMIT_S, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(label, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)


def cli_args(w: Workload, seed: int, out: Path) -> list[str]:
    return [w.command, "--config", str(w.config), "--seed", str(seed), "--out", str(out)]


def run_cli(w: Workload, seed: int, threads: int, work: Path, label: str) -> Proc:
    out = work / label
    p = spawn(label, [sys.executable, "-m", "mixreg.cli", *cli_args(w, seed, out)],
              threads, work / f"{label}.log")
    p.csv = _read(out / CSV_NAMES[w.command])
    return p


def run_traced(w: Workload, seed: int, threads: int, work: Path, label: str,
               run_id: str) -> tuple[Proc, dict]:
    out, dump = work / label, work / f"{label}.marshal"
    argv = [sys.executable, str(BENCH / "traced_cli.py"), str(dump), run_id,
            *cli_args(w, seed, out)]
    p = spawn(label, argv, threads, work / f"{label}.log")
    p.csv = _read(out / CSV_NAMES[w.command])
    trace = {"spans": [], "import_s": 0.0, "workers": 0}
    if p.code == 0:
        with open(dump, "rb") as fh:
            trace = marshal.load(fh)
        p.wall_s -= float(Path(f"{dump}.write_s").read_text())
    return p, trace


def _read(path: Path) -> bytes | None:
    return path.read_bytes() if path.exists() else None


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def csv_mismatch(got: bytes, want: bytes, rel: float) -> str | None:
    """First difference between two harness CSVs: float columns may differ
    by `rel` relative, every other cell (integers, flags, header) must match
    exactly.  None when they agree."""
    got_rows, want_rows = got.decode().splitlines(), want.decode().splitlines()
    if not got_rows or len(got_rows) != len(want_rows) or got_rows[0] != want_rows[0]:
        return "header or row count differs"
    header = got_rows[0].split(",")
    for g_row, w_row in zip(got_rows[1:], want_rows[1:]):
        g_cells, w_cells = g_row.split(","), w_row.split(",")
        if len(g_cells) != len(header) or len(w_cells) != len(header):
            return "column count differs"
        for col, a, b in zip(header, g_cells, w_cells):
            if col in FLOAT_COLUMNS:
                x, y = float(a), float(b)
                if not (x == y or abs(x - y) <= rel * max(abs(x), abs(y))):
                    return f"{col}: {a} vs {b}"
            elif a != b:
                return f"{col}: {a} vs {b}"
    return None


def check(serial: list[Proc], pool: list[Proc], w: Workload, seed: int) -> dict[str, str]:
    """Failure reason per failed process label.  Every serial CSV must be
    byte-identical to the first, and so must every pool CSV to the first
    pool CSV; at the config's own seed the serial CSVs must match the
    committed reference; pool CSVs must agree with the serial one to
    THREADS_REL."""
    failures = {}
    reference = w.reference.read_bytes() \
        if w.reference is not None and seed == default_seed(w) else None
    first = serial[0].csv
    for group, want, rel, what in (
            (serial, reference, REFERENCE_REL, "the reference CSV"),
            (pool, first, THREADS_REL, f"serial (MIXREG_THREADS={POOL_THREADS})")):
        for p in group:
            if p.code != 0:
                failures[p.label] = f"exit code {p.code}"
            elif p.csv is None:
                failures[p.label] = "no CSV written"
            elif p.csv != group[0].csv:
                failures[p.label] = "CSV not byte-identical to the first run's"
            elif want is not None and (why := csv_mismatch(p.csv, want, rel)):
                failures[p.label] = f"differs from {what}: {why}"
    return failures


def default_seed(w: Workload) -> int:
    return int(experiment(w.config)["seed"])


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------

def measure(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run workload w once: untraced, the end-to-end metrics; traced, the
    per-layer metrics.  Returns the result fields plus a `details` dict."""
    work.mkdir(parents=True, exist_ok=True)
    serial: list[Proc] = []
    pool: list[Proc] = []
    setup: list[Proc] = []
    details: dict = {"notes": []}
    if trace:
        run_id = f"{w.name}-s{seed}-{os.getpid()}"
        serial.append(run_cli(w, seed, 1, work, "plain"))
        traced, dump = run_traced(w, seed, 1, work, "traced", run_id)
        serial.append(traced)
        metrics = spans.layer_metrics(dump["spans"], dump["workers"])
        metrics["cli.import_s"] = dump["import_s"]
        metrics["trace.overhead_s"] = traced.wall_s - serial[0].wall_s
        details["spans"] = len(dump["spans"])
        metrics.update(dict.fromkeys(POOL_LAYER, 0))
        if w.pool_check:
            pool.append(run_cli(w, seed, POOL_THREADS, work, "pool"))
            traced, dump = run_traced(w, seed, POOL_THREADS, work, "pool-traced", run_id)
            pool.append(traced)
            metrics.update(spans.pool_metrics(dump["spans"], dump["workers"]))
            metrics["parallel.pool.wall_s"] = pool[0].wall_s
            metrics["parallel.pool.cpu_s"] = pool[0].cpu_s
            details["notes"].append(
                "parallel.pool.* come from runs with MIXREG_THREADS="
                f"{POOL_THREADS}; pool-worker spans are returned with each chunk "
                "result and counted, and worker seconds are summed over workers")
    else:
        # The whole run, set-up probes and checks included, fits in about
        # `seconds`: a CLI run starts only if half of its predicted time fits.
        deadline = time.perf_counter() + seconds
        setup = [spawn(f"setup{i}", [sys.executable, str(BENCH / "setup_probe.py"), str(w.config)],
                       1, work / f"setup{i}.log") for i in range(SETUP_REPS)]
        if w.pool_check:
            pool.append(run_cli(w, seed, POOL_THREADS, work, "pool"))
        while len(serial) < MIN_CLI_RUNS or \
                time.perf_counter() + serial[-1].wall_s / 2 < deadline:
            serial.append(run_cli(w, seed, 1, work, f"cli{len(serial)}"))
        wall = statistics.median(p.wall_s for p in serial)
        metrics = {
            "wall_s": wall,
            "cpu_s": statistics.median(p.cpu_s for p in serial),
            "setup_s": statistics.median(p.wall_s for p in setup),
            "peak_rss_mb": statistics.median(p.rss_mb for p in serial),
            "trials_per_s": trajectories(w) / wall,
        }
        details["setup"] = [_row(p) for p in setup]
        details["cli_runs"] = len(serial)
    failures = check(serial, pool, w, seed)
    failures.update({p.label: f"exit code {p.code}" for p in setup if p.code != 0})
    attempted = len(serial) + len(pool) + len(setup)
    details["procs"] = [_row(p) for p in serial + pool]
    details["failures"] = failures
    details["fail_frac"] = len(failures) / attempted
    details["reference_checked"] = w.reference is not None and seed == default_seed(w)
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics, "details": details}


def _row(p: Proc) -> dict:
    return {"label": p.label, "code": p.code, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
            "rss_mb": p.rss_mb}


# ---------------------------------------------------------------------------
# Metadata
# ---------------------------------------------------------------------------

def metadata(w: Workload, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": w.name,
        "seed": seed,
        "default_seed": default_seed(w),
        "config": str(w.config.relative_to(ROOT)),
        "config_sha256": hashlib.sha256(w.config.read_bytes()).hexdigest(),
        "mixreg_threads": 1,
        "mixreg_threads_pool_check": POOL_THREADS if w.pool_check else None,
        "git_sha": git_sha(),
        "src_sha256": tree_hash(ROOT / "src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(np),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "load": "closed loop, one client, one CLI process at a time",
    }


def git_sha() -> str | None:
    """HEAD commit, read from the checkout's own .git; None without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_hash(top: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        digest.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def openblas_threads(np) -> int | None:
    """Thread count of the OpenBLAS numpy loaded, as the CLI processes get
    it from the same environment; None when it cannot be queried."""
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="CLI seed (default: the config's own)")
    parser.add_argument("--seconds", type=float, default=38.0,
                        help="length of an untraced run, set-up probes and checks included")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mixreg" / "cli.py").is_file():
        print(f"error: no mixreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    seed = default_seed(w) if args.seed is None else args.seed
    work = ROOT / ".bench_work" / f"{w.name}-{os.getpid()}"
    try:
        result = measure(w, seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())
             ["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(result["metrics"]):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(result['metrics']))}")
    for name, value in result["metrics"].items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({"meta": metadata(w, seed), **result["details"]}))
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
