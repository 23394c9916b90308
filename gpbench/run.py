#!/usr/bin/env python3
"""Benchmark of the gpchain CLI: wall time per job, one job kind per workload.

Run from the root of a gpchain checkout:

    python3 gpbench/run.py --workload lattice.xxz --seed 1 --seconds 12 --trace 0

The seed makes one job config (jobs.py); the job then runs through
gpchain.cli.main in this process, back to back, until --seconds have
passed.  Every job's outputs are checked, and a job whose outputs differ
byte for byte from the run's first job counts as failed.

--trace 0 reports the end-to-end metrics, measured with tracing off:
  job_s        median time of one CLI job
  setup_s      median time for a fresh interpreter to import gpchain and
               validate the job config (--dry-run), over several starts
               spread over the run
  peak_rss_mb  peak resident memory of this process
Both times are wall times scaled to a fixed host speed (see probe.py);
the raw wall-time medians are printed next to them.

--trace 1 runs each job twice, untraced and then traced (spans.py), and
reports the per-layer metrics of the traced jobs, in raw seconds, plus
the tracing overhead; traced times never feed the end-to-end metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Provenance and sample counts are printed
on the line before it and, with the per-job figures, written to
.gpbench/results/.  gpchain is imported from src/ of this checkout;
without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import spans  # noqa: E402
from probe import CAL_REF_S, calibrate  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".gpbench"

SETUP_RUNS = 6
MIN_JOBS = 2
END_TO_END = (("job_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# The fresh interpreter of setup_s imports gpchain and validates the
# config (--dry-run), then runs the speed probe and prints its time and
# the time spent after validating.  A new process may run on the other
# core, whose speed the parent's probes do not see.
SETUP_CODE = (
    "import contextlib, io, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from gpchain.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    rc = main(sys.argv[3:])\n"
    "done = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from probe import calibrate\n"
    "probe = calibrate()\n"
    "print(probe, time.perf_counter() - done)\n"
    "sys.exit(rc)\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_cli():
    """gpchain.cli.main from this checkout's src/, and the package itself."""
    if not (SRC / "gpchain" / "__init__.py").is_file():
        raise BenchError(f"no gpchain package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gpchain
    import gpchain.cli

    where = Path(gpchain.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"gpchain was imported from {where}, not from {SRC}")
    return gpchain, gpchain.cli.main


# ------------------------------------------------------------- one job

def run_job(main, command: str, cfg_path: Path, out_dir: Path):
    """Run one CLI job; returns its exit code, or the error that ended it."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return main([command, "--config", str(cfg_path), "--out", str(out_dir)])
    except SystemExit as exc:
        return exc.code
    except Exception:  # a crashing job is a failed job; the run goes on
        return traceback.format_exc(limit=-3)


def output_digest(out_dir: Path):
    """(sha256 over every output file's name and bytes, total bytes)."""
    h = hashlib.sha256()
    total = 0
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            data = path.read_bytes()
            total += len(data)
            h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest(), total


class Judge:
    """Checks each job and remembers the outputs of the first good one."""

    def __init__(self, workload: jobs.Workload, cfg: dict):
        self.workload = workload
        self.cfg = cfg
        self.reference = None
        self.failed = 0
        self.problems = []

    def __call__(self, rc, out_dir: Path) -> int:
        """Record one job's verdict; returns the bytes it wrote."""
        problems = []
        digest, nbytes = output_digest(out_dir)
        if rc != 0:
            problems.append(f"exit {rc!r}")
        else:
            try:
                problems += self.workload.check(self.cfg, str(out_dir))
            except (OSError, KeyError, TypeError, ValueError) as exc:
                problems.append(f"unreadable outputs: {exc!r}")
        if not problems:
            if self.reference is None:
                self.reference = digest
            elif digest != self.reference:
                problems.append("outputs differ from the first job of this config")
        if problems:
            self.failed += 1
            self.problems.append("; ".join(problems))
        return nbytes


# ----------------------------------------------------------- measuring

def dry_run(command: str, cfg_path: Path):
    """One cold start; returns (wall seconds up to the end of validation,
    the probe's seconds in the same process)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), command,
         "--config", str(cfg_path), "--dry-run"],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"dry run exited {proc.returncode}: {proc.stderr.strip()}")
    probe, after = (float(x) for x in proc.stdout.split())
    return wall - after, probe


def measure(main, workload: jobs.Workload, cfg: dict, seconds: float,
            trace: bool, work: Path) -> dict:
    """Run jobs for `seconds`; returns the raw samples and the verdicts.

    Jobs alternate with speed probes (probe.py): probe, job, probe, job,
    ..., probe, and each job's time is scaled by the mean of the probes
    on either side.  Without tracing, SETUP_RUNS dry runs are spread over
    the same time, each scaled by its own probe; with tracing, each
    untraced job is followed by a traced one.
    """
    work.mkdir(parents=True, exist_ok=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    out_dir = work / "out"
    judge = Judge(workload, cfg)
    raw = {key: [] for key in ("job_wall_s", "job_s", "setup_wall_s", "setup_probe_s",
                               "setup_s", "traced_wall_s", "traced_s", "probe_s",
                               "layers")}
    tracer = spans.Tracer()
    traced_main = tracer.wrap("cli", main)

    def job(fn, kind):
        shutil.rmtree(out_dir, ignore_errors=True)
        gc.collect()
        start = time.perf_counter()
        rc = run_job(fn, workload.command, cfg_path, out_dir)
        wall = time.perf_counter() - start
        probes = raw["probe_s"]
        probes.append(calibrate())
        raw[kind + "_wall_s"].append(wall)
        raw[kind + "_s"].append(wall * 2.0 * CAL_REF_S / (probes[-2] + probes[-1]))
        return rc

    def setup():
        wall, probe = dry_run(workload.command, cfg_path)
        raw["setup_wall_s"].append(wall)
        raw["setup_probe_s"].append(probe)
        raw["setup_s"].append(wall * CAL_REF_S / probe)

    setups = 0 if trace else SETUP_RUNS
    raw["probe_s"].append(calibrate())
    start = time.perf_counter()
    deadline = start + seconds
    while len(raw["job_s"]) < MIN_JOBS or time.perf_counter() < deadline:
        due = start + seconds * len(raw["setup_s"]) / max(setups, 1)
        if len(raw["setup_s"]) < setups and time.perf_counter() >= due:
            setup()
        judge(job(main, "job"), out_dir)
        if not trace:
            continue
        tracer.reset()
        tracer.install()
        try:
            rc = job(traced_main, "traced")
        finally:
            tracer.uninstall()
        nbytes = judge(rc, out_dir)
        bad_tree = spans.check_tree(tracer.spans)
        if bad_tree:
            raise BenchError("span tree is inconsistent: " + "; ".join(bad_tree[:3]))
        raw["layers"].append(spans.summarize(
            tracer.spans, tracer.points, tracer.points_used, nbytes))
    while len(raw["setup_s"]) < setups:
        setup()
    raw["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw["attempted"] = len(raw["job_s"]) + len(raw["traced_s"])
    raw["failed"] = judge.failed
    raw["problems"] = judge.problems
    return raw


def metrics_of(raw: dict, trace: bool):
    """(metrics as {name: {value, unit}}, sample count per metric)."""
    metrics, samples = {}, {}
    if not trace:
        values = {"job_s": raw["job_s"], "setup_s": raw["setup_s"],
                  "peak_rss_mb": [raw["peak_rss_mb"]]}
        for name, unit in END_TO_END:
            metrics[name] = {"value": statistics.median(values[name]), "unit": unit}
            samples[name] = len(values[name])
        return metrics, samples
    for name, unit, _ in spans.LAYER_METRICS:
        values = [layer[name] for layer in raw["layers"]]
        # Counts repeat exactly from job to job; keep them whole numbers.
        median = statistics.median_low if unit in ("count", "bytes") else statistics.median
        metrics[name] = {"value": median(values), "unit": unit}
        samples[name] = len(values)
    name, unit, _ = spans.OVERHEAD_METRIC
    ratios = [t / u for t, u in zip(raw["traced_s"], raw["job_s"])]
    metrics[name] = {"value": statistics.median(ratios) - 1.0, "unit": unit}
    samples[name] = len(ratios)
    return metrics, samples


def tail_percentile(values):
    """(p, value) of the highest whole percentile leaving ten samples above it."""
    n = len(values)
    if n < 20:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


# ---------------------------------------------------------- provenance

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gpchain").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, gpchain, samples: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "gpchain_imported_from": str(Path(gpchain.__file__).resolve().parent.relative_to(ROOT)),
        "samples": samples,
    }


# ---------------------------------------------------------------- main

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, minimal: bool = False) -> int:
    """Run one benchmark; `minimal` shrinks every job for the self-test."""
    args = parse_args(argv)
    try:
        gpchain, cli_main = import_cli()
    except BenchError as exc:
        print(f"gpbench: {exc}", file=sys.stderr)
        return 2
    workload = jobs.WORKLOADS[args.workload]
    cfg = workload.make_config(random.Random(args.seed), minimal)
    work = STATE_DIR / f"work-{os.getpid()}"
    try:
        raw = measure(cli_main, workload, cfg, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"gpbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, samples = metrics_of(raw, bool(args.trace))
    prov = provenance(args, gpchain, samples)
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {attempted}  failed {failed}  failed_frac {failed / attempted:.4g}")
    for problem in sorted(set(raw["problems"])):
        print(f"  failed job: {problem}")
    for name, m in metrics.items():
        line = f"  {name} = {m['value']:.6g} {m['unit']}  (n={samples[name]})"
        if name in ("job_s", "setup_s"):
            kind = name[:-2]
            line += f"  raw wall median {statistics.median(raw[kind + '_wall_s']):.6g} s"
            tail = tail_percentile(raw[name])
            if tail:
                line += f", p{tail[0]} {tail[1]:.6g} s"
        print(line)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    results = STATE_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(result, provenance=prov, config=cfg, raw=raw)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
