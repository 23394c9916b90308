#!/usr/bin/env python3
"""Self-test of the benchmark, at minimal job sizes (about a minute).

Run from the root of a gpchain checkout:

    python3 gpbench/selftest.py

It checks that
  * BENCHMARK.json names exactly the workloads and metrics the code has;
  * every workload prints every metric of its mode, with its unit, and
    passes its correctness checks;
  * self times of a span tree add up to the root span, and a broken tree
    is caught;
  * deliberately failing jobs are counted in failed_frac: a study whose
    slope band excludes its slope, and a job whose reruns differ.
Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _run_main(argv, minimal=True):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(argv, minimal=minimal)
    lines = out.getvalue().strip().splitlines()
    return rc, lines


def check_manifest(bench: dict) -> list:
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(jobs.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from jobs.WORKLOADS")
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    if e2e != list(run.END_TO_END):
        problems.append(f"BENCHMARK.json end_to_end {e2e} != {list(run.END_TO_END)}")
    layer = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    if layer != list(spans.LAYER_METRICS) + [spans.OVERHEAD_METRIC]:
        problems.append("BENCHMARK.json per_layer differs from spans.LAYER_METRICS")
    return problems


def check_printed(bench: dict) -> list:
    """Every workload, both modes: the result line names every metric and unit."""
    problems = []
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for name in jobs.WORKLOADS:
        for trace in (0, 1):
            rc, lines = _run_main(["--workload", name, "--seed", "7", "--seconds", "0",
                                   "--trace", str(trace)])
            where = f"{name} trace {trace}"
            result = json.loads(lines[-1])
            if rc != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{where}: rc {rc}, {lines[:3]}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{where}: metrics {got} != {wanted[trace]}")
            for key, unit in wanted[trace].items():
                if not any(line.strip().startswith(f"{key} = ") and f" {unit} " in line
                           for line in lines):
                    problems.append(f"{where}: {key} not printed with unit {unit}")
            if trace == 0 and not result["metrics"]["job_s"]["value"] > 0:
                problems.append(f"{where}: job_s is not positive")
    return problems


def check_span_sums() -> list:
    """Self times of a known nested call tree, and a corrupted tree."""
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.01)

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle():
        time.sleep(0.01)
        traced_leaf()
        traced_leaf()

    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("root", lambda: (traced_middle(), traced_leaf()))()
    problems = list(spans.check_tree(tracer.spans))
    selfs = spans.self_times(tracer.spans)
    names = [s[0] for s in tracer.spans]
    if names != ["root", "middle", "leaf", "leaf", "leaf"]:
        problems.append(f"span order {names}")
    root = tracer.spans[0][2] - tracer.spans[0][1]
    if abs(sum(selfs) - root) > 1e-9:
        problems.append(f"self times {sum(selfs)} do not add up to root {root}")
    middle_span = tracer.spans[1][2] - tracer.spans[1][1]
    children = sum(s[2] - s[1] for s in tracer.spans if s[3] == 1)
    if abs(selfs[1] - (middle_span - children)) > 1e-12 or not selfs[1] >= 0.009:
        problems.append(f"middle self time {selfs[1]}")
    broken = list(tracer.spans)
    name, start, end, _ = broken[2]
    broken[2] = (name, start, end, 4)
    if not spans.check_tree(broken):
        problems.append("check_tree accepted a span whose parent comes after it")
    return problems


def _fail_study(rng, minimal):
    cfg = jobs.WORKLOADS["spectral.truncation"].make_config(rng, minimal)
    cfg["study"].update({"slope_min": 5.0, "slope_max": 6.0})
    return cfg


def check_negative_controls() -> list:
    problems = []
    name = "selftest.bad-band"
    jobs.WORKLOADS[name] = jobs.Workload(name, "study", _fail_study, jobs._check_study)
    try:
        rc, lines = _run_main(["--workload", name, "--seed", "1", "--seconds", "0",
                               "--trace", "0"])
    finally:
        del jobs.WORKLOADS[name]
    result = json.loads(lines[-1])
    head = lines[0]
    if rc == 0 or result["correct"] or result["failed"] != result["attempted"]:
        problems.append(f"band violation not counted: rc {rc}, {result}")
    if "failed_frac 1" not in head:
        problems.append(f"failed_frac not reported as 1: {head}")

    # A job whose outputs change from run to run fails the rerun check.
    gpchain, cli_main = run.import_cli()
    counter = []

    def drifting_main(argv):
        rc = cli_main(argv)
        counter.append(1)
        out_dir = Path(argv[argv.index("--out") + 1])
        (out_dir / "extra.txt").write_text(f"{len(counter)}\n")
        return rc

    workload = jobs.WORKLOADS["spectral.gp"]
    cfg = workload.make_config(random.Random(1), True)
    work = run.STATE_DIR / "selftest-drift"
    try:
        raw = run.measure(drifting_main, workload, cfg, 0.0, True, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if raw["failed"] != raw["attempted"] - 1:
        problems.append(f"non-identical reruns not counted: {raw['failed']} of "
                        f"{raw['attempted']} failed, {raw['problems']}")
    return problems


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for check in (lambda: check_manifest(bench), lambda: check_printed(bench),
                  check_span_sums, check_negative_controls):
        problems = check()
        failures += len(problems)
        for problem in problems:
            print(f"FAIL {problem}")
    print("selftest: " + ("ok" if not failures else f"{failures} problems"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
