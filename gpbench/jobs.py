"""Workloads of the benchmark: one kind of gpchain CLI job each.

A workload turns a seed into one job config, and checks the files a
job writes.  Every workload holds a single job kind so that its
`job_s` is the median of like jobs; the name's prefix (lattice,
spectral, derivation) is the group of layers the kind stresses.

Jobs keep the shape of the sample configs in configs/ but run for a
shorter time, about 0.1 to 0.4 s each on a 2-core Xeon host: a 12 s
run then holds 25 or more jobs, and the speed probes on either side of
a job (probe.py) see the host speed the job saw.  The seeded ranges
keep every study slope inside its band (continuum limit 2.09-2.18 over
the corners of the range, truncation 1.000) and move the adaptive step
count of the Hubbard job by about 1%.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

# Relative norm drift a job may show before it counts as failed.  RK4 on
# the chain conserves the norm to about 1e-15 and RK45 at tolerance 1e-8
# to about 2e-7; Strang split steps conserve it to roundoff.
LATTICE_NORM_DRIFT = 1e-6
SPLITSTEP_NORM_DRIFT = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    make_config: Callable[[random.Random, bool], dict]
    check: Callable[[dict, str], list]


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _read_json(out_dir: str, name: str):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _drift(before: float, after: float) -> float:
    return abs(after / before - 1.0)


# ------------------------------------------------------------ configs

def _xxz(rng, minimal):
    n = 16 if minimal else 256
    return {
        "equation": "xxz-lattice",
        "model": {"N": n, "J0": 1.0, "R0": 1.0, "s": 1.0},
        "integrator": {"dt": 0.001, "t_end": 0.05 if minimal else 1.0,
                       "snapshot_every": 10 if minimal else 250},
        "initial": {"profile": "gaussian", "amplitude": _u(rng, 0.4, 0.6),
                    "width": _u(rng, 0.05, 0.07) * n,
                    "center": _u(rng, 0.45, 0.55) * n},
    }


def _hubbard(rng, minimal):
    n = 16 if minimal else 256
    return {
        "equation": "hubbard-lattice",
        "model": {"family": "hubbard", "N": n, "t": 1.0, "U": 2.0},
        "integrator": {"dt": 0.01, "t_end": 0.2 if minimal else 2.0,
                       "scheme": "rk45", "tolerance": 1e-8, "snapshot_every": 1},
        "initial": {"profile": "gaussian", "amplitude": _u(rng, 0.75, 0.85),
                    "width": _u(rng, 5.5, 6.5) * n / 256,
                    "center": n / 2 - _u(rng, 9.0, 11.0) * n / 256},
        "initial2": {"profile": "gaussian", "amplitude": _u(rng, 0.55, 0.65),
                     "width": _u(rng, 5.5, 6.5) * n / 256,
                     "center": n / 2 + _u(rng, 9.0, 11.0) * n / 256},
    }


def _study_profile(rng, center):
    return {"profile": "gaussian", "amplitude": _u(rng, 0.7, 0.9),
            "width": _u(rng, 1.8, 2.2), "center": center, "threads": 1}


def _truncation(rng, minimal):
    study = {"kind": "truncation", "s_values": [40.0, 126.0, 400.0, 1265.0, 4000.0],
             "M": 64 if minimal else 256, "t_end": 0.02 if minimal else 0.05,
             "dt": 0.001, "slope_min": 0.7, "slope_max": 1.3}
    study.update(_study_profile(rng, _u(rng, -0.5, 0.5)))
    return {"model": {"N": 8, "J0": 1.0, "R0": 2.0, "s": 1.0}, "study": study}


def _continuum_limit(rng, minimal):
    study = {"kind": "continuum-limit",
             "sizes": [32, 64] if minimal else [32, 64, 128, 256],
             "grid_refine": 4, "t_end": 0.02 if minimal else 0.1, "dt": 0.001,
             "slope_min": 1.7, "slope_max": 2.3}
    study.update(_study_profile(rng, 4.0 * math.pi + _u(rng, -0.5, 0.5)))
    return {"model": {"N": 8, "J0": 1.0, "R0": 2.0, "s": 1.0}, "study": study}


def _precursor(rng, minimal):
    length = 8.0 * math.pi
    return {
        "equation": "precursor",
        "model": {"N": 8, "J0": 1.0, "R0": 2.0, "s": 400.0},
        "grid": {"L": length, "M": 64 if minimal else 256},
        "integrator": {"dt": 0.001, "t_end": 0.02 if minimal else 0.25},
        "dispersive_scale": 1.0,
        "initial": {"profile": "gaussian", "amplitude": _u(rng, 0.7, 0.9),
                    "width": _u(rng, 1.8, 2.2),
                    "center": length / 2 + _u(rng, -1.0, 1.0)},
    }


def _gp(rng, minimal):
    length = 20.0 * math.pi
    return {
        "equation": "gp",
        "grid": {"L": length, "M": 128 if minimal else 512},
        "integrator": {"dt": 0.001, "t_end": 0.02 if minimal else 1.0},
        "initial": {"profile": "sech-soliton", "eta": _u(rng, 0.9, 1.1),
                    "center": length / 2 + _u(rng, -2.0, 2.0)},
    }


def _coupled_gp(rng, minimal):
    return {
        "equation": "coupled-gp",
        "model": {"family": "hubbard", "N": 8, "t": 0.5, "U": 1.0},
        "grid": {"L": 40.0, "M": 64 if minimal else 256},
        "integrator": {"dt": 0.001, "t_end": 0.02 if minimal else 1.0},
        "initial": {"profile": "gaussian", "amplitude": _u(rng, 0.7, 0.9),
                    "width": _u(rng, 3.5, 4.5), "center": _u(rng, 13.0, 15.0)},
        "initial2": {"profile": "gaussian", "amplitude": _u(rng, 0.5, 0.7),
                     "width": _u(rng, 3.5, 4.5), "center": _u(rng, 25.0, 27.0)},
    }


def _verify(rng, minimal):
    # No seeded inputs: the derivation is exact and has no initial data.
    return {"verify": {"N": 7 if minimal else 10}}


# ------------------------------------------------------------- checks

def _check_simulate(cfg, out_dir, data_file, norm_keys, bound):
    summary = _read_json(out_dir, "run_summary.json")
    problems = []
    if summary.get("status") != "ok" or "failure" in summary:
        problems.append(f"run failed: {summary.get('failure', summary.get('status'))}")
    if not os.path.isfile(os.path.join(out_dir, data_file)):
        problems.append(f"{data_file} missing")
    before, after = summary["initial_observables"], summary["final_observables"]
    if not all(math.isfinite(v) for v in after.values()):
        problems.append(f"non-finite final observables {after}")
    for key in norm_keys:
        drift = _drift(before[key], after[key])
        if not drift <= bound:
            problems.append(f"{key} drift {drift:.3g} exceeds {bound:g}")
    return problems


def _check_lattice(cfg, out_dir):
    keys = ("norm",) if cfg["equation"] == "xxz-lattice" else (
        "norm_flavor0", "norm_flavor1")
    return _check_simulate(cfg, out_dir, "trajectory.csv", keys, LATTICE_NORM_DRIFT)


def _check_gp(cfg, out_dir):
    return _check_simulate(cfg, out_dir, "field.csv", ("norm",), SPLITSTEP_NORM_DRIFT)


def _check_coupled_gp(cfg, out_dir):
    return _check_simulate(cfg, out_dir, "field.csv",
                           ("norm_flavor0", "norm_flavor1"), SPLITSTEP_NORM_DRIFT)


def _check_precursor(cfg, out_dir):
    return _check_simulate(cfg, out_dir, "field.csv", (), 0.0)


def _check_study(cfg, out_dir):
    study = cfg["study"]
    summary = _read_json(out_dir, "study_summary.json")
    lo, hi = study["slope_min"], study["slope_max"]
    problems = []
    slope = summary["slope"]
    if not (summary["passed"] and lo <= slope <= hi):
        problems.append(f"slope {slope!r} outside band [{lo}, {hi}]")
    wanted = len(study["sizes"] if "sizes" in study else study["s_values"])
    used = [pt for pt in summary["points"] if not pt.get("skipped")]
    if len(used) != wanted:
        problems.append(f"{len(used)} of {wanted} study points usable")
    if not os.path.isfile(os.path.join(out_dir, "study.csv")):
        problems.append("study.csv missing")
    return problems


def _check_verify(cfg, out_dir):
    summary = _read_json(out_dir, "verify_summary.json")
    failed = [c["name"] for c in summary["checks"] if not c["passed"]]
    problems = []
    if summary["status"] != "ok" or failed:
        problems.append(f"verify status {summary['status']}, failed {failed}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lattice.xxz", "simulate", _xxz, _check_lattice),
        Workload("lattice.hubbard", "simulate", _hubbard, _check_lattice),
        Workload("spectral.truncation", "study", _truncation, _check_study),
        Workload("spectral.continuum-limit", "study", _continuum_limit, _check_study),
        Workload("spectral.precursor", "simulate", _precursor, _check_precursor),
        Workload("spectral.gp", "simulate", _gp, _check_gp),
        Workload("spectral.coupled-gp", "simulate", _coupled_gp, _check_coupled_gp),
        Workload("derivation.verify", "verify-derivation", _verify, _check_verify),
    )
}
