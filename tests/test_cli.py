import glob
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from gpchain import cli, commands, continuum, csvout, integrators, models
from gpchain.cli import main

CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs",
                                        "*.json")))


def _write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_verify_derivation_passes(tmp_path):
    out = tmp_path / "v"
    rc = main(["verify-derivation", "--out", str(out)])
    assert rc == 0
    report = (out / "verify_report.txt").read_text()
    assert report.count("ok  ") == 8
    assert "FAIL" not in report
    assert report.strip().endswith("overall: ok")
    summary = json.loads((out / "verify_summary.json").read_text())
    assert summary["status"] == "ok"
    assert len(summary["checks"]) == 8
    names = {c["name"] for c in summary["checks"]}
    assert "matrix-oracle" in names and "jordan-wigner-identity" in names


GOLDEN = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize("golden, payload", [
    ("verify_default", None),
    ("verify_n10", {"verify": {"N": 10}}),
])
def test_verify_derivation_matches_golden_text(tmp_path, golden, payload):
    # tests/data holds the report and summary an earlier version wrote, so a
    # change to the printed derivation shows up across commits
    args = ["verify-derivation", "--out", str(tmp_path / "v")]
    if payload is not None:
        args += ["--config", _write_cfg(tmp_path, payload)]
    assert main(args) == 0
    for name in ("verify_report.txt", "verify_summary.json"):
        with open(os.path.join(GOLDEN, golden, name), "rb") as fh:
            assert (tmp_path / "v" / name).read_bytes() == fh.read(), name


_PRECURSOR = {
    "equation": "precursor", "model": {"N": 8, "J0": 1.0, "R0": 2.0, "s": 40.0},
    "grid": {"L": 25.0, "M": 64}, "integrator": {"dt": 0.001, "t_end": 0.05},
    "initial": {"profile": "gaussian", "amplitude": 0.8, "width": 2.0},
}
# the Strang split steps: 16 fused steps of 0.003 and a short one of 0.002,
# with a potential for gp and with hbar != 1 for the coupled pair
_GP_SHORT_STEP = {
    "equation": "gp", "grid": {"L": 25.0, "M": 64},
    "integrator": {"dt": 0.003, "t_end": 0.05},
    "initial": {"profile": "sech-soliton", "eta": 1.0},
    "potential": {"profile": "gaussian", "amplitude": 0.3, "width": 4.0},
}
_COUPLED_GP_HBAR = {
    "equation": "coupled-gp",
    "model": {"family": "hubbard", "N": 8, "t": 0.5, "U": 1.0, "hbar": 0.7},
    "grid": {"L": 25.0, "M": 64}, "integrator": {"dt": 0.003, "t_end": 0.05},
    "initial": {"profile": "gaussian", "amplitude": 0.8, "width": 2.0, "center": 10.0},
    "initial2": {"profile": "gaussian", "amplitude": 0.6, "width": 2.0, "center": 15.0},
}
_CONTINUUM_LIMIT = {
    "model": {"N": 8, "J0": 1.0, "R0": 2.0, "s": 1.0},
    "study": {"kind": "continuum-limit", "sizes": [32, 64], "grid_refine": 4,
              "t_end": 0.1, "dt": 0.001, "profile": "gaussian", "amplitude": 0.8,
              "width": 2.0, "slope_min": 1.0, "slope_max": 3.0},
}


@pytest.mark.parametrize("golden, command, payload, names", [
    ("precursor_eps1", "simulate", dict(_PRECURSOR, dispersive_scale=1.0),
     ("field.csv", "run_summary.json")),
    ("precursor_eps0", "simulate", dict(_PRECURSOR, dispersive_scale=0.0),
     ("field.csv", "run_summary.json")),
    ("continuum_limit", "study", _CONTINUUM_LIMIT, ("study.csv", "study_summary.json")),
    ("gp_potential_short_step", "simulate", _GP_SHORT_STEP,
     ("field.csv", "run_summary.json")),
    ("coupled_gp_hbar", "simulate", _COUPLED_GP_HBAR, ("field.csv", "run_summary.json")),
])
def test_continuum_outputs_match_golden_bytes(tmp_path, golden, command, payload, names):
    # the spectral RHS with and without its gradient terms, the lattice
    # against the pretransform grid, and both split steps, as an earlier
    # version wrote them
    out = tmp_path / "o"
    assert main([command, "--config", _write_cfg(tmp_path, payload), "--out", str(out)]) == 0
    for name in names:
        with open(os.path.join(GOLDEN, golden, name), "rb") as fh:
            assert (out / name).read_bytes() == fh.read(), name


def _close(got, want, tol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= tol * np.abs(want).max(), (got, want)


@pytest.mark.parametrize("golden, command, payload", [
    ("precursor_eps1", "simulate", dict(_PRECURSOR, dispersive_scale=1.0)),
    ("precursor_eps0", "simulate", dict(_PRECURSOR, dispersive_scale=0.0)),
    ("continuum_limit", "study", _CONTINUUM_LIMIT),
])
def test_continuum_outputs_agree_with_physical_space_rk4(tmp_path, golden, command,
                                                         payload):
    # tests/data/*/physical_rk4 holds what these runs wrote when RK4 stepped
    # the field u itself; stepping fft(u) moves only roundoff: fields, study
    # errors and slope agree to 1e-12 relative, and the inputs exactly
    out = tmp_path / "o"
    assert main([command, "--config", _write_cfg(tmp_path, payload), "--out", str(out)]) == 0
    ref = pathlib.Path(GOLDEN, golden, "physical_rk4")
    name, summary_name = (("field.csv", "run_summary.json") if command == "simulate"
                          else ("study.csv", "study_summary.json"))
    got = np.loadtxt(out / name, delimiter=",", skiprows=1)
    want = np.loadtxt(ref / name, delimiter=",", skiprows=1)
    assert np.array_equal(got[:, :2], want[:, :2])  # xi, flavor or spacing, N
    for col in range(2, got.shape[1]):  # re and im, or each study error
        if command == "simulate":
            _close(got[:, col], want[:, col])
        else:
            for g, w in zip(got[:, col], want[:, col]):
                _close(g, w)
    summary = _strict_json(out / summary_name)
    expect = _strict_json(ref / summary_name)
    if command == "simulate":
        got_obs, want_obs = summary.pop("final_observables"), expect.pop("final_observables")
        for key in ("norm", "energy"):
            _close(got_obs[key], want_obs[key])
        # a real field's momentum is roundoff: compare it on the scale of the norm
        assert abs(got_obs["momentum"] - want_obs["momentum"]) <= 1e-12 * want_obs["norm"]
    else:
        _close(summary.pop("slope"), expect.pop("slope"))
        # two points leave no residual: the slope's stderr is roundoff
        assert abs(summary.pop("slope_stderr") - expect.pop("slope_stderr")) <= 1e-12
        for pt, ref_pt in zip(summary["points"], expect["points"]):
            for key in ("error", "relative_error"):
                _close(pt.pop(key), ref_pt.pop(key))
    assert summary == expect  # the initial observables too, to the last bit


def test_verify_detects_tampered_hamiltonian(tmp_path, monkeypatch):
    real = models.build_xxz_bosonized
    monkeypatch.setattr(
        models, "build_xxz_bosonized",
        lambda *a, **k: real(*a, **k) + real(*a, **k))
    out = tmp_path / "v"
    rc = main(["verify-derivation", "--out", str(out)])
    assert rc == 1
    report = (out / "verify_report.txt").read_text()
    assert report.strip().endswith("overall: failed")
    # the doubled chain meets its references nowhere; the matrix oracle and
    # the statistics comparison double both of their sides and still agree
    failed = {line.split()[1] for line in report.splitlines() if line.startswith("FAIL")}
    assert failed == {"chain-commutator-all-sites", "chain-commutator-expanded",
                      "merged-equation-of-motion"}


def test_config_errors_exit_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"verify": {"N": 3}})
    assert main(["verify-derivation", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err
    cfg2 = _write_cfg(tmp_path, {"modle": {}}, "typo.json")
    assert main(["simulate", "--config", cfg2]) == 2
    assert main(["study", "--config", _write_cfg(tmp_path, {}, "e.json")]) == 2
    capsys.readouterr()
    # an --out that is a file, or lies under one, is a bad setting too
    for out in ("typo.json", os.path.join("typo.json", "sub")):
        assert main(["verify-derivation", "--out", str(tmp_path / out)]) == 2
        assert "config error: out: " in capsys.readouterr().err


@pytest.mark.parametrize("scheme", ["rk4", "rk45"])
@pytest.mark.parametrize("payload, nflavors", [
    ({"equation": "xxz-lattice", "model": {"N": 5}}, 1),
    ({"equation": "hubbard-lattice", "model": {"family": "hubbard", "N": 5},
      "initial2": {"profile": "uniform"}}, 2),
])
def test_zero_length_lattice_run_writes_each_row_once(tmp_path, scheme, payload, nflavors):
    cfg = _write_cfg(tmp_path, {**payload, "initial": {"profile": "gaussian"},
                                "integrator": {"t_end": 0.0, "scheme": scheme}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()[1:]
    keys = [tuple(row.split(",")[:3]) for row in rows]
    assert len(keys) == len(set(keys)) == 5 * nflavors
    assert {key[0] for key in keys} == {"0"}


def test_dry_run_prints_plan_only(tmp_path, capsys):
    out = tmp_path / "never"
    rc = main(["simulate", "--out", str(out), "--dry-run"])
    assert rc == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["command"] == "simulate"
    assert plan["config"]["equation"] == "xxz-lattice"
    assert not out.exists()


def test_one_parser_serves_every_call(tmp_path):
    # the parser is built once per process, and no call leaves a mark on it
    assert main(["simulate", "--config", _gp_config(tmp_path), "--dry-run",
                 "--out", str(tmp_path / "dry")]) == 0
    with pytest.raises(SystemExit):
        main(["simulate", "--no-such-option"])
    assert main(["simulate", "--config", _gp_config(tmp_path),
                 "--out", str(tmp_path / "run")]) == 0
    assert (tmp_path / "run" / "field.csv").exists() and not (tmp_path / "dry").exists()
    assert cli._build_parser() is cli._build_parser()


def _command(path):
    with open(path) as fh:
        return "study" if "study" in json.load(fh) else "simulate"


@pytest.mark.parametrize("command,path", [
    *((_command(path), path) for path in CONFIGS),
    ("simulate", None), ("verify-derivation", None),
])
def test_dry_run_config_is_accepted_back(tmp_path, capsys, command, path):
    assert main([command, "--dry-run"] + (["--config", path] if path else [])) == 0
    plan = capsys.readouterr().out
    resolved = _write_cfg(tmp_path, json.loads(plan)["config"])
    assert main([command, "--config", resolved, "--dry-run"]) == 0
    assert capsys.readouterr().out == plan


def _gp_config(tmp_path, name="gp.json"):
    return _write_cfg(tmp_path, {
        "equation": "gp",
        "grid": {"L": 20.0, "M": 64},
        "integrator": {"dt": 1e-3, "t_end": 0.1},
        "initial": {"profile": "sech-soliton", "eta": 1.0},
    }, name)


def test_simulate_gp_outputs_and_determinism(tmp_path):
    cfg = _gp_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    for fname in ("field.csv", "run_summary.json"):
        assert (a / fname).read_bytes() == (b / fname).read_bytes()
    summary = json.loads((a / "run_summary.json").read_text())
    assert summary["status"] == "ok"
    n0 = summary["initial_observables"]["norm"]
    n1 = summary["final_observables"]["norm"]
    assert abs(n1 - n0) < 1e-10 * n0
    lines = (a / "field.csv").read_text().splitlines()
    assert lines[0] == "xi,flavor,re,im"
    assert len(lines) == 1 + 64


def test_simulate_xxz_lattice_trajectory(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "equation": "xxz-lattice",
        "model": {"N": 8, "J0": 1.0, "R0": 0.5},
        "integrator": {"dt": 1e-3, "t_end": 0.05},
        "initial": {"profile": "gaussian", "amplitude": 0.3, "width": 2.0},
    })
    out = tmp_path / "lat"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "time,site,flavor,re,im"
    # initial and final snapshot, one flavor, eight sites
    assert len(lines) == 1 + 2 * 8
    summary = json.loads((out / "run_summary.json").read_text())
    drift = abs(summary["final_observables"]["norm"]
                - summary["initial_observables"]["norm"])
    assert drift < 1e-10


def _snapshot_times(out):
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    return list(dict.fromkeys(row.split(",")[0] for row in rows))


@pytest.mark.parametrize("scheme", ["rk4", "rk45"])
def test_every_scheme_keeps_every_nth_step_before_the_last(tmp_path, scheme):
    def run(every):
        out = tmp_path / f"{scheme}-{every}"
        cfg = _write_cfg(tmp_path, {
            "equation": "xxz-lattice",
            "model": {"N": 8, "J0": 1.0, "R0": 0.5},
            "integrator": {"dt": 0.003, "t_end": 0.1, "snapshot_every": every,
                           "scheme": scheme},
            "initial": {"profile": "gaussian", "amplitude": 0.3, "width": 2.0},
        })
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        return _snapshot_times(out)

    times = run(3)
    if scheme == "rk4":
        # 33 full steps and a short one: steps 3, 6, ..., 33 and both ends
        assert len(times) == 13 and _fmt(33 * 0.003) in times
        want = [_fmt(n * 0.003) for n in range(0, 34, 3)]
    else:
        # every accepted step, then every third before the one that ends the run
        every_step = run(1)
        want = every_step[:1] + every_step[3:-1:3]
        assert len(want) > 1  # the third of four accepted steps
    assert times == want + [_fmt(0.1)]


def test_simulate_precursor_reports_transform(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "equation": "precursor",
        "model": {"N": 8, "J0": 1.0, "R0": 2.0, "s": 1.0},
        "grid": {"L": 25.0, "M": 64},
        "integrator": {"dt": 1e-3, "t_end": 0.05},
        "initial": {"profile": "gaussian", "amplitude": 0.5, "width": 3.0},
    })
    out = tmp_path / "pre"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["transform"]["A"] == pytest.approx(np.sqrt(0.5))
    assert summary["transform"]["B"] == pytest.approx(np.sqrt(0.5))


def test_simulate_precursor_degenerate_fails(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {
        "equation": "precursor",
        "model": {"N": 8, "J0": 1.0, "R0": 1.0},
        "grid": {"M": 64},
        "integrator": {"t_end": 0.01},
    })
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "d")]) == 1
    assert "error" in capsys.readouterr().err


def test_simulate_coupled_gp(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "equation": "coupled-gp",
        "model": {"family": "hubbard", "N": 8, "t": 0.5, "U": 1.0},
        "grid": {"L": 30.0, "M": 64},
        "integrator": {"dt": 1e-3, "t_end": 0.05},
        "initial": {"profile": "gaussian", "amplitude": 0.6, "width": 3.0,
                    "center": 10.0},
        "initial2": {"profile": "gaussian", "amplitude": 0.4, "width": 3.0,
                     "center": 20.0},
    })
    out = tmp_path / "cg"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "field.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 64  # two flavors
    summary = json.loads((out / "run_summary.json").read_text())
    for key in ("norm_flavor0", "norm_flavor1"):
        assert abs(summary["final_observables"][key]
                   - summary["initial_observables"][key]) < 1e-10


def _strict_json(path):
    """The JSON in path, refusing NaN and Infinity as RFC 8259 does."""
    def reject(name):
        raise ValueError(f"{path.name}: {name} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def test_simulate_blowup_reports_failure(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "equation": "xxz-lattice",
        "model": {"N": 8, "J0": 1.0, "R0": 1.0},
        "integrator": {"dt": 10.0, "t_end": 100.0},
        "initial": {"profile": "uniform", "value": 50.0},
    })
    out = tmp_path / "boom"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    summary = _strict_json(out / "run_summary.json")
    assert summary["status"] == "failed"
    assert "non-finite" in summary["failure"]
    # the trajectory holds the initial state, then the last finite one
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert sorted(set(rows[:, 0])) == [0.0, summary["last_finite_t"]]
    assert summary["last_finite_t"] > 0.0


def test_precursor_blowup_writes_the_physical_field(tmp_path, monkeypatch):
    # the run steps the spectrum fft(u), and the field it writes is the
    # last finite u, not only the snapshots so far (here just t = 0)
    seen = {}
    integrate = commands._integrate

    def recording(sim, integ):
        try:
            return integrate(sim, integ)
        except integrators.NonFiniteError as exc:
            seen["exc"] = exc
            raise

    monkeypatch.setattr(commands, "_integrate", recording)
    cfg = _write_cfg(tmp_path, {
        "equation": "precursor", "model": {"N": 8, "J0": 1.0, "R0": 2.0, "s": 40.0},
        "grid": {"L": 25.0, "M": 64}, "integrator": {"dt": 0.01, "t_end": 1.0},
        "initial": {"profile": "gaussian", "amplitude": 50.0, "width": 2.0},
    })
    out = tmp_path / "boom"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    summary = _strict_json(out / "run_summary.json")
    assert summary["status"] == "failed"
    assert "non-finite" in summary["failure"]
    exc = seen["exc"]
    assert exc.times == [0.0]
    assert summary["last_finite_t"] == exc.t == 0.01
    rows = np.loadtxt(out / "field.csv", delimiter=",", skiprows=1)
    grid = continuum.Grid1D(25.0, 64)
    assert np.array_equal(rows[:, 0], grid.xs)
    u = np.fft.ifft(exc.y)
    assert np.array_equal(rows[:, 2] + 1j * rows[:, 3], u)
    u0 = 50.0 * np.exp(-(((grid.xs - 12.5) / 2.0) ** 2))
    assert np.abs(u - u0).max() > 50.0
    assert summary["final_observables"]["norm"] > summary["initial_observables"]["norm"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_blown_up_observables_are_null(tmp_path):
    # the last snapshot is finite, near 1e178, but its norm and energy overflow
    out = tmp_path / "boom"
    assert main(["simulate", "--config", _write_cfg(tmp_path, _BYTE_RUNS["blowup"][1]),
                 "--out", str(out)]) == 1
    summary = _strict_json(out / "run_summary.json")
    assert summary["final_observables"] == {"energy": None, "norm": None}
    assert summary["initial_observables"] == {"energy": -50000008.0, "norm": 20000.0}


def test_study_truncation_cli(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "model": {"N": 8, "J0": 1.0, "R0": 2.0, "s": 1.0},
        "study": {"kind": "truncation", "s_values": [40.0, 400.0],
                  "M": 64, "t_end": 0.1, "dt": 1e-3,
                  "profile": "gaussian", "amplitude": 0.8, "width": 2.0},
    })
    out = tmp_path / "tr"
    assert main(["study", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "study.csv").read_text().splitlines()
    assert lines[0] == "s,rho,error,skipped"
    assert len(lines) == 3
    summary = json.loads((out / "study_summary.json").read_text())
    assert summary["passed"] is True
    assert 0.7 <= summary["slope"] <= 1.3


def test_study_without_a_slope_writes_strict_json(tmp_path, capsys):
    # a zero profile has zero error at every size, so there is no log-log slope
    cfg = _write_cfg(tmp_path, {
        "model": {"N": 8, "J0": 1.0, "R0": 2.0, "s": 1.0},
        "study": {"kind": "continuum-limit", "sizes": [32, 64], "grid_refine": 2,
                  "t_end": 0.01, "dt": 0.001, "profile": "zero"},
    })
    out = tmp_path / "flat"
    assert main(["study", "--config", cfg, "--out", str(out)]) == 1
    summary = _strict_json(out / "study_summary.json")
    assert summary["slope"] is None and summary["slope_stderr"] is None
    assert summary["passed"] is False
    assert [pt["error"] for pt in summary["points"]] == [0.0, 0.0]
    err = capsys.readouterr().err
    assert err.startswith("error: no log-log slope: errors must be positive and finite")
    assert "0.0 at x = 0.7853981633974483" in err
    assert summary["failure"].startswith("no log-log slope: errors must be positive")


@pytest.mark.parametrize("study, header, blowup_t", [
    ({"kind": "continuum-limit", "sizes": [64, 32], "t_end": 0.05, "dt": 1e-3,
      "amplitude": 40.0}, "spacing,N,error", "0.002"),
    ({"kind": "truncation", "s_values": [40.0, 400.0], "M": 64, "t_end": 0.1,
      "dt": 0.01, "amplitude": 400.0}, "s,rho,error,skipped", "0.02"),
], ids=["continuum-limit", "truncation"])
def test_study_blowup_exits_1_with_its_points(tmp_path, capsys, study, header, blowup_t):
    cfg = _write_cfg(tmp_path, {
        "model": {"N": 8, "J0": 1.0, "R0": 2.0, "s": 1.0},
        "study": {**study, "profile": "gaussian", "width": 2.0},
    })
    out = tmp_path / "boom"
    assert main(["study", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"state became non-finite at t={blowup_t}" in err
    summary = _strict_json(out / "study_summary.json")
    assert summary["slope"] is None and summary["passed"] is False
    assert f"state became non-finite at t={blowup_t}" in summary["failure"]
    assert err == f"error: {summary['failure']}\n"
    assert len(summary["points"]) == 2
    assert not any("error" in pt for pt in summary["points"])
    lines = (out / "study.csv").read_text().splitlines()
    assert lines[0] == header and len(lines) == 3
    assert all(line.split(",")[2] == "nan" for line in lines[1:])


def test_study_continuum_limit_cli(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "model": {"N": 8, "J0": 1.0, "R0": 2.0, "s": 1.0},
        "study": {"kind": "continuum-limit", "sizes": [16, 32],
                  "t_end": 0.1, "dt": 1e-3, "grid_refine": 4,
                  "profile": "gaussian", "amplitude": 0.8, "width": 2.0,
                  "slope_min": 1.0, "slope_max": 3.0},
    })
    out = tmp_path / "cl"
    assert main(["study", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "study.csv").read_text().splitlines()
    assert lines[0] == "spacing,N,error"
    assert len(lines) == 3
    summary = json.loads((out / "study_summary.json").read_text())
    assert summary["passed"] is True
    assert "failure" not in summary


def _read_field(path):
    raw = np.loadtxt(path, delimiter=",", skiprows=1)
    return [raw[raw[:, 1] == fl, 2] + 1j * raw[raw[:, 1] == fl, 3]
            for fl in np.unique(raw[:, 1])]


@pytest.mark.parametrize("dt", [0.3, 0.35])
def test_splitstep_runs_end_at_t_end(tmp_path, dt):
    # plane waves are exact solutions that both split steps reproduce to
    # roundoff, so the final field pins the time the run stopped at
    L, M, amp, mode, t_end = 16.0, 32, 0.6, 2, 1.0
    k = 2 * np.pi * mode / L
    x = np.arange(M) * L / M
    wave = {"profile": "plane-wave", "amplitude": amp, "mode": mode}
    integ = {"dt": dt, "t_end": t_end}

    cfg = _write_cfg(tmp_path, {"equation": "gp", "grid": {"L": L, "M": M},
                                "integrator": integ, "initial": wave}, "gp.json")
    out = tmp_path / "gp"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    (u,) = _read_field(out / "field.csv")
    exact = amp * np.exp(1j * k * x) * np.exp(-1j * (1.0 + k * k - amp ** 2) * t_end)
    assert np.abs(u - exact).max() < 1e-12

    t_hop, U, amp2 = 0.5, 1.3, 0.4
    cfg = _write_cfg(tmp_path, {
        "equation": "coupled-gp",
        "model": {"family": "hubbard", "N": 8, "t": t_hop, "U": U},
        "grid": {"L": L, "M": M}, "integrator": integ,
        "initial": wave, "initial2": {**wave, "amplitude": amp2},
    }, "cgp.json")
    out = tmp_path / "cgp"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    u0, u1 = _read_field(out / "field.csv")
    for got, a, other in ((u0, amp, amp2), (u1, amp2, amp)):
        omega = -4.0 * t_hop + 2.0 * t_hop * k * k + U * other ** 2
        exact = a * np.exp(1j * k * x) * np.exp(-1j * omega * t_end)
        assert np.abs(got - exact).max() < 1e-12


@pytest.mark.parametrize("section", [
    {"integrator": {"dt": "abc"}},
    {"model": {"s": -1}},
])
def test_ill_typed_numbers_exit_2(tmp_path, capsys, section):
    cfg = _write_cfg(tmp_path, {"equation": "precursor", "grid": {"M": 64},
                                **section})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    path = "integrator.dt" if "integrator" in section else "model.s"
    assert f"config error: {path}" in err


_HUGE = 10 ** 400  # a JSON integer that no float can hold


@pytest.mark.parametrize("section,path", [
    ({"equation": "gp", "integrator": {"dt": _HUGE}}, "integrator.dt"),
    ({"model": {"J0": -_HUGE}}, "model.J0"),
    ({"equation": "gp", "initial": {"profile": "gaussian", "amplitude": _HUGE}},
     "initial.amplitude"),
    ({"equation": "gp", "initial": {"profile": "plane-wave", "mode": _HUGE}},
     "initial.mode"),
    ({"model": {"N": _HUGE}}, "model.N"),
    ({"equation": "gp", "grid": {"M": 2 ** 1100}}, "grid.M"),
])
@pytest.mark.parametrize("dry_run", [True, False])
def test_numbers_beyond_float_range_exit_2(tmp_path, capsys, section, path, dry_run):
    cfg = _write_cfg(tmp_path, section)
    out = tmp_path / "x"
    args = ["simulate", "--config", cfg, "--out", str(out)]
    assert main(args + ["--dry-run"] * dry_run) == 2
    assert f"config error: {path} is too large for a float: " in capsys.readouterr().err
    assert not out.exists()


def test_integer_literal_too_long_to_read_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"model": {"N": 1' + "0" * 5000 + "}}")
    assert main(["simulate", "--config", str(cfg), "--dry-run"]) == 2
    assert "is not valid JSON: " in capsys.readouterr().err


_GRID = {"grid": {"M": 64}}
_HUBBARD = {"model": {"family": "hubbard", "N": 8}}
_TRUNCATION = {"study": {"kind": "truncation"}}


@pytest.mark.parametrize("command,section,path", [
    ("simulate", {"equation": "gp", "integrator": {"scheme": "rk45"}, **_GRID},
     "integrator.scheme"),
    ("simulate", {"equation": "coupled-gp", "integrator": {"scheme": "rk4"},
                  **_HUBBARD, **_GRID}, "integrator.scheme"),
    ("simulate", {"equation": "precursor", "integrator": {"scheme": "strang"}, **_GRID},
     "integrator.scheme"),
    ("simulate", {"integrator": {"scheme": "strang"}}, "integrator.scheme"),
    ("simulate", {"equation": "gp", "integrator": {"snapshot_every": 2}, **_GRID},
     "integrator.snapshot_every"),
    ("simulate", {"equation": "precursor", "integrator": {"snapshot_every": 1}, **_GRID},
     "integrator.snapshot_every"),
    ("simulate", {"equation": "pretransform", "integrator": {"snapshot_every": 3},
                  **_GRID}, "integrator.snapshot_every"),
    ("simulate", {"equation": "coupled-gp", "integrator": {"snapshot_every": 1},
                  **_HUBBARD, **_GRID}, "integrator.snapshot_every"),
    ("simulate", {"potential": {"profile": "uniform"}}, "potential"),
    ("simulate", {"equation": "hubbard-lattice", "potential": {}, **_HUBBARD},
     "potential"),
    ("simulate", {"equation": "coupled-gp", "potential": {"profile": "zero"},
                  **_HUBBARD, **_GRID}, "potential"),
    ("simulate", {"equation": "coupled-gp", "spacing": 0.5, **_HUBBARD, **_GRID},
     "spacing"),
    ("simulate", {"equation": "precursor", "spacing": 0.5, **_GRID}, "spacing"),
    ("simulate", {"spacing": 1.0}, "spacing"),
    ("simulate", {"equation": "gp", "dispersive_scale": 0.5, **_GRID},
     "dispersive_scale"),
    ("simulate", {"equation": "pretransform", "dispersive_scale": 1.0, **_GRID},
     "dispersive_scale"),
    ("simulate", {"equation": "precursor", "integrator": {"symbol_mode": "naive"},
                  **_GRID}, "integrator.symbol_mode"),
    ("simulate", {"equation": "hubbard-lattice", "integrator": {"symbol_mode": "wick"},
                  **_HUBBARD}, "integrator.symbol_mode"),
    ("study", {"study": {"kind": "truncation", "threads": 4}}, "study.threads"),
    ("study", {"study": {"kind": "continuum-limit", "threads": 0}}, "study.threads"),
    ("study", {"study": {"kind": "truncation", "threads": True}}, "study.threads"),
    ("simulate", {"initial2": {"profile": "zero"}}, "initial2"),
    ("simulate", {"equation": "gp", "initial2": {}, **_GRID}, "initial2"),
    ("simulate", {"grid": {"M": 64}}, "grid"),
    ("simulate", {"equation": "hubbard-lattice", **_HUBBARD, **_GRID}, "grid"),
    ("simulate", {"integrator": {"tolerance": 1e-6}}, "integrator.tolerance"),
    ("simulate", {"equation": "gp", "integrator": {"tolerance": 1e-6}, **_GRID},
     "integrator.tolerance"),
    ("study", {"study": {"kind": "continuum-limit", "sizes": [32]}}, "study.sizes"),
    ("study", {"study": {"kind": "continuum-limit", "sizes": 32}}, "study.sizes"),
    ("study", {"study": {"kind": "continuum-limit", "sizes": [64, 64]}}, "study.sizes"),
    ("study", {"study": {"kind": "truncation", "s_values": [400.0]}}, "study.s_values"),
    ("study", {"study": {"kind": "truncation", "s_values": 400.0}}, "study.s_values"),
    ("study", {"integrator": {"t_end": 5.0}, **_TRUNCATION}, "integrator.t_end"),
    ("study", {"integrator": {"scheme": "rk45"}, **_TRUNCATION}, "integrator.scheme"),
    ("study", {"integrator": {"tolerance": 1e-3}, **_TRUNCATION},
     "integrator.tolerance"),
    ("study", {"grid": {"M": 64}, **_TRUNCATION}, "grid.M"),
    ("study", {"equation": "gp", **_TRUNCATION}, "equation"),
    ("simulate", {"study": {"kind": "truncation"}}, "study"),
    ("verify-derivation", {"model": {"J0": 5.0, "R0": 3.0}}, "model"),
    ("verify-derivation", {"equation": "gp"}, "equation"),
    ("verify-derivation", {"integrator": {"dt": 0.01}}, "integrator"),
    ("simulate", {"initial": {"profile": "file", "path": 5}}, "initial.path"),
    ("simulate", {"initial": {"profile": "uniform", "value": "abc"}}, "initial.value"),
    ("study", {"study": {"kind": "continuum-limit", "grid_refine": 0}},
     "study.grid_refine"),
    ("study", {"study": {"kind": "continuum-limit", "grid_refine": 3}},
     "study.grid_refine"),
    ("simulate", {"model": {"U": 2.0}}, "model.U"),
    ("simulate", {"model": {"t": 0.5}}, "model.t"),
    ("study", {"model": {"U": 2.0}, **_TRUNCATION}, "model.U"),
    *[("simulate", {"equation": "hubbard-lattice",
                    "model": {"family": "hubbard", "N": 8, key: 1.0}}, f"model.{key}")
      for key in ("J0", "J1", "R0", "R1", "s", "x_xi", "h")],
    ("study", {"study": {"kind": "truncation", "sizes": [32, 64]}}, "study.sizes"),
    ("study", {"study": {"kind": "truncation", "grid_refine": 4}}, "study.grid_refine"),
    ("study", {"study": {"kind": "continuum-limit", "s_values": [40.0, 400.0]}},
     "study.s_values"),
    ("study", {"study": {"kind": "continuum-limit", "M": 256}}, "study.M"),
    ("simulate", {"initial": {"profile": "sech-soliton", "amplitude": 1.0}},
     "initial.amplitude"),
    ("simulate", {"initial": {"profile": "sech-soliton", "width": 2.0}}, "initial.width"),
    ("simulate", {"initial": {"profile": "gaussian", "value": 1.0}}, "initial.value"),
    ("simulate", {"equation": "hubbard-lattice", **_HUBBARD,
                  "initial2": {"profile": "plane-wave", "center": 3.0}},
     "initial2.center"),
    ("study", {"study": {"kind": "truncation", "eta": 1.0}}, "study.eta"),
    ("study", {"model": {"family": "hubbard"}, **_TRUNCATION}, "model.family"),
    ("simulate", {"equation": "gp", "model": {"J0": 2.0}, **_GRID}, "model"),
    ("simulate", {"equation": "gp", **_GRID, "potential": {
        "profile": "plane-wave", "amplitude": 0.5, "mode": 1}}, "potential.profile"),
    ("simulate", {"equation": "precursor", **_GRID, "potential": {
        "profile": "sech-soliton", "eta": 1.0}}, "potential.profile"),
    ("simulate", {"out": 5}, "out must be a string"),
    ("simulate", {"out": ["a"]}, "out must be a string"),
    *[("simulate", {"equation": eq, "integrator": {"scheme": "rk45"}, **_GRID},
       "integrator.scheme 'rk45' does not apply to equation " + eq)
      for eq in ("pretransform", "precursor")],
    # pretransform takes its site field from the potential section, even a zero one
    ("simulate", {"equation": "pretransform", "model": {"h": 0.0}, **_GRID}, "model.h"),
    ("simulate", {"equation": "precursor", "model": {"h": 0.5}, **_GRID}, "model.h"),
    *[("study", {"model": {"h": 0.5}, "study": {"kind": kind}}, "model.h")
      for kind in ("truncation", "continuum-limit")],
    ("simulate", {"equation": "precursor", "model": {"hbar": 0.5}, **_GRID}, "model.hbar"),
    ("study", {"model": {"hbar": 0.5}, **_TRUNCATION}, "model.hbar"),
    # a gaussian width of 0 started from NaN, or from an all-zero field when
    # the center is off the grid points; a negative one acted as its |width|
    *[(command, {**rest, key: {"profile": "gaussian", "center": center, "width": width}},
       f"{key}.width must be above 0")
      for command, key, rest in (("simulate", "initial", {"equation": "gp", **_GRID}),
                                 ("simulate", "initial2", {"equation": "hubbard-lattice",
                                                           **_HUBBARD}),
                                 ("simulate", "potential", {"equation": "gp", **_GRID}),
                                 ("study", "study", {}))
      for center, width in ((4.0, 0), (4.1, 0.0), (4.0, -2.0))],
])
def test_unread_or_mismatched_settings_exit_2(tmp_path, capsys, command, section, path):
    cfg = _write_cfg(tmp_path, section)
    out = tmp_path / "x"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"config error: {path}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section,message", [  # one case for each equation rule
    ({"equation": "gp", "integrator": {"scheme": "rk4"}, **_GRID},
     "integrator.scheme 'rk4' does not apply to equation gp"),
    ({"equation": "precursor", "model": {"family": "hubbard"}, **_GRID},
     "model.family must be xxz for equation precursor, got 'hubbard'"),
    ({"equation": "coupled-gp", "model": {**_HUBBARD["model"], "U": [1.0] * 7 + [2.0]},
      **_GRID}, "model.U must be one uniform value for equation coupled-gp"),
    ({"equation": "gp", "integrator": {"snapshot_every": 1}, **_GRID},
     "integrator.snapshot_every must be 0 for equation gp"),
    *[({"equation": "pretransform", "model": model, **_GRID},
       "model.h is not read by equation pretransform with scheme rk4 on model family xxz")
      for model in ({"h": 0.3}, {"N": 8, "h": [0.0] * 7 + [0.1]})],
    # a per-site list needs one entry for each of model.N sites, given or default
    ({"equation": "xxz-lattice", "model": {"N": 8, "h": [0.1, 0.2]}},
     "model.h must have one entry per site (8), got 2"),
    ({"model": {"h": [0.1] * 8}}, "model.h must have one entry per site (256), got 8"),
    ({"equation": "hubbard-lattice", "model": {**_HUBBARD["model"], "U": [1.0] * 9}},
     "model.U must have one entry per site (8), got 9"),
    ({"equation": "coupled-gp", "model": {"family": "hubbard", "U": [1.0] * 8}, **_GRID},
     "model.U must have one entry per site (256), got 8"),
])
@pytest.mark.parametrize("dry_run", [True, False])
def test_equation_rules_exit_2_before_any_output(tmp_path, capsys, section, message,
                                                 dry_run):
    # --dry-run rejects exactly what the run would reject
    cfg = _write_cfg(tmp_path, section)
    out = tmp_path / "x"
    args = ["simulate", "--config", cfg, "--out", str(out)]
    assert main(args + ["--dry-run"] * dry_run) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, key, rest", [
    ("simulate", "initial", {"equation": "gp", **_GRID}),
    ("simulate", "initial2", {"equation": "coupled-gp", **_HUBBARD, **_GRID}),
    ("study", "study", _TRUNCATION),
    ("study", "study", {"study": {"kind": "continuum-limit"}}),
])
@pytest.mark.parametrize("eta", [0, 0.0, -0.0])
@pytest.mark.parametrize("dry_run", [True, False])
def test_sech_soliton_eta_zero_exits_2(tmp_path, capsys, command, key, rest, eta, dry_run):
    # eta 0 gave an all-zero field that ran to exit 0
    section = {**rest, key: {**rest.get(key, {}), "profile": "sech-soliton", "eta": eta}}
    cfg = _write_cfg(tmp_path, section)
    out = tmp_path / "x"
    assert main([command, "--config", cfg, "--out", str(out)] + ["--dry-run"] * dry_run) == 2
    assert f"config error: {key}.eta must not be 0, got {eta!r}" in capsys.readouterr().err
    assert not out.exists()


def test_negative_eta_is_the_negated_soliton(tmp_path):
    xs = continuum.Grid1D(40.0, 64).xs
    cfg = {"initial": {"profile": "sech-soliton", "eta": 1.5, "center": 18.0}}
    soliton = commands._make_profile(cfg, "initial", 40.0, 20.0)(xs)
    cfg["initial"]["eta"] = -1.5
    assert np.array_equal(commands._make_profile(cfg, "initial", 40.0, 20.0)(xs), -soliton)
    run = _write_cfg(tmp_path, {"equation": "gp", "grid": {"L": 40.0, "M": 64},
                                "integrator": {"dt": 0.01, "t_end": 0.05}, **cfg})
    assert main(["simulate", "--config", run, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("section,path", [
    ({"initial": {"profile": "file", "path": "nope.npy"}}, "initial.path"),
    ({"initial": {"profile": "file", "path": "garbage.npy"}}, "initial.path"),
    ({"initial": {"profile": "file", "path": "garbage.csv"}}, "initial.path"),
    ({"initial": {"profile": "file", "path": "short.csv"}}, "initial.path"),
    ({"equation": "hubbard-lattice", **_HUBBARD,
      "initial2": {"profile": "file", "path": "nope.csv"}}, "initial2.path"),
    # a non-finite sample used to start a run that was never finite
    *[({"initial": {"profile": "file", "path": name}},
       f"initial.path: {name} holds non-finite values") for name in ("nan.csv", "inf.npy")],
])
def test_unreadable_initial_data_exits_2(tmp_path, capsys, monkeypatch, section, path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "garbage.npy").write_text("not an array")
    (tmp_path / "garbage.csv").write_text("re,im\n")
    (tmp_path / "short.csv").write_text("0.1,0.2\n")
    (tmp_path / "nan.csv").write_text("0.1,0.2\n" * 7 + "nan,0.2\n")
    np.save(tmp_path / "inf.npy", np.array([0.1] * 7 + [complex(0.0, np.inf)]))
    cfg = _write_cfg(tmp_path, {"model": {"N": 8}, "integrator": {"t_end": 0.01},
                                **section})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {path}" in err
    assert "Traceback" not in err


def test_initial_data_file_is_read(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    u0 = 0.1 * np.arange(8) + 0.2j
    np.save(tmp_path / "u0.npy", u0)
    (tmp_path / "u0.csv").write_text("".join(f"{z.real},{z.imag}\n" for z in u0))
    for name in ("u0.npy", "u0.csv"):
        cfg = _write_cfg(tmp_path, {"model": {"N": 8}, "integrator": {"t_end": 0.0},
                                    "initial": {"profile": "file", "path": name}})
        out = tmp_path / name.replace(".", "_")
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        norm = json.loads((out / "run_summary.json").read_text())["initial_observables"]
        assert abs(norm["norm"] - np.sum(np.abs(u0) ** 2)) < 1e-12


def test_split_step_scheme_is_strang(tmp_path, capsys):
    cfg = _gp_config(tmp_path)
    assert main(["simulate", "--config", cfg, "--dry-run"]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["config"]["integrator"]["scheme"] == "strang"
    out = tmp_path / "gp"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["scheme"] == "strang"
    # an explicit strang, and study.threads = 1, are accepted
    explicit = _write_cfg(tmp_path, {"equation": "gp", "grid": {"M": 64},
                                     "integrator": {"scheme": "strang"}}, "s.json")
    assert main(["simulate", "--config", explicit, "--dry-run"]) == 0
    study = _write_cfg(tmp_path, {"study": {"kind": "truncation", "threads": 1}},
                       "t.json")
    assert main(["study", "--config", study, "--dry-run"]) == 0


def test_study_truncation_all_degenerate_writes_summary(tmp_path, capsys):
    # J0 = R0 gives D = 0 at every s: no point is usable
    cfg = _write_cfg(tmp_path, {"model": {"J0": 1, "R0": 1},
                                "study": {"kind": "truncation"}})
    out = tmp_path / "deg"
    assert main(["study", "--config", cfg, "--out", str(out)]) == 1
    assert "error: fewer than two usable truncation points" in capsys.readouterr().err
    summary = json.loads((out / "study_summary.json").read_text())
    assert summary["passed"] is False and summary["slope"] is None
    assert summary["failure"].startswith("fewer than two usable truncation points")
    assert len(summary["points"]) == 5
    assert all(pt["skipped"] for pt in summary["points"])
    lines = (out / "study.csv").read_text().splitlines()
    assert lines[0] == "s,rho,error,skipped"
    assert all(line.endswith(",nan,nan,1") for line in lines[1:])


def test_simulate_precursor_without_transform_fails(tmp_path, capsys):
    # J0 = 0 leaves A^2 = 1 but B^2 = J0 / D = 0: the message names B^2
    for model, message in [({"R0": 0.0}, "R0 = 0: the transform is undefined"),
                           ({"J0": 0.0, "R0": 2.0}, "B^2 = 0 is not positive")]:
        cfg = _write_cfg(tmp_path, {"equation": "precursor", "model": model,
                                    "grid": {"M": 64}, "integrator": {"t_end": 0.01}})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "p")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_hubbard_lattice_second_flavor_defaults_to_first(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "equation": "hubbard-lattice", "model": {"family": "hubbard", "N": 8},
        "integrator": {"t_end": 0.01},
        "initial": {"profile": "gaussian", "amplitude": 0.5, "width": 2.0},
    })
    out = tmp_path / "hub"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    final = json.loads((out / "run_summary.json").read_text())["final_observables"]
    assert final["norm_flavor0"] == final["norm_flavor1"]


@pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
def test_sample_config_dry_run(path, capsys):
    with open(path) as fh:
        command = "study" if "study" in json.load(fh) else "simulate"
    assert main([command, "--config", path, "--dry-run"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == command


# Runs main on each argument list in one fresh interpreter, then prints the
# exit codes and every numpy or gpchain submodule the interpreter loaded.
_FRONT_ONLY = """
import contextlib, io, json, sys
from gpchain.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = [m for m in sys.modules if m.partition(".")[0] == "numpy" or m.startswith("gpchain.")]
print(json.dumps({"codes": codes, "loaded": sorted(loaded)}))
"""


def test_dry_run_and_config_errors_load_neither_numpy_nor_the_library(tmp_path):
    calls = []
    for path in CONFIGS:
        with open(path) as fh:
            command = "study" if "study" in json.load(fh) else "simulate"
        calls.append([command, "--config", path, "--dry-run"])
    calls.append(["verify-derivation", "--dry-run"])
    calls.append(["simulate", "--config", _write_cfg(tmp_path, {"model": {"s": -1.0}}),
                  "--out", str(tmp_path / "x")])
    src = str(pathlib.Path(commands.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", _FRONT_ONLY, json.dumps(calls)],
                          env=env, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout)
    assert len(CONFIGS) == 6
    assert result["codes"] == [0] * 7 + [2]
    assert result["loaded"] == ["gpchain.cli", "gpchain.config"]
    assert not (tmp_path / "x").exists()


# ------------------------------------------------- CSV byte oracle
#
# The row-by-row formatter the CLI first had: one tuple per row, every
# float through "%.17g".  The block-formatted writer must match its bytes.

def _fmt(x):
    return "%.17g" % float(x)


def _oracle_csv(header, rows):
    return "".join(",".join(row) + "\n" for row in [header, *rows]).encode()


def _oracle_trajectory(times, states):
    return _oracle_csv(("time", "site", "flavor", "re", "im"), [
        (_fmt(t), str(site), str(flavor), _fmt(z.real), _fmt(z.imag))
        for t, snap in zip(times, states)
        for flavor, vals in enumerate(snap)
        for site, z in enumerate(vals)
    ])


def _oracle_field(xs, state):
    return _oracle_csv(("xi", "flavor", "re", "im"), [
        (_fmt(xi), str(flavor), _fmt(z.real), _fmt(z.imag))
        for flavor, vals in enumerate(np.atleast_2d(state))
        for xi, z in zip(xs, vals)
    ])


_BYTE_RUNS = {
    "xxz": (0, {
        "equation": "xxz-lattice",
        "model": {"N": 12, "J0": 1.0, "R0": 0.5, "h": 0.2},
        "integrator": {"dt": 1e-2, "t_end": 0.5, "snapshot_every": 7},
        "initial": {"profile": "gaussian", "amplitude": 0.4, "width": 3.0},
    }),
    "hubbard": (0, {
        "equation": "hubbard-lattice",
        "model": {"family": "hubbard", "N": 10, "t": 0.8, "U": 1.5},
        "integrator": {"dt": 1e-2, "t_end": 0.2, "scheme": "rk45", "snapshot_every": 1},
        "initial": {"profile": "gaussian", "amplitude": 0.7, "width": 2.0},
        "initial2": {"profile": "plane-wave", "amplitude": -0.3, "mode": 1},
    }),
    "hubbard-zero-flavor": (0, {
        "equation": "hubbard-lattice",
        "model": {"family": "hubbard", "N": 10, "t": 0.8, "U": 1.5},
        "integrator": {"dt": 1e-2, "t_end": 0.2, "scheme": "rk45", "snapshot_every": 1},
        "initial": {"profile": "gaussian", "amplitude": 0.7, "width": 2.0},
        "initial2": {"profile": "zero"},
    }),
    "blowup": (1, {
        "equation": "xxz-lattice",
        "model": {"N": 8, "J0": 1.0, "R0": 1.0},
        "integrator": {"dt": 10.0, "t_end": 100.0, "snapshot_every": 1},
        "initial": {"profile": "uniform", "value": 50.0},
    }),
    # the state at t = 10 is finite but no snapshot: the run appends it
    "blowup-between-snapshots": (1, {
        "equation": "xxz-lattice",
        "model": {"N": 8, "J0": 1.0, "R0": 1.0},
        "integrator": {"dt": 10.0, "t_end": 100.0, "snapshot_every": 3},
        "initial": {"profile": "uniform", "value": 50.0},
    }),
    "gp": (0, {
        "equation": "gp",
        "grid": {"L": 20.0, "M": 64},
        "integrator": {"dt": 1e-3, "t_end": 0.05},
        "initial": {"profile": "sech-soliton", "eta": 1.0},
    }),
    "coupled-gp": (0, {
        "equation": "coupled-gp",
        "model": {"family": "hubbard", "N": 8, "t": 0.5, "U": 1.0},
        "grid": {"L": 30.0, "M": 32},
        "integrator": {"dt": 1e-3, "t_end": 0.02},
        "initial": {"profile": "gaussian", "amplitude": 0.6, "width": 3.0},
        "initial2": {"profile": "gaussian", "amplitude": 0.4, "width": 3.0},
    }),
}


def _recorded_run(tmp_path, monkeypatch, name):
    """Run _BYTE_RUNS[name]: its output directory, and what its integration gave."""
    rc, payload = _BYTE_RUNS[name]
    seen = {}
    integrate = commands._integrate

    def recording(sim, integ):
        try:
            seen["run"] = integrate(sim, integ)
        except integrators.IntegrationError as exc:
            seen["run"] = exc.times, exc.states
            if exc.t > exc.times[-1]:  # written after the snapshots
                seen["run"] = exc.times + [exc.t], exc.states + [exc.y]
                seen["appended"] = True
            raise
        return seen["run"]

    monkeypatch.setattr(commands, "_integrate", recording)
    out = tmp_path / name
    assert main(["simulate", "--config", _write_cfg(tmp_path, payload),
                 "--out", str(out)]) == rc
    return out, seen


@pytest.mark.parametrize("name", sorted(_BYTE_RUNS))
def test_csv_bytes_match_row_oracle(tmp_path, monkeypatch, name):
    out, seen = _recorded_run(tmp_path, monkeypatch, name)
    times, states = seen["run"]
    payload = _BYTE_RUNS[name][1]
    if "grid" in payload:
        xs = continuum.Grid1D(payload["grid"]["L"], payload["grid"]["M"]).xs
        assert (out / "field.csv").read_bytes() == _oracle_field(xs, states[-1])
    else:
        assert len(times) >= 2
        assert (out / "trajectory.csv").read_bytes() == _oracle_trajectory(times, states)


@pytest.mark.parametrize("name, floats", [("gp", 64 + 2 * 64),
                                          ("coupled-gp", 32 + 2 * 2 * 32)])
def test_field_csv_is_formatted_in_one_call(tmp_path, monkeypatch, name, floats):
    # the positions and the re and im of every flavor's values go through
    # format_g17 together, which pays its fixed cost once per file
    calls = []
    format_g17 = csvout.format_g17

    def counting(x, work=None):
        calls.append(np.size(x))
        return format_g17(x, work)

    monkeypatch.setattr(csvout, "format_g17", counting)
    out, _ = _recorded_run(tmp_path, monkeypatch, name)
    assert calls == [floats]
    assert (out / "field.csv").exists()


@pytest.mark.parametrize("name, block, sizes", [
    ("xxz", 96, [4, 4, 1]),  # snapshots of 12 rows, 24 floats
    ("xxz", 16, [1] * 9),  # a snapshot larger than a block
    ("hubbard", 120, [3, 3, 1]),  # two flavors of 10 sites, 40 floats
    ("hubbard", 30, [1] * 7),
    ("hubbard-zero-flavor", 160, [4, 3]),
    ("blowup", 16, [1, 1]),
    ("blowup-between-snapshots", 32, [2]),
])
def test_trajectory_blocks_match_row_oracle(tmp_path, monkeypatch, name, block, sizes):
    # the writer formats whole snapshots per block of _BLOCK_VALUES floats
    monkeypatch.setattr(commands, "_BLOCK_VALUES", block)
    written = []
    lines = commands._lines

    def counting(lead, mid, values, work):
        written.append(len(values))
        return lines(lead, mid, values, work)

    monkeypatch.setattr(commands, "_lines", counting)
    out, seen = _recorded_run(tmp_path, monkeypatch, name)
    assert written == sizes
    assert seen.get("appended", False) == (name == "blowup-between-snapshots")
    assert (out / "trajectory.csv").read_bytes() == _oracle_trajectory(*seen["run"])


def _dense_chain(count, seed=34):
    """count snapshots of a two-flavor 256-site chain: gaussian tails that
    print in e-notation, and a zero among them."""
    rng = np.random.default_rng(seed)
    envelope = np.exp(-((np.arange(256) - 128) / 12.0) ** 2)
    states = [(rng.standard_normal((2, 256)) + 1j * rng.standard_normal((2, 256))) * envelope
              for _ in range(count)]
    states[1][0, 5] = 0.0
    return list(np.cumsum(rng.random(count) * 0.03)), states


def test_full_blocks_and_a_short_last_one_match_the_row_oracle(tmp_path, monkeypatch):
    # 20 snapshots of 1024 floats: blocks of 8, 8 and 4 through one workspace,
    # the full ones NUL-dropped in two pieces; texts kept past later blocks
    # stay as made
    monkeypatch.setattr(commands, "_BLOCK_VALUES", 8192)
    times, states = _dense_chain(20)
    texts = list(commands._trajectory_blocks(times, states))
    assert len(texts) == 5
    want = _oracle_trajectory(times, states)
    assert b"time,site,flavor,re,im\n" + b"".join(texts) == want
    path = tmp_path / "trajectory.csv"
    commands._write_csv(str(path), ("time", "site", "flavor", "re", "im"),
                        commands._trajectory_blocks(times, states))
    assert path.read_bytes() == want


def test_later_blocks_allocate_only_their_text(monkeypatch):
    # after the first block has made the file's work arrays, producing each
    # text allocates the text and little else.  bytearray.translate allocates
    # the text at the length of the table it drops NULs from and keeps that
    # size, so the text's own size, sys.getsizeof, is what it holds.
    monkeypatch.setattr(commands, "_BLOCK_VALUES", 8192)
    times, states = _dense_chain(20)
    blocks = commands._trajectory_blocks(times, states)
    next(blocks)
    tracemalloc.start()
    try:
        for text in blocks:
            del text
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            try:
                text = next(blocks)
            except StopIteration:
                break
            grown = tracemalloc.get_traced_memory()[1] - before
            assert grown <= sys.getsizeof(text) + 16 * 1024, (grown, len(text))
    finally:
        tracemalloc.stop()


_HUBBARD_RK45 = {
    "equation": "hubbard-lattice",
    "model": {"family": "hubbard", "N": 16, "t": 1.0, "U": 2.0},
    "integrator": {"dt": 0.01, "t_end": 0.3, "scheme": "rk45", "tolerance": 1e-8,
                   "snapshot_every": 1},
    "initial": {"profile": "gaussian", "amplitude": 0.8, "width": 1.5, "center": 6.0},
    "initial2": {"profile": "gaussian", "amplitude": 0.6, "width": 1.5, "center": 10.0},
}


@pytest.mark.parametrize("golden, rc, payload", [
    ("hubbard_lattice_rk45", 0, _HUBBARD_RK45),
    ("xxz_blowup", *_BYTE_RUNS["blowup"]),
])
def test_trajectories_match_golden_bytes(tmp_path, golden, rc, payload):
    # the row oracle above checks the formatter against "%.17g" within one
    # version; these files, written by an earlier version, pin the bytes
    # across versions: dense RK45 snapshots whose gaussian tails print in
    # e-notation, and a blow-up with three-digit exponents
    out = tmp_path / "o"
    assert main(["simulate", "--config", _write_cfg(tmp_path, payload), "--out", str(out)]) == rc
    with open(os.path.join(GOLDEN, golden, "trajectory.csv"), "rb") as fh:
        assert (out / "trajectory.csv").read_bytes() == fh.read()


# ------------------------------------------------- potentials on the grid

_BUMP = {"profile": "gaussian", "amplitude": 0.3, "width": 2.0}


def _bump(grid):
    return 0.3 * np.exp(-(((grid.xs - grid.L / 2.0) / 2.0) ** 2))


def test_pretransform_takes_its_site_field_from_the_potential(tmp_path):
    payload = {
        "equation": "pretransform",
        "model": {"N": 16, "J0": 1.0, "R0": 2.0, "s": 1.0},
        "grid": {"L": 16.0, "M": 32}, "spacing": 0.5,
        "integrator": {"dt": 1e-3, "t_end": 0.05},
        "initial": {"profile": "gaussian", "amplitude": 0.5, "width": 2.0},
    }
    outs = {}
    for name, extra in (("bump", {"potential": _BUMP}), ("flat", {})):
        outs[name] = tmp_path / name
        assert main(["simulate", "--config", _write_cfg(tmp_path, {**payload, **extra}),
                     "--out", str(outs[name])]) == 0
    grid = continuum.Grid1D(16.0, 32)
    p = models.XXZParams(N=16, J0=1.0, R0=2.0, s=1.0)
    rhs = continuum.pretransform_rhs_factory(p, grid, spacing=0.5, h_values=_bump(grid))
    u0 = (0.5 * np.exp(-(((grid.xs - 8.0) / 2.0) ** 2))).astype(complex)
    _, states = integrators.integrate_fixed(rhs, np.fft.fft(u0), 0.0, 0.05, 1e-3)
    field = (outs["bump"] / "field.csv").read_bytes()
    assert field == _oracle_field(grid.xs, np.fft.ifft(states[-1]))
    assert field != (outs["flat"] / "field.csv").read_bytes()


def test_gp_energy_includes_the_potential(tmp_path):
    payload = {
        "equation": "gp",
        "grid": {"L": 20.0, "M": 64},
        "integrator": {"dt": 1e-3, "t_end": 0.02},
        "initial": {"profile": "sech-soliton", "eta": 1.0},
        "potential": _BUMP,
    }
    out = tmp_path / "gpv"
    assert main(["simulate", "--config", _write_cfg(tmp_path, payload),
                 "--out", str(out)]) == 0
    summary = json.loads((out / "run_summary.json").read_text())
    grid = continuum.Grid1D(20.0, 64)
    V = _bump(grid)
    (u,) = _read_field(out / "field.csv")
    final = summary["final_observables"]
    assert final == continuum.continuum_observables(u, grid, V=V)
    assert final["energy"] != continuum.continuum_observables(u, grid)["energy"]
    u0 = (np.sqrt(2.0) / np.cosh(grid.xs - 10.0)).astype(complex)
    assert summary["initial_observables"] == continuum.continuum_observables(u0, grid, V=V)


def test_rk45_run_ends_at_exactly_t_end(tmp_path):
    # the last step starts before t_end / 2, where t + dt rounds past t_end
    payload = {
        "model": {"N": 8},
        "integrator": {"dt": 0.001, "t_end": 0.45, "scheme": "rk45", "tolerance": 1e-6},
        "initial": {"profile": "uniform", "value": 0.5},
    }
    out = tmp_path / "rk45"
    assert main(["simulate", "--config", _write_cfg(tmp_path, payload),
                 "--out", str(out)]) == 0
    times = [float(line.split(",")[0])
             for line in (out / "trajectory.csv").read_text().splitlines()[1:]]
    assert times[-1] == 0.45 == json.loads((out / "run_summary.json").read_text())["t_end"]
