import copy
import glob
import json
import os

import pytest

from gpchain.config import (
    MIN_CLI_SITES,
    ConfigError,
    load_config,
    model_params,
    validate_config,
)
from gpchain.models import HubbardParams, XXZParams


def test_defaults_filled_for_simulate():
    cfg = validate_config({}, "simulate")
    assert cfg["model"]["family"] == "xxz"
    assert cfg["model"]["N"] == 256
    assert cfg["model"]["J0"] == 1.0
    assert cfg["integrator"]["scheme"] == "rk4"
    assert cfg["equation"] == "xxz-lattice"
    assert cfg["initial"] == {"profile": "zero"}
    # the default lattice run reads neither key; pretransform reads both
    assert "grid" not in cfg and "spacing" not in cfg
    pre = validate_config({"equation": "pretransform"}, "simulate")
    assert pre["grid"]["M"] == 512
    assert pre["spacing"] == 1.0


def test_input_not_mutated():
    raw = {"model": {"N": 16}}
    validate_config(raw, "simulate")
    assert raw == {"model": {"N": 16}}


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError, match="unknown config key modle"):
        validate_config({"modle": {}}, "simulate")
    with pytest.raises(ConfigError, match="unknown config key model.Jx"):
        validate_config({"model": {"Jx": 1.0}}, "simulate")
    with pytest.raises(ConfigError, match="unknown config key integrator.step"):
        validate_config({"integrator": {"step": 0.1}}, "simulate")


def test_site_count_floor():
    with pytest.raises(ConfigError, match="at least 5"):
        validate_config({"model": {"N": 3}}, "simulate")
    with pytest.raises(ConfigError, match="at least 5"):
        validate_config({"model": {"N": 4}}, "verify-derivation")
    # study does not spin up a single lattice from model.N
    validate_config({"model": {"N": 3},
                     "study": {"kind": "truncation"}}, "study")


def test_grid_and_integrator_validation():
    with pytest.raises(ConfigError, match="power of two"):
        validate_config({"grid": {"M": 100}}, "simulate")
    with pytest.raises(ConfigError, match="power of two"):
        validate_config({"grid": {"M": 4}}, "simulate")
    with pytest.raises(ConfigError, match="scheme"):
        validate_config({"integrator": {"scheme": "euler"}}, "simulate")
    with pytest.raises(ConfigError, match="symbol_mode"):
        validate_config({"integrator": {"symbol_mode": "weyl"}}, "simulate")
    with pytest.raises(ConfigError, match="dt"):
        validate_config({"integrator": {"dt": 0.0}}, "simulate")


def test_equation_family_coherence():
    with pytest.raises(ConfigError, match="hubbard"):
        validate_config({"equation": "coupled-gp"}, "simulate")
    with pytest.raises(ConfigError, match="xxz"):
        validate_config({"equation": "precursor",
                         "model": {"family": "hubbard"}}, "simulate")
    cfg = validate_config({"equation": "coupled-gp",
                           "model": {"family": "hubbard"},
                           "initial": {"profile": "gaussian"}}, "simulate")
    # second flavor inherits the first profile unless given
    assert cfg["initial2"]["profile"] == "gaussian"
    with pytest.raises(ConfigError, match="equation"):
        validate_config({"equation": "kdv"}, "simulate")


def test_profile_checks():
    with pytest.raises(ConfigError, match="initial.profile"):
        validate_config({"initial": {"profile": "box"}}, "simulate")
    with pytest.raises(ConfigError, match="requires initial.path"):
        validate_config({"initial": {"profile": "file"}}, "simulate")
    with pytest.raises(ConfigError, match="not supported"):
        validate_config({"potential": {"profile": "file", "path": "x.npy"}},
                        "simulate")


def test_study_section_requirements():
    with pytest.raises(ConfigError, match="study section"):
        validate_config({}, "study")
    with pytest.raises(ConfigError, match="study.kind"):
        validate_config({"study": {"kind": "dispersion"}}, "study")
    cfg = validate_config({"study": {"kind": "continuum-limit"}}, "study")
    assert cfg["study"]["sizes"] == [32, 64, 128, 256]
    assert cfg["study"]["grid_refine"] == 4
    assert cfg["study"]["slope_min"] == 1.7
    cfg2 = validate_config({"study": {"kind": "truncation"}}, "study")
    assert cfg2["study"]["M"] == 256
    assert len(cfg2["study"]["s_values"]) == 5
    with pytest.raises(ConfigError,
                       match=r"^study\.sizes\[1\] must be a power of two >= 8, got 48$"):
        validate_config({"study": {"kind": "continuum-limit",
                                   "sizes": [32, 48]}}, "study")


def test_study_reads_only_grid_length_and_step():
    cfg = validate_config({"study": {"kind": "truncation"}, "grid": {"L": 9.0},
                           "integrator": {"dt": 0.01}}, "study")
    assert (cfg["study"]["L"], cfg["study"]["dt"]) == (9.0, 0.01)
    for section, path in (({"integrator": {"snapshot_every": 2}},
                           "integrator.snapshot_every"),
                          ({"initial": {"profile": "zero"}}, "initial"),
                          ({"verify": {"N": 7}}, "verify")):
        with pytest.raises(ConfigError, match=f"^{path} is not read by the study"):
            validate_config({"study": {"kind": "truncation"}, **section}, "study")


def test_verify_section():
    cfg = validate_config({}, "verify-derivation")
    assert cfg["verify"]["N"] == 7
    assert cfg["verify"]["jw_sites"] == 4
    with pytest.raises(ConfigError, match="verify.N"):
        validate_config({"verify": {"N": 2}}, "verify-derivation")
    with pytest.raises(ConfigError, match="jw_sites"):
        validate_config({"verify": {"jw_sites": 9}}, "verify-derivation")


def test_model_params_construction():
    cfg = validate_config({"model": {"N": 12, "J0": 1.5, "R0": 0.5,
                                     "h": [0.1] * 12}}, "simulate")
    p = model_params(cfg)
    assert isinstance(p, XXZParams)
    assert p.N == 12 and p.J0 == 1.5
    assert p.h == (0.1,) * 12
    cfg2 = validate_config({"model": {"family": "hubbard", "N": 6,
                                      "t": 0.8, "U": 2.0},
                            "equation": "hubbard-lattice"}, "simulate")
    q = model_params(cfg2)
    assert isinstance(q, HubbardParams)
    assert q.t == 0.8
    assert q.U == (2.0, 2.0, 2.0, 2.0, 2.0, 2.0)


def test_load_config_errors(tmp_path):
    good = tmp_path / "ok.json"
    good.write_text(json.dumps({"model": {"N": 8}}))
    assert load_config(str(good)) == {"model": {"N": 8}}
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="root"):
        load_config(str(arr))


def test_ill_typed_and_out_of_range_numbers_rejected_with_path():
    with pytest.raises(ConfigError, match=r"integrator\.dt must be a finite number"):
        validate_config({"integrator": {"dt": "abc"}}, "simulate")
    with pytest.raises(ConfigError, match=r"model\.s must be above 0"):
        validate_config({"model": {"s": -1}}, "simulate")
    with pytest.raises(ConfigError, match=r"model\.h\[1\]"):
        validate_config({"model": {"N": 6, "h": [0.0, "x", 0, 0, 0, 0]}}, "simulate")
    with pytest.raises(ConfigError, match=r"initial\.width"):
        validate_config({"initial": {"profile": "gaussian", "width": None}}, "simulate")
    with pytest.raises(ConfigError, match=r"study\.s_values\[0\]"):
        validate_config({"study": {"kind": "truncation", "s_values": [0.0]}}, "study")
    with pytest.raises(ConfigError, match=r"study\.M"):
        validate_config({"study": {"kind": "truncation", "M": 100}}, "study")
    # a mismatch only the parameter object can see still names its section:
    # a study does not read model.N, but its parameter object still needs 2 sites
    cfg = validate_config({"model": {"N": 1}, "study": {"kind": "truncation"}}, "study")
    with pytest.raises(ConfigError, match=r"^model: need at least 2 sites, got N=1$"):
        model_params(cfg)


def test_lattice_models_validate_exactly_when_their_parameters_build():
    # --dry-run rejects what the run rejects: on both lattice families a model
    # section passes validation exactly when its parameter object builds.
    # model.N stays at or above the CLI's floor, which the library does not have.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    numbers = st.one_of(st.integers(-2, 2), st.floats(-2.0, 2.0))
    scalars = {"xxz": ("J0", "J1", "R0", "R1", "s", "x_xi", "hbar"), "hubbard": ("t", "hbar")}

    @st.composite
    def models(draw):
        family = draw(st.sampled_from(sorted(scalars)))
        model = {"family": family, "N": draw(st.integers(MIN_CLI_SITES, 8))}
        for key in scalars[family]:
            if draw(st.booleans()):
                model[key] = draw(numbers)
        field = "h" if family == "xxz" else "U"
        if draw(st.booleans()):
            model[field] = draw(st.one_of(numbers, st.lists(numbers, max_size=9)))
        return model

    @settings(max_examples=300, deadline=None)
    @given(model=models())
    def check(model):
        run = {"equation": f"{model['family']}-lattice", "model": model}
        try:
            resolved = validate_config(run, "simulate")
        except ConfigError:
            # the same model with the run's defaults filled in
            defaults = validate_config({**run, "model": {"family": model["family"]}},
                                       "simulate")
            resolved = {"model": {**defaults["model"], **model}}
            with pytest.raises(ConfigError):
                model_params(resolved)
        else:
            model_params(resolved)

    check()


CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs",
                                        "*.json")))
_FAMILIES = {"xxz-lattice": "xxz", "hubbard-lattice": "hubbard", "pretransform": "xxz",
             "precursor": "xxz", "gp": None, "coupled-gp": "hubbard"}
_BASES = [
    *(("study" if "study" in cfg else "simulate", cfg)
      for cfg in map(load_config, CONFIGS)),
    ("simulate", {}), ("verify-derivation", {}),
    ("study", {"study": {"kind": "continuum-limit"}}),
    ("study", {"study": {"kind": "truncation"}}),
    *(("simulate", {"equation": eq, **({"model": {"family": fam}} if fam else {})})
      for eq, fam in _FAMILIES.items()),
]


@pytest.mark.parametrize("command,base", _BASES)
def test_resolved_config_validates_to_itself(command, base):
    resolved = validate_config(base, command)
    assert validate_config(resolved, command) == resolved


def _paths(cfg):
    """Each top-level key of cfg and the dotted path of each key in a section."""
    paths = []
    for section, value in cfg.items():
        paths.append(section)
        if isinstance(value, dict):
            paths += [f"{section}.{key}" for key in value]
    return paths


def test_accepted_mutations_validate_to_themselves():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    paths = sorted({p for command, base in _BASES
                    for p in _paths(validate_config(base, command))})
    values = st.one_of(
        st.none(), st.booleans(), st.integers(-2, 600), st.floats(-10.0, 5000.0),
        st.sampled_from(["xxz", "hubbard", "gp", "coupled-gp", "pretransform", "rk45",
                         "strang", "wick", "truncation", "gaussian", "uniform",
                         "plane-wave", "file", "x.npy"]),
        st.lists(st.sampled_from([8, 16, 32, 64, 40.0, 400.0]), max_size=4),
        st.just({}), st.just({"profile": "zero"}))

    @settings(max_examples=400, deadline=None)
    @given(base=st.sampled_from(_BASES), path=st.sampled_from(paths), value=values)
    def check(base, path, value):
        command, cfg = base[0], copy.deepcopy(base[1])
        section, _, key = path.partition(".")
        if key:
            cfg[section] = {**cfg.get(section, {}), key: value}
        else:
            cfg[section] = value
        try:
            resolved = validate_config(cfg, command)
        except ConfigError:
            return
        assert validate_config(resolved, command) == resolved

    check()
