"""JSON run configuration: loading, validation, defaults.

Configs are plain nested dicts.  Validation is strict: unknown keys
anywhere in the tree are rejected with the dotted path in the message,
so a typo fails fast instead of silently running defaults.
"""

from __future__ import annotations

import json
import math


class ConfigError(ValueError):
    """Bad configuration file or contents."""


_PROFILE_KEYS = {"profile", "amplitude", "width", "center", "mode", "eta",
                 "value", "path"}
# Each profile and the profile keys it reads.
_PROFILES = {"zero": set(), "uniform": {"value"},
             "gaussian": {"amplitude", "width", "center"},
             "plane-wave": {"amplitude", "mode"}, "sech-soliton": {"eta", "center"},
             "file": {"path"}}
_POTENTIALS = {"zero", "uniform", "gaussian"}

_SCHEMA = {
    "model": {"family", "N", "J0", "J1", "R0", "R1", "s", "hbar", "x_xi",
              "h", "t", "U"},
    "grid": {"L", "M"},
    "integrator": {"dt", "t_end", "scheme", "tolerance", "symbol_mode",
                   "snapshot_every"},
    "equation": None,
    "initial": _PROFILE_KEYS,
    "initial2": _PROFILE_KEYS,
    "potential": _PROFILE_KEYS,
    "spacing": None,
    "dispersive_scale": None,
    "study": {"kind", "sizes", "s_values", "L", "t_end", "dt", "grid_refine",
              "M", "profile", "amplitude", "width", "center", "mode", "eta",
              "value", "slope_min", "slope_max", "threads"},
    "verify": {"N", "site", "jw_sites"},
    "out": None,
}

# Each equation and the model family it needs (None: it needs none).
_EQUATIONS = {"xxz-lattice": "xxz", "hubbard-lattice": "hubbard",
              "pretransform": "xxz", "precursor": "xxz",
              "gp": None, "coupled-gp": "hubbard"}
_SPLIT_STEP = {"gp", "coupled-gp"}
_LATTICE = {"xxz-lattice", "hubbard-lattice"}

# Keys that only some commands, equations, schemes, model families or
# study kinds read; given on any other run, they are rejected.  A simulate
# run matches its command, equation, scheme and model family; a study run
# its command, model family and study kind; a verify-derivation run its
# command alone.  A study reads grid.L and integrator.dt as the defaults
# of study.L and study.dt.
_READ_BY = (
    ("model", {"study"} | set(_EQUATIONS) - {"gp"}),
    *((f"model.{key}", {"xxz"}) for key in ("J0", "J1", "R0", "R1", "s", "x_xi", "h")),
    ("model.t", {"hubbard"}),
    ("model.U", {"hubbard"}),
    ("equation", {"simulate"}),
    ("grid", {"study"} | set(_EQUATIONS) - _LATTICE),
    ("grid.M", set(_EQUATIONS) - _LATTICE),
    ("integrator", {"simulate", "study"}),
    ("integrator.t_end", {"simulate"}),
    ("integrator.scheme", {"simulate"}),
    ("integrator.snapshot_every", {"simulate"}),
    ("integrator.symbol_mode", {"xxz-lattice"}),
    ("integrator.tolerance", {"rk45"}),
    ("initial", {"simulate"}),
    ("initial2", {"hubbard-lattice", "coupled-gp"}),
    ("potential", {"pretransform", "precursor", "gp"}),
    ("spacing", {"pretransform"}),
    ("dispersive_scale", {"precursor"}),
    ("study", {"study"}),
    ("study.sizes", {"continuum-limit"}),
    ("study.grid_refine", {"continuum-limit"}),
    ("study.s_values", {"truncation"}),
    ("study.M", {"truncation"}),
    ("verify", {"verify-derivation"}),
)

MIN_CLI_SITES = 5


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _reject_unknown(section: str, value, allowed) -> None:
    if allowed is None:
        return
    if not isinstance(value, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    for key in value:
        if key not in allowed:
            raise ConfigError(f"unknown config key {section}.{key}")


def _number(path: str, value, low=None, strict=False) -> None:
    """Require a finite JSON number, optionally above low (strictly or not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    if low is not None and (value <= low if strict else value < low):
        raise ConfigError(
            f"{path} must be {'above' if strict else 'at least'} {low}, got {value!r}")


def _integer(path: str, value, low=None) -> None:
    if isinstance(value, bool) or not isinstance(value, int) \
            or (low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise ConfigError(f"{path} must be an integer{bound}, got {value!r}")


def _power_of_two(path: str, value, low: int) -> None:
    if type(value) is not int or value < low or value & (value - 1):
        raise ConfigError(f"{path} must be a power of two >= {low}, got {value!r}")


def _numbers(path: str, value) -> None:
    """A number, or a list of numbers (per-site values)."""
    if not isinstance(value, list):
        _number(path, value)
        return
    for i, v in enumerate(value):
        _number(f"{path}[{i}]", v)


def _check_profile(section: str, opts: dict) -> None:
    for key in ("amplitude", "width", "center", "eta", "value"):
        if key in opts:
            _number(f"{section}.{key}", opts[key])
    if "mode" in opts:
        _integer(f"{section}.mode", opts["mode"])
    kind = opts.get("profile", "zero")
    if not isinstance(kind, str) or kind not in _PROFILES:
        raise ConfigError(
            f"{section}.profile must be one of {sorted(_PROFILES)}, got {kind!r}"
        )
    unread = sorted((opts.keys() & _PROFILE_KEYS) - _PROFILES[kind] - {"profile"})
    if unread:
        raise ConfigError(f"{section}.{unread[0]} is not read by profile {kind}")
    if kind == "file" and "path" not in opts:
        raise ConfigError(f"{section}.profile = file requires {section}.path")
    if kind == "file" and not isinstance(opts["path"], str):
        raise ConfigError(f"{section}.path must be a file name, got {opts['path']!r}")


def validate_config(cfg: dict, command: str) -> dict:
    """Return a validated copy of cfg with defaults filled in."""
    for key in cfg:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key}")
    for key, allowed in _SCHEMA.items():
        if key in cfg:
            _reject_unknown(key, cfg[key], allowed)

    out = {k: (dict(v) if isinstance(v, dict) else v) for k, v in cfg.items()}

    model = out.setdefault("model", {})
    model.setdefault("family", "xxz")
    if model["family"] not in ("xxz", "hubbard"):
        raise ConfigError(f"model.family must be xxz or hubbard, got {model['family']!r}")
    model.setdefault("N", 256)
    model.setdefault("hbar", 1.0)
    if model["family"] == "xxz":
        for key, dflt in (("J0", 1.0), ("J1", 0.0), ("R0", 1.0), ("R1", 0.0),
                          ("s", 1.0), ("x_xi", 0.0)):
            model.setdefault(key, dflt)
    else:
        model.setdefault("t", 1.0)
        model.setdefault("U", 1.0)
    n = model["N"]
    _integer("model.N", n)
    for key in ("J0", "J1", "R0", "R1", "x_xi", "t"):
        if key in model:
            _number(f"model.{key}", model[key])
    for key in ("s", "hbar"):
        if key in model:
            _number(f"model.{key}", model[key], 0, strict=True)
    for key in ("h", "U"):
        if key in model:
            _numbers(f"model.{key}", model[key])
    if command in ("simulate", "verify-derivation") and n < MIN_CLI_SITES:
        raise ConfigError(f"model.N must be at least {MIN_CLI_SITES}, got {n}")

    grid = out.setdefault("grid", {})
    grid.setdefault("L", 8.0 * 3.141592653589793)
    grid.setdefault("M", 512)
    _number("grid.L", grid["L"], 0, strict=True)
    _power_of_two("grid.M", grid["M"], 8)

    eq = out.setdefault("equation", "xxz-lattice") if command == "simulate" else None
    if command == "simulate" and (not isinstance(eq, str) or eq not in _EQUATIONS):
        raise ConfigError(f"equation must be one of {sorted(_EQUATIONS)}, got {eq!r}")
    integ = out.setdefault("integrator", {})
    integ.setdefault("dt", 1e-3)
    integ.setdefault("t_end", 1.0)
    integ.setdefault("scheme", "strang" if eq in _SPLIT_STEP else "rk4")
    integ.setdefault("tolerance", 1e-8)
    integ.setdefault("symbol_mode", "naive")
    integ.setdefault("snapshot_every", 0)
    scheme = integ["scheme"]
    if scheme not in ("rk4", "rk45", "strang"):
        raise ConfigError(f"integrator.scheme must be rk4, rk45 or strang, got {scheme!r}")
    if command == "simulate" and (scheme == "strang") != (eq in _SPLIT_STEP):
        raise ConfigError(
            f"integrator.scheme {scheme!r} does not apply to equation {eq}: "
            "gp and coupled-gp take strang, the others rk4 or rk45")
    if integ["symbol_mode"] not in ("naive", "wick"):
        raise ConfigError(
            f"integrator.symbol_mode must be naive or wick, got {integ['symbol_mode']!r}"
        )
    _number("integrator.dt", integ["dt"], 0, strict=True)
    _number("integrator.t_end", integ["t_end"], 0)
    _number("integrator.tolerance", integ["tolerance"], 0, strict=True)
    _integer("integrator.snapshot_every", integ["snapshot_every"], 0)

    if command == "simulate":
        family = _EQUATIONS[eq]
        if family not in (None, model["family"]):
            raise ConfigError(f"equation {eq} requires model.family = {family}")
        for sec in ("initial", "initial2", "potential"):
            if sec in out:
                _check_profile(sec, out[sec])
        out.setdefault("initial", {"profile": "zero"})
        if eq in ("hubbard-lattice", "coupled-gp"):
            out.setdefault("initial2", dict(out["initial"]))
        pot = out.setdefault("potential", {"profile": "zero"})
        if pot.get("profile", "zero") == "file":
            raise ConfigError("potential.profile = file is not supported")
        _number("spacing", out.setdefault("spacing", 1.0), 0, strict=True)
        _number("dispersive_scale", out.setdefault("dispersive_scale", 1.0))

    family = model["family"]
    kind = None
    if command == "study":
        if "study" not in out:
            raise ConfigError("study command requires a study section")
        kind = out["study"].get("kind")
        if kind not in ("continuum-limit", "truncation"):
            raise ConfigError(
                f"study.kind must be continuum-limit or truncation, got {kind!r}"
            )
        if family != "xxz":
            raise ConfigError(f"model.family must be xxz for a study, got {family!r}")
    run, by = {
        "simulate": ((command, eq, scheme, family),
                     f"equation {eq} with scheme {scheme} on model family {family}"),
        "study": ((command, family, kind),
                  f"the study command with kind {kind} on model family {family}"),
    }.get(command, ((command,), f"the {command} command"))
    for path, readers in _READ_BY:
        section, _, key = path.partition(".")
        given = key in cfg.get(section, {}) if key else section in cfg
        if given and readers.isdisjoint(run):
            raise ConfigError(f"{path} is not read by {by}")

    if command == "simulate" and eq not in _LATTICE and integ["snapshot_every"] > 0:
        raise ConfigError(
            f"integrator.snapshot_every must be 0 for equation {eq}: "
            "field.csv holds only the final field")

    if command == "study":
        study = out["study"]
        study.setdefault("L", grid["L"])
        study.setdefault("dt", integ["dt"])
        study.setdefault("profile", "gaussian")
        if study["profile"] == "file":
            raise ConfigError("study.profile 'file' is not usable here")
        _check_profile("study", study)
        _number("study.L", study["L"], 0, strict=True)
        _number("study.dt", study["dt"], 0, strict=True)
        threads = study.get("threads", 1)
        if type(threads) is not int or threads != 1:
            raise ConfigError(f"study.threads must be 1, got {threads!r}")
        if kind == "continuum-limit":
            study.setdefault("sizes", [32, 64, 128, 256])
            study.setdefault("grid_refine", 4)
            study.setdefault("t_end", 0.5)
            study.setdefault("slope_min", 1.7)
            study.setdefault("slope_max", 2.3)
            _power_of_two("study.grid_refine", study["grid_refine"], 1)
            sizes = study["sizes"]
            if not isinstance(sizes, list):
                raise ConfigError(f"study.sizes must be a list, got {sizes!r}")
            for nn in sizes:
                if not isinstance(nn, int) or nn < 8 or nn & (nn - 1):
                    raise ConfigError(
                        f"study.sizes entries must be powers of two >= 8, got {nn!r}"
                    )
            if len(set(sizes)) < 2:
                raise ConfigError(
                    f"study.sizes must hold at least two different sizes, got {sizes!r}")
        else:
            study.setdefault("s_values", [40.0, 126.0, 400.0, 1265.0, 4000.0])
            study.setdefault("M", 256)
            study.setdefault("t_end", 1.0)
            study.setdefault("slope_min", 0.7)
            study.setdefault("slope_max", 1.3)
            _power_of_two("study.M", study["M"], 8)
            if not isinstance(study["s_values"], list):
                raise ConfigError("study.s_values must be a list")
            for i, sv in enumerate(study["s_values"]):
                _number(f"study.s_values[{i}]", sv, 0, strict=True)
            if len(set(study["s_values"])) < 2:
                raise ConfigError(
                    f"study.s_values must hold at least two different values, "
                    f"got {study['s_values']!r}")
        _number("study.t_end", study["t_end"], 0)
        _number("study.slope_min", study["slope_min"])
        _number("study.slope_max", study["slope_max"])

    if command == "verify-derivation":
        ver = out.setdefault("verify", {})
        ver.setdefault("N", 7)
        ver.setdefault("site", None)
        ver.setdefault("jw_sites", 4)
        if ver["site"] is not None:
            _integer("verify.site", ver["site"])
        _integer("verify.N", ver["N"], MIN_CLI_SITES)
        if not isinstance(ver["jw_sites"], int) or not 2 <= ver["jw_sites"] <= 6:
            raise ConfigError("verify.jw_sites must be an integer in [2, 6]")

    return out


def model_params(cfg: dict):
    """Build the frozen parameter object for the validated config."""
    try:
        return _build_params(cfg["model"])
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


def _build_params(model: dict):
    from .models import HubbardParams, XXZParams

    if model["family"] == "hubbard":
        u = model["U"]
        return HubbardParams(
            N=model["N"], t=float(model["t"]),
            U=tuple(float(x) for x in u) if isinstance(u, (list, tuple)) else float(u),
            hbar=float(model["hbar"]),
        )
    h = model.get("h", 0.0)
    if isinstance(h, (list, tuple)):
        h = tuple(float(x) for x in h)
    else:
        h = float(h)
    return XXZParams(
        N=model["N"], J0=float(model["J0"]), J1=float(model["J1"]),
        R0=float(model["R0"]), R1=float(model["R1"]), s=float(model["s"]),
        hbar=float(model["hbar"]), x_xi=float(model["x_xi"]), h=h,
    )
