"""Experiment configuration parsing.

Two interchangeable formats are accepted: a line-oriented ``key = value``
text (lists separated by top-level commas, ``#`` comments) and a JSON object
with the same keys.  The full grammar is documented in the README.  Unknown
keys, out-of-range values, and inconsistent test requirements are rejected
with field-precise messages.

Defaults: biased-coin rho 0.9, rank probabilities (0.8, rest equal),
normal-tail clamp 3, block length floor(sqrt(n)), bootstrap size 500,
alpha 0.05.
"""

import json
import re

from .datagen import CovariateSetting
from .errors import CarlabError, ConfigError, DomainError
from .features import Constant, Identity, Power, Product
from .harness import ExperimentSpec, procedure_preset, validate_spec

__all__ = ["load_config", "parse_procedure", "parse_feature_terms"]

_LIST_KEYS = {"procedures", "metrics", "delta", "working_models", "tests"}
_INT_KEYS = {"n", "treatments", "replicates", "seed", "bootstrap_size"}
_FLOAT_KEYS = {"alpha", "mu0"}
_BOOL_KEYS = {"phi_observable"}
_STR_KEYS = {"kind", "setting", "model", "block_rule"}
_KNOWN_KEYS = _LIST_KEYS | _INT_KEYS | _FLOAT_KEYS | _BOOL_KEYS | _STR_KEYS

_DEFAULT_IMBALANCE_PROCS = ("CR", "SR", "PS", "phi-CAR-Ma", "phi-CAR-BC", "phi-CAR-Con")
_DEFAULT_POWER_PROCS = ("CR", "SR", "PS", "phi-CAR-BC", "phi-CAR-Con")


def _split_top_level(text: str) -> list:
    """Split on commas not nested inside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return [p for p in parts if p]


def _parse_lines(text: str) -> dict:
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in cfg:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        cfg[key] = value.strip()
    return cfg


def _number(key: str, value, conv):
    """``value`` as ``conv`` (int or float); a bool, or a fraction where an
    integer is wanted (``int`` would truncate it), cannot be interpreted."""
    try:
        truncated = conv is int and isinstance(value, float) and not value.is_integer()
        if isinstance(value, bool) or truncated:
            raise ValueError(value)
        return conv(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: cannot interpret value {value!r}") from None


def _coerce(key: str, value):
    if key in _INT_KEYS | _FLOAT_KEYS:
        return _number(key, value, int if key in _INT_KEYS else float)
    if key in _BOOL_KEYS and not isinstance(value, bool):
        v = str(value).strip().lower()
        if v in ("true", "yes", "1"):
            return True
        if v in ("false", "no", "0"):
            return False
        raise ConfigError(f"{key}: cannot interpret value {value!r}")
    return value


_IDENT_RE = re.compile(r"^x(\d+)$")
_PROD_RE = re.compile(r"^x(\d+)\*x(\d+)$")
_POWER_RE = re.compile(r"^x(\d+)\^(-?\d+(?:\.\d+)?)$")


def parse_feature_terms(expr: str) -> tuple:
    """Parse a composite feature expression like ``1+x1+x2+x1*x2+x1^2``.

    Covariate names x1, x2, ... index the observed covariates in order.
    """
    terms = []
    for raw in str(expr).split("+"):
        item = raw.strip().replace(" ", "")
        if not item:
            raise ConfigError(f"feature: empty term in {expr!r}")
        m = _IDENT_RE.match(item)
        if m:
            terms.append(Identity(int(m.group(1)) - 1))
            continue
        m = _PROD_RE.match(item)
        if m:
            terms.append(Product(int(m.group(1)) - 1, int(m.group(2)) - 1))
            continue
        m = _POWER_RE.match(item)
        if m:
            terms.append(Power(int(m.group(1)) - 1, float(m.group(2))))
            continue
        try:
            terms.append(Constant(float(item)))
        except ValueError:
            raise ConfigError(
                f"feature: cannot parse term {item!r}"
                " (use numbers, xK, xJ*xK, or xK^d joined by '+')"
            ) from None
    return tuple(terms)


def parse_procedure(entry, treatments: int):
    """One procedure: a preset name, 'NAME(key=value, ...)', or a JSON object."""
    if isinstance(entry, dict):
        name = entry.get("name")
        if not name:
            raise ConfigError("procedures: object entries need a 'name'")
        overrides = [(k, v) for k, v in entry.items() if k != "name"]
    else:
        entry = str(entry).strip()
        overrides = []
        name = entry
        if "(" in entry:
            if not entry.endswith(")"):
                raise ConfigError(f"procedures: malformed entry {entry!r}")
            name, inner = entry[:-1].split("(", 1)
            name = name.strip()
            for item in _split_top_level(inner):
                if "=" not in item:
                    raise ConfigError(
                        f"procedures: {name}: expected key=value, got {item!r}"
                    )
                k, v = item.split("=", 1)
                overrides.append((k.strip(), v.strip()))
    kwargs = {}
    hh = {}
    given = {}  # parameter -> the name it was first given under
    for k, v in overrides:
        key = f"procedures: {name}: {k}"
        param = "cap" if k in ("D", "K0") else k  # aliases of one parameter
        if param in given:
            aliases = "" if given[param] == k else f" (as {given[param]!r} and {k!r})"
            raise ConfigError(f"procedures: {name}: parameter {param!r} given twice{aliases}")
        given[param] = k
        if k == "rho":
            kwargs["rho"] = _number(key, v, float)
        elif k in ("D", "K0", "cap"):
            kwargs["cap"] = _number(key, v, float)
        elif k == "kappa":
            parts = v if isinstance(v, (list, tuple)) else str(v).split("/")
            kwargs["kappa"] = tuple(_number(key, x, float) for x in parts)
        elif k == "feature":
            try:
                kwargs["terms"] = parse_feature_terms(v)
            except DomainError:  # a term's index below x1
                raise ConfigError(f"{key}: cannot interpret value {v!r}") from None
        elif k in ("w0", "wm", "ws"):
            hh[k] = _number(key, v, float)
        else:
            raise ConfigError(f"procedures: {name}: unknown parameter {k!r}")
    if hh:
        kwargs["hh_weights"] = (hh.get("w0", 1.0), hh.get("wm", 1.0), hh.get("ws", 1.0))
    try:
        return procedure_preset(name, treatments, **kwargs)
    except CarlabError as exc:
        raise ConfigError(f"procedures: {name}: {exc}") from exc


def _parse_setting(value) -> CovariateSetting:
    value = str(value).strip()
    if value.startswith("normals"):
        inner = value[len("normals"):].strip()
        if not (inner.startswith("(") and inner.endswith(")")):
            raise ConfigError("setting: normals needs a mean list, e.g. normals(0,0,0)")
        try:
            means = tuple(float(x) for x in _split_top_level(inner[1:-1]))
        except ValueError:
            raise ConfigError(f"setting: cannot parse means in {value!r}") from None
        try:
            return CovariateSetting(name="normals", means=means)
        except CarlabError as exc:
            raise ConfigError(f"setting: {exc}") from exc
    try:
        return CovariateSetting(name=value)
    except CarlabError as exc:
        raise ConfigError(f"setting: {exc}") from exc


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members; a key given twice is rejected, not overwritten."""
    members = {}
    for key, value in pairs:
        if key in members:
            raise ConfigError(f"duplicate key {key!r}")
        members[key] = value
    return members


def load_config(text: str) -> ExperimentSpec:
    """Parse and fully validate an experiment configuration."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            cfg = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("JSON config must be an object")
    else:
        cfg = _parse_lines(text)

    for key in cfg:
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    cfg = {k: _coerce(k, v) for k, v in cfg.items()}

    kind = cfg.get("kind")
    if kind not in ("imbalance", "power"):
        raise ConfigError(f"kind must be 'imbalance' or 'power', got {kind!r}")
    if "n" not in cfg:
        raise ConfigError("n is required")

    model = cfg.get("model")
    if kind == "power" and model is None:
        raise ConfigError("model is required for power experiments")

    if "setting" in cfg:
        setting = _parse_setting(cfg["setting"])
    elif kind == "imbalance":
        raise ConfigError("setting is required for imbalance experiments")
    else:
        setting = (
            CovariateSetting(name="normals", means=(0.0, 0.0, 0.0))
            if model == "logistic"
            else CovariateSetting(name="S1")
        )

    treatments = cfg.get("treatments", 2)

    def listify(key, default):
        if key not in cfg:
            return default
        v = cfg[key]
        if isinstance(v, str):
            return _split_top_level(v)
        if isinstance(v, (list, tuple)):
            return list(v)
        return [v]

    proc_entries = listify(
        "procedures",
        list(_DEFAULT_IMBALANCE_PROCS if kind == "imbalance" else _DEFAULT_POWER_PROCS),
    )
    procedures = tuple(parse_procedure(e, treatments) for e in proc_entries)

    def num_list(key, default, conv):
        return tuple(_number(key, v, conv) for v in listify(key, list(default)))

    spec = ExperimentSpec(
        kind=kind,
        n=cfg["n"],
        setting=setting,
        procedures=procedures,
        treatments=treatments,
        replicates=cfg.get("replicates", 1000),
        base_seed=cfg.get("seed", 12345),
        metrics=num_list("metrics", range(setting.p_total + 1), int),
        model=model,
        mu0=cfg.get("mu0", 0.0),
        deltas=num_list("delta", (0.0,), float),
        working_models=tuple(str(w) for w in listify("working_models", ["W1", "W2", "W3"] if kind == "power" else [])),
        tests=tuple(str(t) for t in listify("tests", ["t_ls"])),
        alpha=cfg.get("alpha", 0.05),
        block_rule=cfg.get("block_rule", "sqrt"),
        bootstrap_size=cfg.get("bootstrap_size", 500),
        phi_observable=cfg.get("phi_observable", True),
    )
    validate_spec(spec)
    return spec
