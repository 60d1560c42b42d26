"""Run configuration: one JSON document, one section per model.

The schema is written down once, in :data:`SCHEMA`: every section, key,
type and default. One walk over it rejects unknown keys, checks types
strictly (finite numbers, no booleans as numbers, no fractional values
for integers, strings where strings are expected) and fills in defaults.
The model dataclasses are built from the resolved document and check
their own value ranges; every error names the offending dotted key. The
resolved document is echoed into the summary report, so a run can be
reproduced from its own output.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable

from . import balance, capacity, coverage, density, economics, ingest, nr
from .errors import ConfigError, GnbdimError
from .identifiers import parse_plmn

REQUIRED = object()  # default of a key that must be given
ABSENT = object()  # default of a key left out, of the echo too, unless given

# A value type: takes the value and its dotted key, returns the typed
# value or raises ConfigError.
Kind = Callable[[Any, str], Any]

_FLOAT_MAX = sys.float_info.max


def _bad(key: str, what: str, value: Any) -> ConfigError:
    return ConfigError(f"{key} must be {what}, got {value!r}")


def number(value: Any, key: str) -> int | float:
    """A finite JSON number, kept as given (int or float); not a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad(key, "a number", value)
    # False for NaN, infinities and integers beyond the float range.
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        raise _bad(key, "finite", value)
    return value


def real(value: Any, key: str) -> float:
    return float(number(value, key))


def integer(value: Any, key: str) -> int:
    """A number without fractional part, as an int."""
    value = number(value, key)
    if isinstance(value, float):
        if not value.is_integer():
            raise _bad(key, "an integer", value)
        value = int(value)
    return value


def text(value: Any, key: str) -> str:
    if not isinstance(value, str):
        raise _bad(key, "a string", value)
    return value


def optional(kind: Kind) -> Kind:
    """``kind`` or JSON null."""
    return lambda value, key: None if value is None else kind(value, key)


def checked(kind: Kind, ok: Callable[[Any], bool], what: str) -> Kind:
    """``kind``, restricted to the values for which ``ok`` holds."""

    def check(value: Any, key: str) -> Any:
        value = kind(value, key)
        if not ok(value):
            raise _bad(key, what, value)
        return value

    return check


def one_of(*choices: str) -> Kind:
    return checked(text, lambda value: value in choices, f"one of {', '.join(choices)}")


def list_of(kind: Kind, length: int | None = None) -> Kind:
    """A JSON array of ``kind`` items, of the given length if there is one."""

    def check(value: Any, key: str) -> list:
        if not isinstance(value, list) or (length is not None and len(value) != length):
            raise _bad(key, "a list" if length is None else f"a list of {length}", value)
        return [kind(item, f"{key}[{i}]") for i, item in enumerate(value)]

    return check


def mapping(kind: Kind) -> Kind:
    """A JSON object with free keys and ``kind`` values."""

    def check(value: Any, key: str) -> dict:
        if not isinstance(value, dict):
            raise _bad(key, "an object", value)
        return {name: kind(item, f"{key}.{name}") for name, item in value.items()}

    return check


def section(rows: dict[str, tuple[Kind, Any]]) -> Kind:
    """A JSON object with the keys of ``rows``: name -> (kind, default)."""
    return lambda value, key: _walk(rows, value, key)


def _walk(rows: dict[str, tuple[Kind, Any]], value: Any, key: str) -> dict:
    """``value`` checked against ``rows``, defaults filled in: the resolved object.

    Defaults pass through their kind too, so a default section resolves
    to all of its own defaults.
    """
    if not isinstance(value, dict):
        raise _bad(key or "config root", "an object", value)
    prefix = f"{key}." if key else ""
    for name in value:
        if name not in rows:
            raise ConfigError(f"unknown config key {prefix}{name}")
    resolved = {}
    for name, (kind, default) in rows.items():
        if name in value:
            resolved[name] = kind(value[name], prefix + name)
        elif default is REQUIRED:
            raise ConfigError(f"missing config key {prefix}{name}")
        elif default is not ABSENT:
            resolved[name] = kind(default, prefix + name)
    return resolved


FILTERS = {
    "radio": (optional(one_of(*(radio.value for radio in ingest.Radio))), None),
    "plmn": (optional(text), None),
    "bbox": (optional(list_of(real, 4)), None),  # [min_lon, min_lat, max_lon, max_lat]
}

# The whole schema. Numbers typed `number` are echoed as given, `real`
# ones as floats. Value ranges are checked by the model dataclasses,
# except for keys that exist only in the config.
SCHEMA = {
    "nr": (section({
        "fr": (text, REQUIRED),
        "carrier_ghz": (number, REQUIRED),
        "channel_bw_mhz": (real, 0.0),  # 0: the widest allowed channel
        "guard_fraction": (number, nr.DEFAULT_GUARD_FRACTION),
        "allowed_bandwidths": (mapping(list_of(number)), ABSENT),
        "prb_overrides": (list_of(section({
            "bw_mhz": (number, REQUIRED),
            "mu": (integer, REQUIRED),
            "n_prb": (integer, REQUIRED),
        })), ABSENT),
        "bwps": (list_of(section({
            "mu": (integer, REQUIRED),
            "bw_mhz": (number, REQUIRED),
            "n_prb": (integer, ABSENT),  # echoed as resolved
            "purpose": (text, ""),
        })), REQUIRED),
    }), {}),
    "link_budget": (section({
        "tx_power_dbm": (number, REQUIRED),
        "tx_antenna_gain_dbi": (number, 0.0),
        "tx_losses_db": (number, 0.0),
        "rx_antenna_gain_dbi": (number, 0.0),
        "rx_losses_db": (number, 0.0),
        "noise_figure_db": (number, REQUIRED),
        "required_sinr_db": (number, REQUIRED),
        "shadow_margin_db": (number, 0.0),
        "penetration_margin_db": (number, 0.0),
        "sensitivity_prbs": (checked(integer, lambda n: n >= 1, ">= 1"), 1),
    }), {}),
    "propagation": (section({
        "kind": (text, REQUIRED),
        "alpha": (number, 0.0),
        "beta_db": (number, 0.0),
        "gamma": (number, 0.0),
    }), {}),
    "traffic": (section({
        "demand_per_sub_mbps": (number, REQUIRED),
        "target_load": (number, 1.0),
        "se_bps_per_hz": (number, REQUIRED),
        "overhead_fraction": (number, capacity.DEFAULT_OVERHEAD_FRACTION),
        "subs_per_weight": (real, 1.0),
    }), {}),
    "balance": (section({
        "eps_radius": (number, 0.10),
        "eps_load": (number, 0.05),
        "max_iter": (integer, 100),
        "damping": (number, 0.5),
        "eta": (number, balance.DEFAULT_ETA),
    }), {}),
    "cost": (section({
        "capex_per_site": (number, REQUIRED),
        "capex_amortization_years": (number, REQUIRED),
        "opex_per_site_per_year": (number, REQUIRED),
        "duty_fraction": (
            checked(real, lambda x: 0 < x <= 1, "in (0, 1]"),
            economics.DEFAULT_DUTY_FRACTION,
        ),
        "cost_multiplier": (checked(real, lambda x: x > 0, "> 0"), 1.0),
    }), {}),
    "grid": (section({
        "origin_lon": (number, REQUIRED),
        "origin_lat": (number, REQUIRED),
        "n_cols": (integer, REQUIRED),
        "n_rows": (integer, REQUIRED),
        "tile_km": (real, 1.0),
    }), {}),
    "window": (section({
        "w_cols": (integer, REQUIRED),
        "h_rows": (integer, REQUIRED),
    }), {}),
    "filters": (section(FILTERS), {}),
    "input": (optional(text), None),
    "out": (optional(text), None),
}


Filters = tuple[ingest.Radio | None, str | None, ingest.Bbox | None]


@dataclass(frozen=True)
class RunConfig:
    nr_config: nr.NrConfig
    link: coverage.LinkBudget
    sensitivity_prbs: int
    propagation: coverage.PropagationModel
    traffic: capacity.TrafficModel
    subs_per_weight: float
    thresholds: balance.BalanceThresholds
    cost: economics.CostModel
    duty_fraction: float
    grid: density.GridSpec
    w_cols: int
    h_rows: int
    radio: ingest.Radio | None
    plmn: str | None  # MCC+MNC digits
    bbox: ingest.Bbox | None
    input_path: str | None
    out_dir: str | None
    resolved: dict = field(compare=False, repr=False)  # the checked document

    def to_dict(self) -> dict:
        """Fully resolved echo; loading this dict reproduces the run."""
        return _copy(self.resolved)


def _copy(value: Any) -> Any:
    """A copy of a JSON value, down to its leaves."""
    if isinstance(value, dict):
        return {key: _copy(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copy(item) for item in value]
    return value


@contextmanager
def _named(where: str, values: dict):
    """Re-raise a model's own check as a ConfigError that names the key.

    Model checks start their message with the field name, which is the
    key in ``values``; other messages are prefixed with the section.
    """
    try:
        yield
    except ConfigError:
        raise
    except (GnbdimError, ValueError, ArithmeticError) as exc:
        message = str(exc)
        sep = "." if message.split(" ", 1)[0] in values else ": "
        raise ConfigError(f"{where}{sep}{message}") from None


def _model(cls: type, resolved: dict, where: str, **changes: Any):
    """The dataclass ``cls`` from the keys of section ``where`` that are its fields."""
    values = resolved[where]
    kwargs = {f.name: values[f.name] for f in fields(cls) if f.name in values}
    with _named(where, values):
        return cls(**{**kwargs, **changes})


def _nr_config(values: dict) -> nr.NrConfig:
    """The NR model; writes the resolved PRB counts and channel into ``values``."""
    allowed = values.get("allowed_bandwidths")
    overrides = {
        (o["bw_mhz"], o["mu"]): o["n_prb"] for o in values.get("prb_overrides", ())
    }
    bwps = []
    with _named("nr", values):
        for part in values["bwps"]:
            # Explicit n_prb on the part wins over the override table, which
            # wins over the guard-fraction derivation.
            bwps.append(nr.bandwidth_part(
                mu=part["mu"],
                bw_mhz=part["bw_mhz"],
                purpose=part["purpose"],
                guard_fraction=values["guard_fraction"],
                n_prb=part.get("n_prb", overrides.get((part["bw_mhz"], part["mu"]))),
            ))
            part["n_prb"] = bwps[-1].n_prb
        cfg = nr.NrConfig(
            fr=nr.FrequencyRange(band=values["fr"], carrier_ghz=values["carrier_ghz"]),
            bwps=tuple(bwps),
            channel_bw_mhz=values["channel_bw_mhz"],
            allowed=None if allowed is None else {k: tuple(v) for k, v in allowed.items()},
        )
    values["channel_bw_mhz"] = cfg.channel_bw_mhz
    return cfg


def _filters(values: dict) -> Filters:
    radio, plmn, bbox = values["radio"], values["plmn"], values["bbox"]
    with _named("filters", values):
        return (
            None if radio is None else ingest.Radio(radio),
            None if plmn is None else parse_plmn(plmn),
            None if bbox is None else tuple(bbox),
        )


def load_filters(values: dict) -> Filters:
    """Radio, PLMN and bbox of a ``filters`` section, checked as in a config."""
    return _filters(_walk(FILTERS, values, "filters"))


def load_config_dict(doc: dict) -> RunConfig:
    """Validate and materialize a configuration document; ``doc`` is not changed."""
    resolved = _walk(SCHEMA, doc, "")
    cost = resolved["cost"]
    multiplier = cost["cost_multiplier"]
    radio, plmn, bbox = _filters(resolved["filters"])
    return RunConfig(
        nr_config=_nr_config(resolved["nr"]),
        link=_model(coverage.LinkBudget, resolved, "link_budget"),
        sensitivity_prbs=resolved["link_budget"]["sensitivity_prbs"],
        propagation=_model(coverage.PropagationModel, resolved, "propagation"),
        traffic=_model(capacity.TrafficModel, resolved, "traffic"),
        subs_per_weight=resolved["traffic"]["subs_per_weight"],
        thresholds=_model(balance.BalanceThresholds, resolved, "balance"),
        cost=_model(
            economics.CostModel, resolved, "cost",
            capex_per_site=cost["capex_per_site"] * multiplier,
            opex_per_site_per_year=cost["opex_per_site_per_year"] * multiplier,
        ),
        duty_fraction=cost["duty_fraction"],
        grid=_model(density.GridSpec, resolved, "grid"),
        w_cols=resolved["window"]["w_cols"],
        h_rows=resolved["window"]["h_rows"],
        radio=radio,
        plmn=plmn,
        bbox=bbox,
        input_path=resolved["input"],
        out_dir=resolved["out"],
        resolved=resolved,
    )


def read_document(path: str | Path) -> Any:
    """The JSON document in the config file at ``path``, not yet checked."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    except (OSError, ValueError) as exc:
        # A directory, no permission, undecodable bytes, an oversized integer.
        raise ConfigError(f"cannot read config file {path}: {exc}") from None


def load_config(path: str | Path) -> RunConfig:
    return load_config_dict(read_document(path))
