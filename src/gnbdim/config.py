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

import functools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from . import balance, capacity, coverage, density, economics, ingest, nr
from .errors import ConfigError, GnbdimError, NegativeMaplError

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
        typed = kind(value, key)
        if not ok(typed):
            raise _bad(key, what, value)  # as written: 1e308, not its 309 digits
        return typed

    return check


def one_of(*choices: str) -> Kind:
    return checked(text, lambda value: value in choices, f"one of {', '.join(choices)}")


def list_of(kind: Kind, length: int | None = None) -> Kind:
    """A JSON array of ``kind`` items, of the given length if there is one.

    A partial, so the item kind reads back as ``args[0]``.
    """
    return functools.partial(_items, kind, length)


def _items(kind: Kind, length: int | None, value: Any, key: str) -> list:
    if not isinstance(value, list) or (length is not None and len(value) != length):
        raise _bad(key, "a list" if length is None else f"a list of {length}", value)
    return [kind(item, f"{key}[{i}]") for i, item in enumerate(value)]


def section(rows: dict[str, tuple[Kind, Any]]) -> Kind:
    """A JSON object with the keys of ``rows``: name -> (kind, default).

    A partial, so the rows read back as ``args[0]``.
    """
    return functools.partial(_walk, rows)


def _walk(rows: dict[str, tuple[Kind, Any]], value: Any, key: str) -> dict:
    """``value`` checked against ``rows``, defaults filled in: the resolved object.

    A default section, ``{}``, is walked too, so it resolves to all of
    its own defaults. Every other default is stored as it is: each is
    already what its kind makes of it, the same value of the same type.
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
        elif isinstance(default, dict):
            resolved[name] = kind(default, prefix + name)
        elif default is not ABSENT:
            resolved[name] = default
    return resolved


FILTERS = {
    "radio": (optional(one_of(*ingest.RADIOS)), None),
    "plmn": (optional(checked(text, ingest.is_plmn, "5 or 6 decimal digits")), None),
    "bbox": (optional(checked(
        list_of(real, 4),
        lambda box: box[0] <= box[2] and box[1] <= box[3],
        "[min_lon, min_lat, max_lon, max_lat] with min <= max",
    )), None),
}

# A table of allowed channel bandwidths in MHz.
BANDWIDTHS = checked(
    list_of(checked(number, lambda bw: bw > 0, "> 0")),
    lambda bws: len(bws) > 0,
    "a non-empty list",
)

# Integer keys whose range is checked here as well as by their model, so
# that an error shows the value as written: 1e308, not its 309 digits.
MU = checked(integer, lambda mu: nr.MU_MIN <= mu <= nr.MU_MAX, f"in [{nr.MU_MIN}, {nr.MU_MAX}]")
N_PRB = checked(integer, lambda n: n >= 1, ">= 1")  # and fits its bandwidth: _nr_config
MAX_ITER = checked(
    integer, lambda n: 1 <= n <= balance.MAX_ITER, f"in [1, {balance.MAX_ITER}]"
)
SENSITIVITY_PRBS = checked(integer, lambda n: n >= 1, ">= 1")  # and fits: load_config_dict

# The whole schema. Numbers typed `number` are echoed as given, `real`
# ones as floats. The keys of a model's section are its fields, less
# LinkBudget.interference_margin_db, and their value ranges are checked by
# the model; the nr section's keys and the integers above are checked here.
SCHEMA = {
    "nr": (section({
        "fr": (text, REQUIRED),
        "carrier_ghz": (number, REQUIRED),
        "channel_bw_mhz": (real, nr.NrConfig.channel_bw_mhz),
        "guard_fraction": (
            checked(number, lambda g: 0 <= g < 1, "in [0, 1)"), nr.DEFAULT_GUARD_FRACTION
        ),
        "allowed_bandwidths": (section({
            "FR1": (BANDWIDTHS, ABSENT),
            "FR2": (BANDWIDTHS, ABSENT),
        }), ABSENT),
        "prb_overrides": (list_of(section({
            "bw_mhz": (number, REQUIRED),
            "mu": (MU, REQUIRED),
            "n_prb": (N_PRB, REQUIRED),
        })), ABSENT),
        "bwps": (list_of(section({
            "mu": (MU, REQUIRED),
            "bw_mhz": (number, REQUIRED),
            "n_prb": (N_PRB, ABSENT),  # echoed as resolved
            "purpose": (text, nr.BandwidthPart.purpose),
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
        "sensitivity_prbs": (SENSITIVITY_PRBS, coverage.LinkBudget.sensitivity_prbs),
    }), {}),
    "propagation": (section({
        "kind": (text, REQUIRED),
        "alpha": (number, coverage.PropagationModel.alpha),
        "beta_db": (number, coverage.PropagationModel.beta_db),
        "gamma": (number, coverage.PropagationModel.gamma),
    }), {}),
    "traffic": (section({
        "demand_per_sub_mbps": (number, REQUIRED),
        "target_load": (number, capacity.TrafficModel.target_load),
        "se_bps_per_hz": (number, REQUIRED),
        "overhead_fraction": (number, capacity.DEFAULT_OVERHEAD_FRACTION),
        "subs_per_weight": (real, capacity.TrafficModel.subs_per_weight),
    }), {}),
    "balance": (section({
        "eps_radius": (number, balance.BalanceThresholds.eps_radius),
        "eps_load": (number, balance.BalanceThresholds.eps_load),
        "max_iter": (MAX_ITER, balance.BalanceThresholds.max_iter),
        "damping": (number, balance.BalanceThresholds.damping),
        "eta": (number, balance.DEFAULT_ETA),
    }), {}),
    "cost": (section({
        "capex_per_site": (number, REQUIRED),
        "capex_amortization_years": (number, REQUIRED),
        "opex_per_site_per_year": (number, REQUIRED),
        "duty_fraction": (real, economics.CostModel.duty_fraction),
        "cost_multiplier": (real, economics.CostModel.cost_multiplier),
    }), {}),
    "grid": (section({
        "origin_lon": (number, REQUIRED),
        "origin_lat": (number, REQUIRED),
        "n_cols": (integer, REQUIRED),
        "n_rows": (integer, REQUIRED),
        "tile_km": (real, density.GridSpec.tile_km),
    }), {}),
    "window": (section({
        "w_cols": (integer, REQUIRED),
        "h_rows": (integer, REQUIRED),
    }), {}),
    "filters": (section(FILTERS), {}),
    "input": (optional(text), None),
    "out": (optional(text), None),
}


Filters = tuple[str | None, str | None, ingest.Bbox | None]


@dataclass(frozen=True)
class RunConfig:
    nr_config: nr.NrConfig
    link: coverage.LinkBudget
    propagation: coverage.PropagationModel
    traffic: capacity.TrafficModel
    thresholds: balance.BalanceThresholds
    cost: economics.CostModel
    grid: density.GridSpec
    w_cols: int
    h_rows: int
    radio: str | None  # a name in ingest.RADIOS
    plmn: str | None  # MCC+MNC digits
    bbox: ingest.Bbox | None
    input_path: str | None
    out_dir: str | None
    resolved: dict = field(compare=False, repr=False)  # the checked document

    def to_dict(self) -> dict:
        """Fully resolved echo; loading this dict reproduces the run. It is
        the config's own document, not a copy: callers must not change it."""
        return self.resolved


# What a model's own check raises: each is re-raised as a ConfigError.
_MODEL_ERRORS = (GnbdimError, ValueError, ArithmeticError)


def _named(exc: Exception, where: str, values: dict) -> ConfigError:
    """A model's own check as a ConfigError that names the key.

    Model checks start their message with the field name, which is the
    key in ``values``; other messages are prefixed with ``where``.
    """
    message = str(exc)
    sep = "." if message.split(" ", 1)[0] in values else ": "
    return ConfigError(f"{where}{sep}{message}")


def _model(cls: type, resolved: dict, where: str):
    """The dataclass ``cls`` from section ``where``, whose keys are its fields."""
    try:
        return cls(**resolved[where])
    except _MODEL_ERRORS as exc:
        raise _named(exc, where, resolved[where]) from None


def _nr_config(values: dict, written: dict) -> nr.NrConfig:
    """The NR model; writes the resolved PRB counts and channel into ``values``.

    ``written`` is the section as the document gives it.
    """
    # BandwidthPart's own check that n_prb PRBs fit bw_mhz at mu, made
    # here so that the error names the key.
    for name in ("prb_overrides", "bwps"):
        for i, entry in enumerate(values.get(name, ())):
            bw_mhz, mu, n_prb = entry["bw_mhz"], entry["mu"], entry.get("n_prb")
            if n_prb is not None and nr.prb_hz(mu) * n_prb > bw_mhz * 1e6:
                what = f"a PRB count that fits {bw_mhz} MHz at mu={mu}"
                raise _bad(f"nr.{name}[{i}].n_prb", what, written[name][i]["n_prb"])
    allowed = values.get("allowed_bandwidths")
    overrides = {
        (o["bw_mhz"], o["mu"]): o["n_prb"] for o in values.get("prb_overrides", ())
    }
    bwps = []
    for i, part in enumerate(values["bwps"]):
        # Explicit n_prb on the part wins over the override table, which
        # wins over the guard-fraction derivation.
        try:
            bwps.append(nr.bandwidth_part(
                mu=part["mu"],
                bw_mhz=part["bw_mhz"],
                purpose=part["purpose"],
                guard_fraction=values["guard_fraction"],
                n_prb=part.get("n_prb", overrides.get((part["bw_mhz"], part["mu"]))),
            ))
        except _MODEL_ERRORS as exc:
            raise _named(exc, f"nr.bwps[{i}]", part) from None
        part["n_prb"] = bwps[-1].n_prb
    try:
        cfg = nr.NrConfig(
            fr=nr.FrequencyRange(band=values["fr"], carrier_ghz=values["carrier_ghz"]),
            bwps=tuple(bwps),
            channel_bw_mhz=values["channel_bw_mhz"],
            allowed=None if allowed is None else {k: tuple(v) for k, v in allowed.items()},
        )
    except _MODEL_ERRORS as exc:
        raise _named(exc, "nr", values) from None
    values["channel_bw_mhz"] = cfg.channel_bw_mhz
    return cfg


def _filters(values: dict) -> Filters:
    bbox = values["bbox"]
    return values["radio"], values["plmn"], None if bbox is None else tuple(bbox)


def flag_number(flag: str) -> float | str:
    """A number given as command-line text, as a float; other text is kept
    as it is, for the schema check to reject with its key."""
    try:
        return float(flag)
    except ValueError:
        return flag


def load_filters(values: dict) -> Filters:
    """Radio, PLMN and bbox of a ``filters`` section, checked as in a config."""
    return _filters(_walk(FILTERS, values, "filters"))


def load_config_dict(doc: dict) -> RunConfig:
    """Validate and materialize a configuration document; ``doc`` is not changed."""
    resolved = _walk(SCHEMA, doc, "")
    radio, plmn, bbox = _filters(resolved["filters"])
    cfg = RunConfig(
        nr_config=_nr_config(resolved["nr"], doc["nr"]),
        link=_model(coverage.LinkBudget, resolved, "link_budget"),
        propagation=_model(coverage.PropagationModel, resolved, "propagation"),
        traffic=_model(capacity.TrafficModel, resolved, "traffic"),
        thresholds=_model(balance.BalanceThresholds, resolved, "balance"),
        cost=_model(economics.CostModel, resolved, "cost"),
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
    # The range errors of integer keys show the value as written in doc,
    # so a float such as 1e308 reads as given, not as its 309 digits.
    for key, limit in (("w_cols", "n_cols"), ("h_rows", "n_rows")):
        n_tiles = getattr(cfg.grid, limit)
        if not 1 <= getattr(cfg, key) <= n_tiles:
            what = f"in [1, grid.{limit}] = [1, {n_tiles}]"
            raise _bad(f"window.{key}", what, doc["window"][key])
    first = cfg.nr_config.bwps[0]  # the sensitivity is taken in this part
    if cfg.link.sensitivity_prbs > first.n_prb:
        what = f"in [1, nr.bwps[0].n_prb] = [1, {first.n_prb}]"
        raise _bad("link_budget.sensitivity_prbs", what, doc["link_budget"]["sensitivity_prbs"])
    # The fixed point's clamp lets the assumed load, and so the interference
    # margin, fall to 0: a budget whose MAPL there is past the path loss at
    # the largest radius can fail mid-run.
    f_mhz = cfg.nr_config.fr.carrier_mhz
    limit_db = coverage.path_loss_db(cfg.propagation, f_mhz, coverage.BRACKET_MAX_KM)
    try:
        mapl = coverage.mapl_db(cfg.link, cfg.link.sensitivity_prbs * nr.prb_hz(first.mu))
    except NegativeMaplError:
        pass  # infeasible, which the run reports with its own exit code
    else:
        if mapl > limit_db:
            raise ConfigError(
                f"link_budget gives a MAPL of {mapl:g} dB at zero interference margin, "
                f"over the {limit_db:g} dB path loss at {coverage.BRACKET_MAX_KM:g} km "
                f"and {f_mhz:g} MHz"
            )
    # The capacity leg floors a cell's subscriber count, so it and the cell
    # capacity must be finite; the plan's utilization divides by the latter.
    traffic = cfg.traffic
    cell_mbps = capacity.cell_capacity_mbps(cfg.nr_config, traffic)
    if not 0 < cell_mbps <= _FLOAT_MAX:
        what = "such that the cell capacity is positive and finite"
        raise _bad("traffic.se_bps_per_hz", what, traffic.se_bps_per_hz)
    if not traffic.target_load * cell_mbps / traffic.demand_per_sub_mbps <= _FLOAT_MAX:
        what = "large enough for a finite number of subscribers per cell"
        raise _bad("traffic.demand_per_sub_mbps", what, traffic.demand_per_sub_mbps)
    return cfg


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object from its pairs; a key given twice is a ConfigError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        names = [name for name, _ in pairs]
        repeated = next(name for name in names if names.count(name) > 1)
        raise ConfigError(f"duplicate config key {repeated}")
    return obj


def read_document(path: str | Path) -> Any:
    """The JSON document in the config file at ``path``, not yet checked."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    except (OSError, ValueError) as exc:
        # A directory, no permission, undecodable bytes, an oversized integer.
        raise ConfigError(f"cannot read config file {path}: {exc}") from None


def load_config(path: str | Path) -> RunConfig:
    return load_config_dict(read_document(path))
