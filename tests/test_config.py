import copy
import functools
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnbdim.balance import MAX_ITER
from gnbdim.config import ABSENT, REQUIRED, SCHEMA, load_config, load_config_dict
from gnbdim.density import EARTH_RADIUS_KM, MIN_TILE_KM
from gnbdim.errors import ConfigError
from gnbdim.ingest import RADIOS
from gnbdim.nr import prb_count

from conftest import BASE_CONFIG, set_key


class TestLoadConfig:
    def test_base_config_loads(self, base_config_dict):
        cfg = load_config_dict(base_config_dict)
        assert cfg.nr_config.fr.band == "FR1"
        assert cfg.nr_config.bwps[0].n_prb == 250
        assert cfg.link.tx_power_dbm == 43.0
        assert cfg.propagation.kind == "free_space"
        assert cfg.traffic.demand_per_sub_mbps == 1.0
        assert cfg.grid.n_cols == 7
        assert cfg.w_cols == 7 and cfg.h_rows == 7

    def test_defaults_materialize(self, base_config_dict):
        del base_config_dict["balance"]
        base_config_dict["cost"].pop("duty_fraction")
        cfg = load_config_dict(base_config_dict)
        assert cfg.thresholds.eps_radius == 0.10
        assert cfg.thresholds.eps_load == 0.05
        assert cfg.thresholds.max_iter == 100
        assert cfg.thresholds.damping == 0.5
        assert cfg.thresholds.eta == 0.6
        assert cfg.duty_fraction == 0.35
        assert cfg.subs_per_weight == 1.0
        assert cfg.sensitivity_prbs == 1

    def test_echo_round_trips(self, base_config_dict):
        cfg = load_config_dict(base_config_dict)
        again = load_config_dict(cfg.to_dict())
        assert again == cfg
        assert again.to_dict() == cfg.to_dict()

    def test_missing_section_named(self, base_config_dict):
        del base_config_dict["traffic"]
        with pytest.raises(ConfigError, match="traffic"):
            load_config_dict(base_config_dict)

    def test_missing_key_named(self, base_config_dict):
        del base_config_dict["link_budget"]["tx_power_dbm"]
        with pytest.raises(ConfigError, match="tx_power_dbm"):
            load_config_dict(base_config_dict)

    def test_invalid_value_is_config_error(self, base_config_dict):
        base_config_dict["traffic"]["target_load"] = 0.0
        with pytest.raises(ConfigError):
            load_config_dict(base_config_dict)

    def test_inconsistent_frequency_range(self, base_config_dict):
        base_config_dict["nr"]["carrier_ghz"] = 28.0
        with pytest.raises(ConfigError):
            load_config_dict(base_config_dict)

    def test_unsupported_bandwidth(self, base_config_dict):
        base_config_dict["nr"]["bwps"][0]["bw_mhz"] = 37
        with pytest.raises(ConfigError):
            load_config_dict(base_config_dict)

    def test_prb_override_table(self, base_config_dict):
        base_config_dict["nr"]["prb_overrides"] = [
            {"bw_mhz": 100, "mu": 1, "n_prb": 273}
        ]
        cfg = load_config_dict(base_config_dict)
        assert cfg.nr_config.bwps[0].n_prb == 273

    def test_allowed_bandwidth_override(self, base_config_dict):
        base_config_dict["nr"]["allowed_bandwidths"] = {"FR1": [37, 100]}
        base_config_dict["nr"]["bwps"][0]["bw_mhz"] = 37
        base_config_dict["nr"]["channel_bw_mhz"] = 100
        cfg = load_config_dict(base_config_dict)
        assert cfg.nr_config.bwps[0].bw_mhz == 37
        # The echo keeps the table, so it reloads.
        echo = cfg.to_dict()
        assert echo["nr"]["allowed_bandwidths"] == {"FR1": [37, 100]}
        assert load_config_dict(echo).nr_config.bwps[0].bw_mhz == 37

    def test_grid_rows_span_at_most_360_degrees_of_longitude(self, base_config_dict):
        # At 60° a degree of longitude is 55.6 km, so 20000 km span 359.7°.
        base_config_dict["grid"].update(origin_lat=60.0, n_cols=20000)
        assert load_config_dict(base_config_dict).grid.n_cols == 20000
        base_config_dict["grid"]["n_cols"] = 20100
        with pytest.raises(ConfigError, match=r"^grid\.n_cols \* tile_km spans 361\.5"):
            load_config_dict(base_config_dict)

    def test_filters_parsed(self, base_config_dict):
        base_config_dict["filters"] = {
            "radio": "LTE",
            "plmn": "310260",
            "bbox": [-88.0, 41.0, -87.0, 42.0],
        }
        cfg = load_config_dict(base_config_dict)
        assert cfg.radio == "LTE"
        assert str(cfg.plmn) == "310260"
        assert cfg.bbox == (-88.0, 41.0, -87.0, 42.0)

    @pytest.mark.parametrize("plmn", ["310260", "20801", "00000", "999999", "001001"])
    def test_plmn_kept_as_given(self, base_config_dict, plmn):
        # Digits stay a string: a 2-digit MNC keeps its leading zero.
        cfg = load_config_dict(set_key(base_config_dict, "filters.plmn", plmn))
        assert cfg.plmn == plmn
        assert load_config_dict(cfg.to_dict()).plmn == plmn

    def test_bounds_admit_their_edges(self, base_config_dict):
        # The first bandwidth part holds 250 PRBs; the smallest tile above
        # MIN_TILE_KM still gives exact tile indices.
        set_key(base_config_dict, "link_budget.sensitivity_prbs", 250)
        set_key(base_config_dict, "grid.tile_km", MIN_TILE_KM * (1 + 2**-52))
        set_key(base_config_dict, "balance.max_iter", MAX_ITER)
        # 277 PRBs of 360 kHz take 99.72 MHz of the part's 100 MHz.
        set_key(base_config_dict, "nr.prb_overrides", [{"bw_mhz": 100, "mu": 1, "n_prb": 277}])
        cfg = load_config_dict(base_config_dict)
        assert cfg.sensitivity_prbs == 250
        assert cfg.grid.tile_km > MIN_TILE_KM
        assert cfg.thresholds.max_iter == MAX_ITER
        assert cfg.nr_config.bwps[0].n_prb == 277

    def test_cost_multiplier_applied(self, base_config_dict):
        base_config_dict["cost"]["cost_multiplier"] = 2.0
        cfg = load_config_dict(base_config_dict)
        assert cfg.cost.capex_per_site == 200000.0
        assert cfg.cost.opex_per_site_per_year == 20000.0
        # The echo carries the per-site costs and the multiplier as given,
        # so reloading it changes nothing.
        echo = cfg.to_dict()["cost"]
        assert echo["capex_per_site"] == 100000.0
        assert echo["cost_multiplier"] == 2.0
        assert load_config_dict(cfg.to_dict()).cost == cfg.cost

    def test_file_loading(self, base_config_dict, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(base_config_dict), encoding="utf-8")
        cfg = load_config(path)
        assert cfg == load_config_dict(base_config_dict)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_document_is_not_changed(self, base_config_dict):
        before = copy.deepcopy(base_config_dict)
        load_config_dict(base_config_dict)
        assert base_config_dict == before


# (dotted key to set, value, text the error must contain: the key, or more)
DEFECTS = [
    ("balance.eps_lod", 0.05, "balance.eps_lod"),
    ("sneaky", {"a": 1}, "sneaky"),
    ("balance.eps_load", float("nan"), "balance.eps_load"),
    ("balance.max_iter", True, "balance.max_iter"),
    ("link_budget.tx_power_dbm", "43", "link_budget.tx_power_dbm"),
    ("grid.tile_km", float("inf"), "grid.tile_km"),
    ("grid.tile_km", 1e200, "grid.tile_km"),
    ("grid.tile_km", 1e-155, "grid.tile_km"),  # every tower outside, area_km2 subnormal
    ("grid.tile_km", 1e-200, "grid.tile_km"),  # area_km2 0.0
    ("grid.origin_lat", 95, "grid.origin_lat"),
    ("grid.origin_lat", 90, "grid.origin_lat"),  # project() divides by cos(90°)
    ("grid.origin_lat", -90.0, "grid.origin_lat"),
    ("grid.origin_lat", 89.99, "grid.n_rows"),  # 7 rows of 1 km end past the pole
    ("grid.origin_lon", -180.5, "grid.origin_lon"),
    ("grid.n_cols", 40000, "grid.n_cols"),  # 40000 km of longitude at 41.8°: 482.6°
    ("grid", {"origin_lon": 0, "origin_lat": 60, "n_cols": 40000, "n_rows": 1},
     "grid.n_cols"),  # the row would end at longitude 719.5
    ("grid.n_cols", 7.9, "grid.n_cols"),
    ("input", 5, "input"),
    ("filters.bbox", [float("nan"), 0, 1, 1], "filters.bbox[0]"),
    ("filters.bbox", [1, 0, 0, 1], "filters.bbox"),  # min_lon > max_lon
    ("filters.bbox", [0, 1, 1, 0], "filters.bbox"),  # min_lat > max_lat
    ("window.w_cols", 8, "window.w_cols"),  # wider than the 7-column grid
    ("window.h_rows", 8, "window.h_rows"),
    ("window.w_cols", 0, "window.w_cols"),
    ("filters.radio", "lte", "filters.radio"),
    ("filters.plmn", "31A26", "filters.plmn"),
    ("filters.plmn", "1234", "filters.plmn"),
    ("filters.plmn", "1234567", "filters.plmn"),
    ("filters.plmn", "", "filters.plmn"),
    ("filters.plmn", "١٢٣٤٥", "filters.plmn"),  # Arabic-Indic digits
    ("filters.plmn", 310260, "filters.plmn"),
    ("nr.bwps", "x", "nr.bwps must be a list"),  # not "missing nr.bwps[0].mu"
    ("nr.carrier_ghz", 10**400, "nr.carrier_ghz"),
    # Outside its range's carriers (TS 38.104 Table 5.1-1).
    ("nr.carrier_ghz", 0.1, "nr.carrier_ghz must be in [0.41, 7.125] GHz for FR1, got 0.1"),
    ("nr.carrier_ghz", 7.2, "nr.carrier_ghz must be in [0.41, 7.125] GHz for FR1, got 7.2"),
    ("nr", {**BASE_CONFIG["nr"], "fr": "FR2", "carrier_ghz": 6.5},
     "nr.carrier_ghz must be in [24.25, 71.0] GHz for FR2, got 6.5"),
    ("nr", {**BASE_CONFIG["nr"], "fr": "FR2", "carrier_ghz": 72},
     "nr.carrier_ghz must be in [24.25, 71.0] GHz for FR2, got 72"),
    # The PRB count derived from a part's bandwidth overflows, or is 0.
    ("nr.bwps", [{"mu": 1, "bw_mhz": 1e305}],
     "nr.bwps[0]: cannot convert float infinity to integer"),
    ("nr.bwps", [{"bw_mhz": 1e-300, "mu": 1}],
     "nr.bwps[0]: no PRB fits: 1e-300 MHz at mu=1 with guard 0.1"),
    ("nr.guard_fraction", 1, "nr.guard_fraction must be in [0, 1), got 1"),
    ("link_budget.sensitivity_prbs", 0, "link_budget.sensitivity_prbs"),
    # More PRBs than the first bandwidth part holds (250 at mu 1, 100 MHz).
    ("link_budget.sensitivity_prbs", 251, "link_budget.sensitivity_prbs"),
    # An integer key given as a huge float is shown as written, not as 309 digits.
    ("link_budget.sensitivity_prbs", 1e308, "link_budget.sensitivity_prbs must be in "
     "[1, nr.bwps[0].n_prb] = [1, 250], got 1e+308"),
    ("link_budget.sensitivity_prbs", -1e308, "link_budget.sensitivity_prbs must be >= 1, "
     "got -1e+308"),
    ("window.w_cols", 1e308, "window.w_cols must be in [1, grid.n_cols] = [1, 7], got 1e+308"),
    ("balance.max_iter", 1e308, "balance.max_iter must be in [1, 1000000], got 1e+308"),
    ("balance.max_iter", 1000001, "balance.max_iter must be in [1, 1000000], got 1000001"),
    ("nr.bwps", [{"mu": 1e308, "bw_mhz": 100}], "nr.bwps[0].mu must be in [0, 4], got 1e+308"),
    ("nr.bwps", [{"n_prb": 1e308, "mu": 1, "bw_mhz": 100}],
     "nr.bwps[0].n_prb must be a PRB count that fits 100 MHz at mu=1, got 1e+308"),
    ("nr.prb_overrides", [{"bw_mhz": 100, "mu": 1, "n_prb": 1e308}],
     "nr.prb_overrides[0].n_prb must be a PRB count that fits 100 MHz at mu=1, got 1e+308"),
    ("nr.prb_overrides", [{"n_prb": 278, "bw_mhz": 100, "mu": 1}],  # 100.08 MHz of PRBs
     "nr.prb_overrides[0].n_prb must be a PRB count that fits 100 MHz at mu=1, got 278"),
    # A MAPL at zero interference margin past the path loss at 100 km.
    ("link_budget.tx_power_dbm", 1e300, "link_budget gives a MAPL of 1e+300 dB"),
    ("link_budget.tx_power_dbm", 90, "link_budget gives a MAPL of 153.437 dB at zero "
     "interference margin, over the 143.331 dB path loss at 100 km and 3500 MHz"),
    ("propagation", {"kind": "abg", "alpha": 15, "beta_db": 0, "gamma": 0},
     "over the 75 dB path loss at 100 km"),
    # An infinite subscribers-per-cell count or cell capacity.
    ("traffic.demand_per_sub_mbps", 1e-310, "traffic.demand_per_sub_mbps"),
    ("traffic.se_bps_per_hz", 1.7e308, "traffic.se_bps_per_hz"),
    # A cell capacity that rounds to 0.0 Mbps.
    ("traffic",
     {**BASE_CONFIG["traffic"], "se_bps_per_hz": 5e-324, "overhead_fraction": 0.9999999},
     "traffic.se_bps_per_hz"),
    ("cost.cost_multiplier", 0, "cost.cost_multiplier"),
    ("cost.duty_fraction", 1.5, "cost.duty_fraction"),
    ("traffic.target_load", 0, "traffic.target_load"),
    ("propagation.alpha", 35, "propagation.alpha"),  # free_space takes no ABG terms
    ("propagation.beta_db", 10, "propagation.beta_db"),
    ("propagation.gamma", 3, "propagation.gamma"),
    ("traffic.subs_per_weight", 0, "traffic.subs_per_weight"),
    ("nr.allowed_bandwidths", {"fr1": [37, 100]}, "nr.allowed_bandwidths.fr1"),
    ("nr.allowed_bandwidths.FR1", [], "nr.allowed_bandwidths.FR1 must be a non-empty list"),
    ("nr.allowed_bandwidths.FR2", [], "nr.allowed_bandwidths.FR2 must be a non-empty list"),
    # channel_bw_mhz 0 takes the widest channel of the table: max() of nothing.
    ("nr", {**BASE_CONFIG["nr"], "channel_bw_mhz": 0, "allowed_bandwidths": {"FR1": []}},
     "nr.allowed_bandwidths.FR1 must be a non-empty list"),
    ("nr.allowed_bandwidths.FR1", [-5, 100], "nr.allowed_bandwidths.FR1[0] must be > 0"),
    ("nr.allowed_bandwidths.FR1", [100, 0], "nr.allowed_bandwidths.FR1[1] must be > 0"),
]


@pytest.mark.parametrize(
    "dotted, value, named", DEFECTS, ids=[f"{d}={v!r:.12}" for d, v, _ in DEFECTS]
)
def test_defect_is_config_error_naming_the_key(base_config_dict, dotted, value, named):
    with pytest.raises(ConfigError, match=re.escape(named)):
        load_config_dict(set_key(base_config_dict, dotted, value))


# --- the echo of any valid document reloads to the same configuration -------

def _num(lo: float, hi: float):
    """Finite numbers in [lo, hi], as JSON ints or floats."""
    return st.one_of(st.integers(math.ceil(lo), math.floor(hi)), st.floats(lo, hi))


# Keys with a default, any of which a document may leave out.
DEFAULTED = [
    "nr.guard_fraction", "nr.channel_bw_mhz", "link_budget.tx_losses_db",
    "link_budget.sensitivity_prbs", "propagation.beta_db", "traffic.target_load",
    "traffic.subs_per_weight", "balance.eps_radius", "balance.max_iter",
    "balance.eta", "cost.duty_fraction", "grid.tile_km", "input", "out",
]


@st.composite
def documents(draw) -> dict:
    """Valid configuration documents, with every optional part of the schema."""
    doc = copy.deepcopy(BASE_CONFIG)
    allowed = draw(st.booleans())
    bws = draw(st.lists(st.sampled_from([5, 10, 20, 40, 50, 100]),
                        min_size=1, max_size=2 if allowed else 1))
    channel = sum(bws)
    parts, overrides = [], []
    for bw in bws:
        mu = draw(st.integers(0, 3))
        fits = int(bw * 1e6 // (12 * 15e3 * 2**mu))
        part = {"mu": mu, "bw_mhz": bw, "purpose": draw(st.sampled_from(["", "embb", "urllc"]))}
        if draw(st.booleans()):
            part["n_prb"] = draw(st.integers(1, fits))
        if draw(st.booleans()):
            overrides.append({"bw_mhz": bw, "mu": mu, "n_prb": draw(st.integers(1, fits))})
        parts.append(part)
    doc["nr"] = {
        "fr": "FR1",
        "carrier_ghz": draw(_num(0.5, 6.0)),
        "channel_bw_mhz": draw(st.sampled_from([0, channel])),
        "guard_fraction": draw(_num(0.0, 0.3)),
        "bwps": parts,
    }
    if allowed:
        doc["nr"]["allowed_bandwidths"] = {"FR1": sorted({*bws, channel})}
    if overrides:
        doc["nr"]["prb_overrides"] = overrides
    doc["link_budget"]["tx_power_dbm"] = draw(_num(20, 50))
    doc["link_budget"]["tx_losses_db"] = draw(_num(0, 5))
    # sensitivity_prbs fits in the first part's PRBs, whichever source sets
    # them: the part's own n_prb, an override, or the guard formula at any
    # guard_fraction drawn here or defaulted (at most 0.3).
    bw, mu = parts[0]["bw_mhz"], parts[0]["mu"]
    least = min([parts[0].get("n_prb", 5), prb_count(bw, mu, 0.3)]
                + [o["n_prb"] for o in overrides if (o["bw_mhz"], o["mu"]) == (bw, mu)])
    doc["link_budget"]["sensitivity_prbs"] = draw(st.integers(1, min(5, least)))
    # The budget's MAPL stays under the path loss at 100 km: at most 119.4 dB
    # here (50 dBm, one PRB at mu 0), against at least 126 dB for free space
    # at 0.5 GHz and 5 * 27 - 9 dB for ABG.
    if draw(st.booleans()):
        doc["propagation"] = {"kind": "abg", "alpha": draw(_num(27, 40)),
                              "beta_db": draw(_num(0, 40)), "gamma": draw(_num(0, 3))}
    doc["traffic"]["target_load"] = draw(_num(0.1, 1))
    doc["traffic"]["subs_per_weight"] = draw(_num(0.1, 10))
    doc["balance"] = {
        "eps_radius": draw(_num(0.01, 1)), "eps_load": draw(_num(0.001, 1)),
        "max_iter": draw(st.integers(1, 500)), "damping": draw(_num(0.01, 1)),
        "eta": draw(_num(0, 0.99)),
    }
    doc["cost"]["capex_per_site"] = draw(_num(0, 1e6))
    doc["cost"]["duty_fraction"] = draw(st.floats(0.01, 1))
    doc["cost"]["cost_multiplier"] = draw(st.floats(0.01, 100).filter(lambda x: x != 1))
    n_cols, n_rows = draw(st.integers(1, 50)), draw(st.integers(1, 50))
    tile_km = draw(_num(0.1, 5))
    # The grid's north edge stays short of the pole, and its rows span at
    # most 360 degrees of longitude (within widest_lat), also when tile_km
    # is left out below and defaults to 1 km.
    km_per_deg = EARTH_RADIUS_KM * (math.pi / 180.0)
    span_deg = n_rows * max(tile_km, 1.0) / km_per_deg
    width_km = n_cols * max(tile_km, 1.0)
    widest_lat = math.degrees(math.acos(width_km / (360 * km_per_deg)))
    origin_lat = draw(
        _num(-widest_lat, min(widest_lat, 90 - span_deg))
        .filter(lambda lat: lat + span_deg < 90)
        .filter(lambda lat: width_km / (km_per_deg * math.cos(lat * (math.pi / 180.0))) <= 360)
    )
    doc["grid"] = {
        "origin_lon": draw(_num(-180, 180)), "origin_lat": origin_lat,
        "n_cols": n_cols, "n_rows": n_rows, "tile_km": tile_km,
    }
    doc["window"] = {"w_cols": draw(st.integers(1, n_cols)),
                     "h_rows": draw(st.integers(1, n_rows))}
    lons = sorted(draw(st.lists(st.floats(-180, 180), min_size=2, max_size=2)))
    lats = sorted(draw(st.lists(st.floats(-90, 90), min_size=2, max_size=2)))
    doc["filters"] = {
        "radio": draw(st.sampled_from(RADIOS)),
        "plmn": draw(st.sampled_from(["310260", "20801", "001001"])),
        "bbox": [lons[0], lats[0], lons[1], lats[1]],
    }
    doc["input"] = draw(st.text(max_size=8))
    doc["out"] = draw(st.one_of(st.none(), st.text(max_size=8)))
    for dotted in draw(st.sets(st.sampled_from(DEFAULTED))):
        *sections, key = dotted.split(".")
        target = doc
        for name in sections:
            target = target[name]
        target.pop(key, None)
    return doc


@settings(max_examples=150, deadline=None)
@given(documents())
def test_echo_reloads_to_the_same_config(doc):
    cfg = load_config_dict(doc)
    echo = json.loads(json.dumps(cfg.to_dict()))  # as summary.json carries it
    again = load_config_dict(echo)
    assert again == cfg
    # NrConfig.allowed does not take part in ==, so the echoes are compared too.
    assert again.to_dict() == cfg.to_dict()
    assert ("allowed_bandwidths" in echo["nr"]) == ("allowed_bandwidths" in doc["nr"])


def _stored_defaults(rows, prefix=""):
    """(dotted key, kind, default) of each default stored without its kind.

    Sections and lists of sections are partials whose rows or item kind
    is their first argument; their keys are followed down.
    """
    for name, (kind, default) in rows.items():
        inner = kind
        while isinstance(inner, functools.partial):
            inner = inner.args[0]
            if isinstance(inner, dict):
                yield from _stored_defaults(inner, f"{prefix}{name}.")
                break
        if not (default is REQUIRED or default is ABSENT or isinstance(default, dict)):
            yield prefix + name, kind, default


def test_stored_defaults_are_fixed_points_of_their_kind():
    # A default is stored as it is, so the echo holds the same bytes only
    # if its kind would give back the same value of the same type.
    stored = list(_stored_defaults(SCHEMA))
    assert {"nr.bwps.purpose", "filters.bbox", "balance.max_iter", "input"} <= {
        key for key, _, _ in stored
    }
    for key, kind, default in stored:
        resolved = kind(default, key)
        assert resolved == default and type(resolved) is type(default), key
