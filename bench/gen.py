"""Seeded synthetic tower exports for the gnbdim benchmark.

Every input the program under test sees is written here, before any
timing starts, together with a manifest of facts the generator knows by
construction: rows per reject reason, rows kept after each filter, and
the window that holds the most weight. The output checks in ``run.py``
compare the program's outputs against that manifest, never against the
code under test.

Positions are drawn per tile: a record's lon/lat is placed between 10 %
and 90 % of its tile's extent, so the tile it falls into does not depend
on floating-point detail of the projection.

Usage: python3 bench/gen.py --workload export-clean --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import copy
import gzip
import json
import math
from pathlib import Path

import numpy as np

HEADER = (
    "radio,mcc,net,area,cell,unit,lon,lat,range,samples,"
    "changeable,created,updated,averageSignal"
)
EARTH_RADIUS_KM = 6371.0088
KM_PER_DEG = EARTH_RADIUS_KM * math.pi / 180.0
ORIGIN_LON, ORIGIN_LAT = -87.95, 41.60
REJECT_REASONS = ("BadShape", "BadRadio", "BadNumeric", "BadCoordinate")

# Reference urban scenario: FR1 at 3.5 GHz, one 100 MHz eMBB part,
# deep-indoor margins; grid, window, filters and traffic are per workload.
BASE_CONFIG = {
    "nr": {
        "fr": "FR1", "carrier_ghz": 3.5, "channel_bw_mhz": 100,
        "guard_fraction": 0.1,
        "bwps": [{"mu": 1, "bw_mhz": 100, "purpose": "embb"}],
    },
    "link_budget": {
        "tx_power_dbm": 43.0, "tx_antenna_gain_dbi": 17.0, "tx_losses_db": 3.0,
        "rx_antenna_gain_dbi": 0.0, "rx_losses_db": 0.0, "noise_figure_db": 7.0,
        "required_sinr_db": 20.0, "shadow_margin_db": 9.0,
        "penetration_margin_db": 33.0, "sensitivity_prbs": 1,
    },
    "propagation": {"kind": "free_space"},
    "traffic": {
        "demand_per_sub_mbps": 1.0, "target_load": 1.0, "se_bps_per_hz": 4.0,
        "overhead_fraction": 0.14, "subs_per_weight": 1.0,
    },
    "balance": {
        "eps_radius": 0.10, "eps_load": 0.05, "max_iter": 100,
        "damping": 0.5, "eta": 0.6,
    },
    "cost": {
        "capex_per_site": 100000.0, "capex_amortization_years": 10.0,
        "opex_per_site_per_year": 10000.0, "duty_fraction": 0.35,
    },
}

# Per-workload shape. Sizes are fixed so that every seed does the same
# amount of work; only positions, weights and the reject mix move.
SPECS = {
    "export-clean": dict(
        rows=100_000, n_cols=40, n_rows=40, tile_km=1.0, window=(7, 7),
        hotspots=3, hotspot_share=0.6, hotspot_sigma=3.0, outside_share=0.01,
        radio_mix={"LTE": 0.80, "NR": 0.10, "GSM": 0.05, "UMTS": 0.05},
        radio_filter="LTE", target_rho=400.0,
    ),
    "wide-grid": dict(
        rows=20_000, n_cols=4000, n_rows=4000, tile_km=0.1, window=(300, 300),
        clusters=6, cluster_tiles=20, outside_share=0.01,
        radio_mix={"LTE": 1.0}, radio_filter="LTE", target_rho=100.0,
    ),
    "ingest-dirty-gz": dict(
        rows=100_000, reject_share=0.08,
        radio_mix={"LTE": 0.70, "NR": 0.15, "GSM": 0.10, "CDMA": 0.05},
        plmn_mix={("310", "260"): 0.60, ("310", "410"): 0.25,
                  ("311", "480"): 0.10, ("310", "8"): 0.05},
        radio_filter="LTE", plmn_filter="310260",
        extent_deg=1.0, bbox_frac=(0.15, 0.15, 0.85, 0.85),
    ),
    "scenario-sweep": dict(
        rows=400, n_cols=30, n_rows=30, tile_km=1.0, window=(10, 10),
        hotspots=2, hotspot_share=0.7, hotspot_sigma=4.0, outside_share=0.0,
        radio_mix={"LTE": 1.0}, configs=1000,
    ),
}


def best_window(rows, cols, weights, n_rows, n_cols, w, h):
    """Exhaustive max-weight window search over sparse tile weights.

    Returns (row0, col0, weight) of the first maximum in row-major anchor
    order. Only anchors with row0 == 0 or row0 + h - 1 on an occupied row
    (and likewise for columns) can be that first maximum: any other
    anchor can move one tile south or west without losing weight. Every
    such anchor is summed directly.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    ur, ri = np.unique(rows, return_inverse=True)
    uc, ci = np.unique(cols, return_inverse=True)
    dense = np.zeros((len(ur), len(uc)), dtype=np.int64)
    np.add.at(dense, (ri, ci), weights)

    def anchors(occupied, size, limit):
        cand = {0} | {int(v) - size + 1 for v in occupied}
        return sorted(a for a in cand if 0 <= a <= limit - size)

    best = (0, 0, -1)
    for r0 in anchors(ur, h, n_rows):
        i0, i1 = np.searchsorted(ur, [r0, r0 + h])
        band = dense[i0:i1].sum(axis=0)
        for c0 in anchors(uc, w, n_cols):
            j0, j1 = np.searchsorted(uc, [c0, c0 + w])
            s = int(band[j0:j1].sum())
            if s > best[2]:
                best = (r0, c0, s)
    return best


def _lonlat(col_f, row_f, tile_km):
    """Grid coordinates (in tiles) to lon/lat, rounded to 1e-7 degrees."""
    x = col_f * tile_km
    y = row_f * tile_km
    lon = ORIGIN_LON + x / (KM_PER_DEG * math.cos(math.radians(ORIGIN_LAT)))
    lat = ORIGIN_LAT + y / KM_PER_DEG
    return np.round(lon, 7), np.round(lat, 7)


def _choice(rng, mix, n):
    keys = list(mix)
    idx = rng.choice(len(keys), size=n, p=np.array([mix[k] for k in keys]))
    return [keys[i] for i in idx]


def _tiles(rng, spec, n):
    """Tile (row, col) per record: hotspots over uniform, or tight clusters."""
    n_rows, n_cols = spec["n_rows"], spec["n_cols"]
    if "clusters" in spec:
        side = spec["cluster_tiles"]
        corners_r = rng.integers(0, n_rows - side, size=spec["clusters"])
        corners_c = rng.integers(0, n_cols - side, size=spec["clusters"])
        which = rng.integers(0, spec["clusters"], size=n)
        row = corners_r[which] + rng.integers(0, side, size=n)
        col = corners_c[which] + rng.integers(0, side, size=n)
        return row, col
    centres = rng.uniform(0, [n_rows, n_cols], size=(spec["hotspots"], 2))
    hot = rng.random(n) < spec["hotspot_share"]
    which = rng.integers(0, spec["hotspots"], size=n)
    jitter = rng.normal(0, spec["hotspot_sigma"], size=(n, 2))
    row = np.where(hot, centres[which, 0] + jitter[:, 0], rng.uniform(0, n_rows, n))
    col = np.where(hot, centres[which, 1] + jitter[:, 1], rng.uniform(0, n_cols, n))
    row = np.clip(np.floor(row), 0, n_rows - 1).astype(np.int64)
    col = np.clip(np.floor(col), 0, n_cols - 1).astype(np.int64)
    return row, col


def _valid_fields(rng, n, radios, plmns, lon, lat):
    """Fields of n valid rows as lists of strings, in header order."""
    area = rng.integers(1, 65535, size=n)
    cell = rng.integers(0, 1 << 28, size=n)
    rng_m = rng.integers(50, 5000, size=n)
    samples = rng.integers(1, 200, size=n)
    created = rng.integers(1_500_000_000, 1_600_000_000, size=n)
    updated = created + rng.integers(0, 100_000_000, size=n)
    signal = rng.integers(-120, -50, size=n)
    no_signal = rng.random(n) < 0.3
    out = []
    for i in range(n):
        mcc, net = plmns[i]
        out.append([
            radios[i], mcc, net, str(area[i]), str(cell[i]), "",
            repr(float(lon[i])), repr(float(lat[i])), str(rng_m[i]),
            str(samples[i]), "1", str(created[i]), str(updated[i]),
            "" if no_signal[i] else str(signal[i]),
        ])
    return out, samples


def _break_row(rng, fields, reason):
    """Turn a valid row into one rejected for ``reason`` (first failure wins)."""
    f = list(fields)
    if reason == "BadShape":
        return f[:-1] if rng.random() < 0.5 else f + ["x"]
    if reason == "BadRadio":
        f[0] = ["WIFI", "lte", "5G", ""][rng.integers(4)]
    elif reason == "BadNumeric":
        k = rng.integers(5)
        if k == 0:
            f[1] = "31a"          # mcc
        elif k == 1:
            f[3] = "70000"        # area beyond 16 bits
        elif k == 2:
            f[8] = "far"          # range
        elif k == 3:
            f[9] = "-3"           # samples
        else:
            f[12] = "soon"        # updated
    else:
        k = rng.integers(4)
        if k == 0:
            f[7] = "95.5"
        elif k == 1:
            f[6] = "-190.25"
        elif k == 2:
            f[6] = "nan"
        else:
            f[7] = "north"
    return f


def _write_csv(path, rows, gz=False):
    text = HEADER + "\n" + "".join(",".join(r) + "\n" for r in rows)
    data = text.encode("utf-8")
    if gz:
        with gzip.GzipFile(path, "wb", compresslevel=6, mtime=0) as fh:
            fh.write(data)
    else:
        path.write_bytes(data)


def _grid_workload(name, spec, seed, out):
    rng = np.random.default_rng([seed, 1])
    n = spec["rows"]
    tile_km = spec["tile_km"]
    row, col = _tiles(rng, spec, n)
    outside = rng.random(n) < spec["outside_share"]
    # Out-of-grid records sit one or two tiles beyond the east edge.
    col = np.where(outside, spec["n_cols"] + rng.integers(1, 3, size=n), col)
    lon, lat = _lonlat(col + rng.uniform(0.1, 0.9, n), row + rng.uniform(0.1, 0.9, n), tile_km)
    radios = _choice(rng, spec["radio_mix"], n)
    plmns = [("310", "260")] * n
    rows_text, samples = _valid_fields(rng, n, radios, plmns, lon, lat)

    keep = np.array([r == spec.get("radio_filter", r) for r in radios])
    inside = keep & ~outside
    r0, c0, weight = best_window(
        row[inside], col[inside], samples[inside],
        spec["n_rows"], spec["n_cols"], *spec["window"],
    )
    csv_path = out / "export.csv"
    _write_csv(csv_path, rows_text)
    manifest = {
        "workload": name,
        "seed": seed,
        "input": csv_path.name,
        "rows": n,
        "reject_reasons": {},
        "rows_kept": n,
        "kept_after": {"radio": int(keep.sum())},
        "outside_grid": int((keep & outside).sum()),
        "window": {"row0": r0, "col0": c0, "total_weight": float(weight)},
    }
    grid = {"origin_lon": ORIGIN_LON, "origin_lat": ORIGIN_LAT,
            "n_cols": spec["n_cols"], "n_rows": spec["n_rows"], "tile_km": tile_km}
    w, h = spec["window"]
    area_km2 = w * h * tile_km**2
    return manifest, grid, area_km2, weight


def _config(grid, window, radio, subs_per_weight):
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["grid"] = grid
    cfg["window"] = {"w_cols": window[0], "h_rows": window[1]}
    cfg["filters"] = {"radio": radio, "plmn": None, "bbox": None}
    cfg["traffic"]["subs_per_weight"] = subs_per_weight
    return cfg


def gen_dimension(name, seed, out):
    spec = SPECS[name]
    manifest, grid, area_km2, weight = _grid_workload(name, spec, seed, out)
    # Scale weight to a fixed subscriber density so the plan (and its
    # site count) is the same size on every seed.
    cfg = _config(grid, spec["window"], spec["radio_filter"],
                  spec["target_rho"] * area_km2 / weight)
    cfg["input"] = str(out / manifest["input"])
    cfg["out"] = str(out / "out")
    (out / "config.json").write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    manifest["config"] = "config.json"
    return manifest


def gen_ingest(name, seed, out):
    spec = SPECS[name]
    rng = np.random.default_rng([seed, 2])
    n = spec["rows"]
    ext = spec["extent_deg"]
    lon = np.round(ORIGIN_LON + rng.uniform(0, ext, n), 7)
    lat = np.round(ORIGIN_LAT + rng.uniform(0, ext, n), 7)
    radios = _choice(rng, spec["radio_mix"], n)
    plmns = _choice(rng, spec["plmn_mix"], n)
    rows_text, _ = _valid_fields(rng, n, radios, plmns, lon, lat)

    # An exact, evenly split count of rejects so every seed has the same mix.
    n_rej = round(spec["reject_share"] * n)
    bad_idx = rng.permutation(n)[:n_rej]
    reasons = {}
    bad = np.zeros(n, dtype=bool)
    for k, i in enumerate(bad_idx):
        reason = REJECT_REASONS[k % len(REJECT_REASONS)]
        rows_text[i] = _break_row(rng, rows_text[i], reason)
        reasons[reason] = reasons.get(reason, 0) + 1
        bad[i] = True

    f = spec["bbox_frac"]
    bbox = (round(ORIGIN_LON + f[0] * ext, 7), round(ORIGIN_LAT + f[1] * ext, 7),
            round(ORIGIN_LON + f[2] * ext, 7), round(ORIGIN_LAT + f[3] * ext, 7))
    radio_ok = np.array([r == spec["radio_filter"] for r in radios]) & ~bad
    plmn_ok = np.array([
        mcc + net.zfill(2) == spec["plmn_filter"] for mcc, net in plmns
    ])
    bbox_ok = (bbox[0] <= lon) & (lon <= bbox[2]) & (bbox[1] <= lat) & (lat <= bbox[3])

    gz_path = out / "export.csv.gz"
    _write_csv(gz_path, rows_text, gz=True)
    return {
        "workload": name,
        "seed": seed,
        "input": gz_path.name,
        "rows": n,
        "reject_reasons": dict(sorted(reasons.items())),
        "rows_kept": n - n_rej,
        "kept_after": {
            "radio": int(radio_ok.sum()),
            "radio+plmn": int((radio_ok & plmn_ok).sum()),
            "radio+plmn+bbox": int((radio_ok & plmn_ok & bbox_ok).sum()),
        },
        "filters": {"radio": spec["radio_filter"], "plmn": spec["plmn_filter"],
                    "bbox": ",".join(repr(v) for v in bbox)},
    }


def sweep_configs(seed, grid, window, area_km2, weight, n):
    """Seeded closed-loop configs, stratified so every seed has the same mix.

    Each varied knob takes one value from each of n equal-width strata, in
    a seeded order, so the total work of a sweep barely moves with the
    seed. Infeasible configs (5 %) ask more of one subscriber than a cell
    carries, or leave no path-loss budget; both must raise InfeasibleError.
    """
    rng = np.random.default_rng([seed, 4])

    def strata(lo, hi):
        return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n

    rho = np.exp(strata(math.log(20.0), math.log(3000.0)))
    eta = strata(0.3, 0.9)
    damping = strata(0.3, 0.9)
    role = rng.permutation(n) % 40
    configs = []
    for i in range(n):
        cfg = _config(grid, window, None, float(rho[i] * area_km2 / weight))
        cfg["balance"]["eta"] = float(eta[i])
        cfg["balance"]["damping"] = float(damping[i])
        if i % 2:
            cfg["propagation"] = {"kind": "abg", "alpha": 22.0, "beta_db": 30.0,
                                  "gamma": 2.0}
        infeasible = role[i] < 2
        if role[i] == 0:
            cfg["traffic"]["demand_per_sub_mbps"] = 1e7
        elif role[i] == 1:
            cfg["link_budget"]["tx_power_dbm"] = -100.0
        elif role[i] == 2:
            # damping 1 with eta 0.99 makes the load iteration 2-cycle.
            cfg["balance"]["eta"] = 0.99
            cfg["balance"]["damping"] = 1.0
        configs.append({"config": cfg, "infeasible": bool(infeasible)})
    return configs


def gen_sweep(name, seed, out):
    spec = SPECS[name]
    manifest, grid, area_km2, weight = _grid_workload(name, spec, seed, out)
    configs = sweep_configs(seed, grid, spec["window"], area_km2, weight, spec["configs"])
    (out / "configs.json").write_text(json.dumps(configs), encoding="utf-8")
    manifest["configs"] = "configs.json"
    manifest["infeasible"] = sum(c["infeasible"] for c in configs)
    return manifest


GENERATORS = {
    "export-clean": gen_dimension,
    "wide-grid": gen_dimension,
    "ingest-dirty-gz": gen_ingest,
    "scenario-sweep": gen_sweep,
}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's inputs under ``out``; return and save the manifest."""
    out.mkdir(parents=True, exist_ok=True)
    manifest = GENERATORS[workload](workload, seed, out)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    return manifest


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    print(json.dumps(generate(args.workload, args.seed, args.out), indent=2))


if __name__ == "__main__":
    main()
