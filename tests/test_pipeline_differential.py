"""Differential tests of the serializer and the site lattice.

``dump_json`` must write exactly what ``json.dumps(obj, sort_keys=True,
indent=2) + "\\n"`` writes for the JSON types it takes, and raise
``TypeError`` for any other.
``site_lattice`` must give exactly the sites of the per-point loop it
replaced, kept here as ``reference_lattice``: one ``unproject`` call per
site. For a lattice's sites document ``dump_json`` must write what
``json.dumps`` writes for the dict that ``reference_sites_dict`` builds
from the reference's sites, the writer its template replaced.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gnbdim import pipeline
from gnbdim.density import EARTH_RADIUS_KM, DeploymentArea, GridSpec, unproject
from gnbdim.errors import GnbdimError
from gnbdim.pipeline import dump_json, site_lattice, sites_to_geojson


def _reference_dump(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


# Quotes, backslashes, control characters, DEL, non-ASCII, astral and a
# lone surrogate, next to plain letters.
_AWKWARD = st.sampled_from(list('"\\/\x00\x01\x08\t\n\x0c\r\x1f\x7f\x80é€ \ud800😀 aZ'))
strings = st.one_of(st.text(), st.text(alphabet=_AWKWARD))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**70) | st.integers(max_value=-(2**63) + 2),
    st.floats(),  # NaN, +-inf, -0.0 and subnormals included
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072009e-308]),
    strings,
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(strings, children, max_size=5),
    )


json_values = st.recursive(scalars, _containers, max_leaves=40)


def _nested(depth: int):
    value: object = {}
    for i in range(depth):
        value = [value] if i % 2 else {"k": value, "": []}
    return value


@settings(max_examples=300, deadline=None)
@given(json_values)
@example(_nested(60))
def test_dump_json_matches_json_dumps(value):
    assert dump_json(value) == _reference_dump(value)


@pytest.mark.parametrize("value", [
    (1, 2),
    {"sites": [(0.5, 1.0)]},
    {"site": {1, 2}},
    np.float64(0.1),
    {"x": [np.float64(-0.0)]},
    {1: "a"},
    {1.5: "a"},
    {True: "a"},
    {None: "a"},
    {1: "a", "b": 2},
], ids=["tuple", "nested-tuple", "set", "float64", "nested-float64", "int-key",
        "float-key", "bool-key", "none-key", "mixed-keys"])
def test_dump_json_rejects_types_no_document_holds(value):
    with pytest.raises(TypeError):
        dump_json(value)


_UNIT = GridSpec(origin_lon=-87.7, origin_lat=41.8, n_cols=4, n_rows=4, tile_km=1.0)
_AREA = DeploymentArea(0, 0, 3, 3, total_weight=1.0, area_km2=9.0)


def reference_sites_dict(sites: list[tuple[float, float]], radius_km: float) -> dict:
    """The sites document as a dict, one feature per site."""
    features = [
        {
            "type": "Feature",
            "geometry": {"type": "Point", "coordinates": [lon, lat]},
            "properties": {"site": i, "radius_km": radius_km},
        }
        for i, (lon, lat) in enumerate(sites)
    ]
    return {"type": "FeatureCollection", "features": features}


def reference_lattice(
    area: DeploymentArea, spec: GridSpec, radius_km: float
) -> list[tuple[float, float]]:
    """The site lattice, projected one point at a time."""
    if not math.isfinite(radius_km) or radius_km <= 0:
        return []
    pitch = math.sqrt(3.0) * radius_km
    x0 = area.col0 * spec.tile_km
    y0 = area.row0 * spec.tile_km
    x1 = x0 + area.w_cols * spec.tile_km
    y1 = y0 + area.h_rows * spec.tile_km

    centers = []
    j = 0
    y = y0
    while y <= y1 + 1e-9:
        x = x0 + (pitch / 2.0 if j % 2 else 0.0)
        while x <= x1 + 1e-9:
            centers.append(unproject(x, y, spec))
            x += pitch
        y += 1.5 * radius_km
        j += 1
    return centers


def _bits(sites) -> list[tuple[str, str]]:
    assert all(type(lon) is float and type(lat) is float for lon, lat in sites)
    return [(lon.hex(), lat.hex()) for lon, lat in sites]


@st.composite
def lattices(draw):
    """A grid, a window in it and a radius; some radii put the last row or
    column within about 1e-9 km of the window's edge, on either side."""
    tile_km = draw(st.floats(min_value=0.01, max_value=50.0))
    col0, row0 = draw(st.integers(0, 20)), draw(st.integers(0, 20))
    w_cols, h_rows = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    # GridSpec rejects a grid whose north edge reaches the pole, or whose
    # rows span more than 360 degrees of longitude (beyond widest_lat).
    km_per_deg = EARTH_RADIUS_KM * (math.pi / 180.0)
    span_deg = (row0 + h_rows) * tile_km / km_per_deg
    width_km = (col0 + w_cols) * tile_km
    widest_lat = math.degrees(math.acos(width_km / (360.0 * km_per_deg)))
    spec = GridSpec(
        origin_lon=draw(st.floats(min_value=-180.0, max_value=180.0)),
        origin_lat=draw(
            st.floats(min_value=-widest_lat, max_value=min(widest_lat, 90.0 - span_deg))
            .filter(lambda lat: lat + span_deg < 90.0)
            .filter(lambda lat: width_km / (km_per_deg * math.cos(lat * (math.pi / 180.0))) <= 360)
        ),
        n_cols=col0 + w_cols,
        n_rows=row0 + h_rows,
        tile_km=tile_km,
    )
    area = DeploymentArea(col0, row0, w_cols, h_rows, total_weight=1.0, area_km2=1.0)
    steps = draw(st.integers(1, 20))
    if draw(st.booleans()):
        offset = draw(st.sampled_from([0.0, 5e-10, -5e-10, 9.9e-10, -9.9e-10, 1.1e-9, 2e-9]))
        if draw(st.booleans()):  # the last row lands near the top edge
            radius = (h_rows * tile_km + offset) / (1.5 * steps)
        else:  # the last site of an even row lands near the east edge
            radius = (w_cols * tile_km + offset) / (math.sqrt(3.0) * steps)
    else:
        radius = draw(st.floats(min_value=0.05, max_value=2.0)) * tile_km
    return area, spec, radius


# 1 km tile columns are narrower than half the pitch at radius 1.2 km.
_NARROW = DeploymentArea(0, 0, 1, 4, total_weight=1.0, area_km2=4.0)


@settings(max_examples=300, deadline=None)
@given(lattices())
@example((_AREA, _UNIT, 0.0))  # no site, whatever the radius
@example((_AREA, _UNIT, math.nan))
@example((_AREA, _UNIT, math.inf))
@example((_AREA, _UNIT, np.float64(4.0)))  # one site, at a numpy radius
@example((_NARROW, _UNIT, 1.2))  # three rows, the odd one empty
@example((_AREA, _UNIT, 0.4))  # rows share a lat, every other row its lons
def test_sites_writer_matches_the_dict_reference(case):
    area, spec, radius = case
    expected = _reference_dump(reference_sites_dict(reference_lattice(area, spec, radius), radius))
    assert dump_json(sites_to_geojson(site_lattice(area, spec, radius), radius)) == expected


@settings(max_examples=200, deadline=None)
@given(lattices())
@example((_AREA, _UNIT, 1.0))  # rows at 0, 1.5 and exactly 3.0 km
@example((_AREA, _UNIT, (3.0 + 5e-10) / 3.0))  # last row 5e-10 km past the edge: kept
@example((_AREA, _UNIT, (3.0 + 1.5e-9) / 3.0))  # 1.5e-9 km past: dropped
@example((_AREA, _UNIT, 0.0))
@example((_AREA, _UNIT, math.inf))
@example((_AREA, _UNIT, math.nan))
def test_site_lattice_matches_per_point_projection(case):
    area, spec, radius = case
    lattice = site_lattice(area, spec, radius)
    assert _bits(lattice) == _bits(reference_lattice(area, spec, radius))
    assert len(lattice) == len(list(lattice))


def test_site_lattice_guard_counts_rows_times_columns(monkeypatch):
    # 3 rows (0, 1.5 and 3.0 km) of up to 2 sites (pitch sqrt(3) km): the
    # guard counts 6, though the offset middle row holds one.
    narrow = DeploymentArea(0, 0, 2, 3, total_weight=1.0, area_km2=6.0)
    assert len(site_lattice(narrow, _UNIT, 1.0)) == 5
    monkeypatch.setattr(pipeline, "MAX_SITES", 6)
    assert len(site_lattice(narrow, _UNIT, 1.0)) == 5
    monkeypatch.setattr(pipeline, "MAX_SITES", 5)
    with pytest.raises(GnbdimError, match=r"6 sites \(3 rows of 2\)"):
        site_lattice(narrow, _UNIT, 1.0)
