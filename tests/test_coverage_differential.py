"""Differential tests of the closed-form path-loss inversion.

``invert_to_radius`` is one exponent of the ABG model. It must give the
radius that the bisection it replaced gives, ``reference_invert_to_radius``,
to that bisection's own stop tolerance,
and raise the same bracket error, never an ``OverflowError``, for a MAPL
that no radius in the bracket reaches. ``path_loss_db`` is one ABG
expression; it must agree with the two-branch form it replaced,
``reference_path_loss_db``, where free space is written out on its own.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gnbdim.coverage import (
    BRACKET_MAX_KM,
    BRACKET_MIN_KM,
    abg,
    free_space,
    invert_to_radius,
    path_loss_db,
)
from gnbdim.errors import GnbdimError

from reference import BISECTION_REL_TOL, reference_invert_to_radius, reference_path_loss_db


MODELS = st.one_of(
    st.just(free_space()),
    st.builds(abg, st.floats(10.0, 60.0), st.floats(-1e4, 1e4), st.floats(0.0, 4.0)),
)
FREQUENCIES_MHZ = st.floats(100.0, 100_000.0)  # 100 MHz to 100 GHz
DISTANCES_KM = st.floats(BRACKET_MIN_KM, BRACKET_MAX_KM)


@settings(max_examples=300, deadline=None)
@given(model=MODELS, f_mhz=FREQUENCIES_MHZ, d_km=DISTANCES_KM)
@example(model=free_space(), f_mhz=3500.0, d_km=BRACKET_MIN_KM)
@example(model=free_space(), f_mhz=3500.0, d_km=BRACKET_MAX_KM)
@example(model=abg(60.0, -1e4, 4.0), f_mhz=100_000.0, d_km=BRACKET_MIN_KM)
@example(model=abg(10.0, 1e4, 0.0), f_mhz=100.0, d_km=BRACKET_MAX_KM)
def test_closed_form_matches_bisection(model, f_mhz, d_km):
    mapl = path_loss_db(model, f_mhz, d_km)
    reference = reference_invert_to_radius(model, f_mhz, mapl)
    assert abs(invert_to_radius(model, f_mhz, mapl) - reference) <= BISECTION_REL_TOL * reference


@settings(max_examples=300, deadline=None)
@given(model=MODELS, f_mhz=FREQUENCIES_MHZ, d_km=DISTANCES_KM)
@example(model=free_space(), f_mhz=100.0, d_km=BRACKET_MIN_KM)
@example(model=free_space(), f_mhz=100_000.0, d_km=BRACKET_MAX_KM)
def test_path_loss_matches_the_two_branch_form(model, f_mhz, d_km):
    # The two forms differ only in how a few log10 terms round.
    assert math.isclose(
        path_loss_db(model, f_mhz, d_km),
        reference_path_loss_db(model, f_mhz, d_km),
        rel_tol=1e-12,
        abs_tol=1e-10,
    )


@settings(max_examples=200, deadline=None)
@given(model=MODELS, f_mhz=FREQUENCIES_MHZ, mapl=st.floats())
@example(model=free_space(), f_mhz=3500.0, mapl=math.nan)
@example(model=free_space(), f_mhz=3500.0, mapl=-math.inf)
@example(model=free_space(), f_mhz=3500.0, mapl=1e300)
@example(model=abg(10.0, 0.0, 0.0), f_mhz=1000.0, mapl=1e300)
def test_unreachable_mapl_raises_the_bracket_message(model, f_mhz, mapl):
    low = path_loss_db(model, f_mhz, BRACKET_MIN_KM)
    high = path_loss_db(model, f_mhz, BRACKET_MAX_KM)
    assume(not low <= mapl <= high)
    messages = []
    for invert in (invert_to_radius, reference_invert_to_radius):
        with pytest.raises(GnbdimError, match=r"maps outside \[0\.01, 100\.0\] km") as info:
            invert(model, f_mhz, mapl)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
