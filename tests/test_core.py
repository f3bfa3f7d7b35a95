import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hirotalab.core import (
    Grid1D,
    SampledField,
    SpectralData,
    SpectralDatum,
    SystemParams,
    ValidationError,
    phase,
    trapezoid_mass,
)

from conftest import exactly

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
upper_zeta = st.builds(
    complex, st.floats(min_value=-2.0, max_value=2.0), st.floats(min_value=0.05, max_value=2.0)
)


def test_phase_vanishes_at_origin(default_datum, default_params):
    assert phase(default_datum, default_params, 0.0, 0.0) == 0.0


def test_phase_space_part(default_datum, default_params):
    # (i/2)(0.3 + 0.2i) = -0.1 + 0.15i
    assert abs(phase(default_datum, default_params, 1.0, 0.0) - (-0.1 + 0.15j)) < 1e-15


def test_phase_time_part(default_datum, default_params):
    # hand evaluation of zeta^2 and zeta^3 by repeated multiplication:
    # zeta^2 = 0.05 + 0.12i, zeta^3 = -0.009 + 0.046i
    assert abs(phase(default_datum, default_params, 0.0, 1.0) - (-0.027 - 0.1155j)) < 1e-15


def test_phase_accepts_arrays(default_datum, default_params):
    xs = np.array([0.0, 1.0, 2.0])
    vals = phase(default_datum, default_params, xs, 0.0)
    assert vals.shape == (3,)
    assert abs(vals[1] - (-0.1 + 0.15j)) < 1e-15
    assert abs(vals[2] - 2 * vals[1]) < 1e-15


@given(zeta=upper_zeta, x1=finite, x2=finite, t=finite)
@settings(max_examples=60, deadline=None)
def test_phase_linear_in_x(zeta, x1, x2, t):
    d = SpectralDatum(zeta, 1.0, 1.0, 1.0)
    p = SystemParams(0.7, 1.0, -0.4)
    lhs = phase(d, p, x1 + x2, t) - phase(d, p, 0.0, t)
    rhs = (phase(d, p, x1, t) - phase(d, p, 0.0, t)) + (
        phase(d, p, x2, t) - phase(d, p, 0.0, t)
    )
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


@given(zeta=upper_zeta, t1=finite, t2=finite)
@settings(max_examples=60, deadline=None)
def test_phase_linear_in_t(zeta, t1, t2):
    d = SpectralDatum(zeta, 1.0, 1.0, 1.0)
    p = SystemParams(1.3, 1.0, 0.8)
    lhs = phase(d, p, 0.5, t1 + t2)
    rhs = phase(d, p, 0.5, t1) + phase(d, p, 0.5, t2) - phase(d, p, 0.5, 0.0)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


@given(zeta=upper_zeta, x=finite)
@settings(max_examples=60, deadline=None)
def test_phase_real_part_at_t0(zeta, x):
    d = SpectralDatum(zeta, 1.0, 0.5, 0.5)
    p = SystemParams(1.0, 1.0, 1.0)
    assert abs(2.0 * phase(d, p, x, 0.0).real + zeta.imag * x) < 1e-12 * max(1.0, abs(x))


def test_validate_accepts_default_datum(default_datum, default_params):
    data = SpectralData([default_datum])
    assert data.data == (default_datum,)
    assert SystemParams(default_params.epsilon, default_params.k1, default_params.a2) == default_params


def test_validate_rejects_empty_data():
    # with no datum every factor is the identity and every field zero, which
    # the residual and zero-curvature checks would report as a failed order
    with pytest.raises(ValidationError, match=exactly("spectral data must hold at least one datum")):
        SpectralData(())


def test_validate_rejects_lower_half_plane():
    with pytest.raises(
        ValidationError, match=exactly("spectral datum 0: Im(zeta) must be > 0, got zeta = (0.3-0.2j)")
    ):
        SpectralData((SpectralDatum(0.3 - 0.2j, 1.0, 1.0, 2.0),))


def test_validate_rejects_real_axis_zero():
    with pytest.raises(
        ValidationError, match=exactly("spectral datum 0: Im(zeta) must be > 0, got zeta = (0.3+0j)")
    ):
        SpectralData((SpectralDatum(0.3 + 0.0j, 1.0, 1.0, 2.0),))


def test_validate_rejects_duplicates(default_datum):
    with pytest.raises(ValidationError, match=exactly("spectral data 0 and 1 share the same zeta")):
        SpectralData((default_datum, default_datum))


def test_validate_rejects_zero_vector():
    with pytest.raises(
        ValidationError, match=exactly("spectral datum 0: (alpha, beta, gamma) must be nonzero")
    ):
        SpectralData((SpectralDatum(0.3 + 0.2j, 0.0, 0.0, 0.0),))


def test_validate_rejects_zero_k1():
    with pytest.raises(ValidationError, match=exactly("k1 must be a nonzero finite real")):
        SystemParams(1.0, 0.0, 1.0)


def test_validate_rejects_nonfinite_param():
    with pytest.raises(ValidationError, match="parameter epsilon must be a finite real"):
        SystemParams(math.inf, 1.0, 1.0)
    with pytest.raises(ValidationError, match="spectral datum 0 contains a non-finite entry"):
        SpectralData((SpectralDatum(0.3 + 0.2j, math.nan, 1.0, 2.0),))


def test_construction_refuses_data_the_evaluators_do_not_check(default_datum):
    # fields_batch and jet_at do not check their data: they rely on
    # construction refusing both of these
    with pytest.raises(
        ValidationError, match=exactly("spectral datum 1: Im(zeta) must be > 0, got zeta = (0.3-0.2j)")
    ):
        SpectralData((default_datum, SpectralDatum(0.3 - 0.2j, 1.0, 1.0, 2.0)))
    other = SpectralDatum(0.5 + 0.4j, 1.0, 0.5, 0.5)
    with pytest.raises(ValidationError, match=exactly("spectral data 1 and 2 share the same zeta")):
        SpectralData((other, default_datum, SpectralDatum(0.3 + 0.2j, 1.0, -1.0, 0.5)))


def test_grid_invariants():
    with pytest.raises(ValidationError):
        Grid1D(1.0, 0.0, 10)
    with pytest.raises(ValidationError):
        Grid1D(0.0, 1.0, 1)
    g = Grid1D(-20.0, 20.0, 401)
    assert g.spacing == pytest.approx(0.1)
    pts = g.points()
    assert pts[0] == -20.0 and pts[-1] == 20.0 and len(pts) == 401


@pytest.mark.parametrize("h", [0.0, -0.1, float("nan"), float("inf")])
def test_with_spacing_refuses_a_spacing_not_positive_and_finite(h):
    with pytest.raises(ValidationError, match=exactly(f"spacing must be positive and finite, got {h!r}")):
        Grid1D.with_spacing(-1.0, 1.0, h)


@pytest.mark.parametrize("length, n", [(80.0, 1024), (80.0, 321), (160.0, 2048), (80.0, 3), (0.3, 7)])
def test_periodic_grid_excludes_the_wrap_point(length, n):
    g = Grid1D.periodic(length, n)
    nodes = -0.5 * length + (length / n) * np.arange(n)
    assert g.nx == n and g.x_min == nodes[0] and g.x_max == nodes[-1]
    # the inner nodes are interpolated between the ends, to within rounding
    assert np.abs(g.points() - nodes).max() <= 4 * np.spacing(0.5 * length)
    assert g.spacing * g.nx == pytest.approx(length, rel=1e-15)


def test_field_shape_checks():
    g = Grid1D(0.0, 1.0, 5)
    for shape in ((5,), (3, 5), (2, 4), (1, 5), (5, 2)):
        with pytest.raises(ValidationError):
            SampledField(g, 0.0, np.zeros(shape, complex))
    for bad in (np.inf, np.nan, complex(0.0, -np.inf)):
        values = np.zeros((2, 5), complex)
        values[1, 2] = bad
        with pytest.raises(ValidationError):
            SampledField(g, 0.0, values)
    f = SampledField(g, 0.0, np.ones((2, 5), complex))
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0  # frozen buffer
    with pytest.raises(ValueError):
        f.values[1] += 1.0


def test_field_takes_real_values_as_complex():
    f = SampledField(Grid1D(0.0, 1.0, 3), 0.5, [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    assert f.values.dtype == complex and f.values.shape == (2, 3)


def test_field_freezes_a_complex_array_in_place():
    values = np.ones((2, 3), complex)
    f = SampledField(Grid1D(0.0, 1.0, 3), 0.0, values)
    assert f.values is values and not values.flags.writeable


def test_field_edge_magnitude_reads_both_ends_of_both_rows():
    g = Grid1D(0.0, 1.0, 4)
    values = np.zeros((2, 4), complex)
    assert SampledField(g, 0.0, values.copy()).edge_magnitude() == 0.0
    values[:, 1:3] = 9.0  # interior nodes do not count
    for i, j in ((0, 0), (0, -1), (1, 0), (1, -1)):
        edged = values.copy()
        edged[i, j] = 3.0 - 4.0j
        assert SampledField(g, 0.0, edged).edge_magnitude() == 5.0


def test_trapezoid_mass_constant_field():
    g = Grid1D(0.0, 2.0, 101)
    values = np.zeros((2, 101), complex)
    values[0] = 1.0 + 1.0j
    assert trapezoid_mass(SampledField(g, 0.0, values)) == pytest.approx(4.0, rel=1e-12)
    assert trapezoid_mass(SampledField(g, 0.0, values[::-1])) == pytest.approx(4.0, rel=1e-12)
