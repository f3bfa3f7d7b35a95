import functools
import math

import numpy as np
import pytest

from hirotalab.core import Grid1D, SpectralData, SpectralDatum, SystemParams
from hirotalab import nsoliton, residual

from conftest import centre_perturbed, exactly, plane_wave


def _entries():
    """(derivative, weights, divisor) of every stencil in the table."""
    for entries in residual.STENCILS.values():
        for derivative, (weights, divisor) in entries.items():
            yield derivative, weights, divisor


def test_weights_reproduce_polynomials():
    # at order 2 the weights over their divisors are the values of the
    # Vandermonde moment solve that the table replaced, exactly
    for derivative, solved in ((1, [-0.5, 0.0, 0.5]), (2, [1.0, -2.0, 1.0]), (3, [-0.5, 1.0, 0.0, -1.0, 0.5])):
        weights, divisor = residual.STENCILS[2][derivative]
        assert [c / divisor for c in weights] == solved
    assert residual.STENCILS[4][3] == ((1, -8, 13, 0, -13, 8, -1), 8)
    assert {order: sorted(entries) for order, entries in residual.STENCILS.items()} == {
        2: [1, 2, 3],
        4: [1, 2, 3],
    }


def test_weights_polynomial_exactness():
    # in integer arithmetic: sum_k w_k o_k^p = divisor * (d/dx)^d x^p at 0
    for derivative, weights, divisor in _entries():
        assert len(weights) % 2 == 1
        offsets = range(-(len(weights) // 2), len(weights) // 2 + 1)
        for power in range(len(weights)):
            moment = sum(c * o**power for c, o in zip(weights, offsets))
            assert moment == (divisor * math.factorial(derivative) if power == derivative else 0)


def test_weights_sum_to_zero():
    for _, weights, _ in _entries():
        assert sum(weights) == 0


def test_differentiate_quadratic_exactly():
    g = Grid1D(-1.0, 1.0, 41)
    x = g.points()
    for order in (2, 4):
        d1, d2, d3 = residual.interior_derivatives((x**2).astype(complex), g.spacing, order)
        w = (order + 2) // 2
        assert d1.size == d2.size == d3.size == 41 - 2 * w
        assert np.abs(d1 - 2.0 * x[w:-w]).max() < 1e-10
        assert np.abs(d2 - 2.0).max() < 1e-10
        assert np.abs(d3).max() < 1e-8
        # stacked rows are differentiated along the last axis, each as alone
        rows = np.stack([x**2, x**3]).astype(complex)
        for stacked, d_first, d_second in zip(
            residual.interior_derivatives(rows, g.spacing, order),
            residual.interior_derivatives(rows[0], g.spacing, order),
            residual.interior_derivatives(rows[1], g.spacing, order),
        ):
            assert np.array_equal(stacked, np.stack([d_first, d_second]))


def test_differentiate_constant_is_zero():
    for order in (2, 4):
        for d in residual.interior_derivatives(np.full(25, 2.5 + 1.0j), 3.0 / 24, order):
            assert np.abs(d).max() < 1e-10


@pytest.mark.parametrize("order,band", [(2, (3.5, 4.5)), (4, (14.0, 18.0))])
def test_differentiate_error_ratio(order, band):
    errs = []
    w = (order + 2) // 2
    for nx in (41, 81, 161):
        g = Grid1D(-1.0, 1.0, nx)
        x = g.points()
        d1, _, _ = residual.interior_derivatives(np.exp(1j * x), g.spacing, order)
        errs.append(np.abs(d1 - 1j * np.exp(1j * x[w:-w])).max())
    for i in range(2):
        assert band[0] <= errs[i] / errs[i + 1] <= band[1]


def test_differentiate_grid_too_small():
    for order, least in ((2, 5), (4, 7)):
        residual.interior_derivatives(np.zeros(least, complex), 0.1, order)
        too_small = f"need at least {least} nodes for order {order}, got {least - 1}"
        with pytest.raises(ValueError, match=exactly(too_small)):
            residual.interior_derivatives(np.zeros(least - 1, complex), 0.1, order)


def _analytic(data, p):
    return functools.partial(nsoliton.fields_batch, data, p)


def test_zero_fields_zero_residual(default_params):
    r1, r2 = residual.hirota_residual(np.zeros((3, 2, 101), complex), 0.1, 0.1, default_params, 2)
    assert r1.shape == r2.shape == (101 - 4,)
    assert np.abs(r1).max() == 0.0
    assert np.abs(r2).max() == 0.0


def test_slice_count_must_match_order(default_params):
    zeros = np.zeros((5, 2, 101), complex)
    r1, r2 = residual.hirota_residual(zeros, 0.1, 0.1, default_params, 4)
    assert r1.shape == r2.shape == (101 - 6,)
    with pytest.raises(ValueError, match="5 time slices"):
        residual.hirota_residual(zeros[1:4], 0.1, 0.1, default_params, 4)
    with pytest.raises(ValueError, match="3 time slices"):
        residual.hirota_residual(zeros, 0.1, 0.1, default_params, 2)


def test_order4_residual_converges_at_fourth_order(default_data, third_order_params):
    # the time derivative uses the order-4 stencil too, so order 4 holds in t
    rep1, rep2 = residual.soliton_residual_ladder(
        _analytic(default_data, third_order_params), third_order_params,
        -20.0, 20.0, (0.2, 0.1, 0.05), 0.5, 4,
    )
    assert rep1.estimated_order >= 3.8
    assert rep2.estimated_order >= 3.8


def test_soliton_residual_converges_third_order_sector(default_data, third_order_params):
    rep1, rep2 = residual.soliton_residual_ladder(
        _analytic(default_data, third_order_params), third_order_params,
        -20.0, 20.0, (0.1, 0.05, 0.025), 0.5, 2,
    )
    assert 1.8 <= rep1.estimated_order <= 2.3
    assert 1.8 <= rep2.estimated_order <= 2.3
    assert rep1.sup_norms[0] > rep1.sup_norms[-1]


@pytest.mark.parametrize("n_solitons", [2, 3])
def test_multi_soliton_residual_converges(third_order_params, n_solitons):
    data = SpectralData((
        SpectralDatum(0.3 + 0.45j, 1.0, 0.8, 0.6),
        SpectralDatum(-0.25 + 0.6j, 1.0, 0.5 + 0.3j, 1.1),
        SpectralDatum(0.1 + 0.8j, 1.0, 1.2, -0.4j),
    )[:n_solitons])
    rep1, rep2 = residual.soliton_residual_ladder(
        _analytic(data, third_order_params), third_order_params,
        -20.0, 20.0, (0.1, 0.05, 0.025), 0.5, 2,
    )
    assert rep1.estimated_order >= 1.8
    assert rep2.estimated_order >= 1.8


def test_soliton_residual_plateaus_with_second_order_dispersion(default_data, default_params):
    # the a2 != 0 family is not an exact solution family; the ladder exposes
    # a fixed defect instead of second-order convergence
    rep1, rep2 = residual.soliton_residual_ladder(
        _analytic(default_data, default_params), default_params,
        -20.0, 20.0, (0.1, 0.05, 0.025), 0.5, 2,
    )
    assert rep1.estimated_order < 0.5
    assert min(rep1.sup_norms) > 1e-3


def test_perturbed_field_fails_to_converge(default_data, third_order_params):
    rep1, _ = residual.soliton_residual_ladder(
        centre_perturbed(default_data, third_order_params, 0.5), third_order_params,
        -20.0, 20.0, (0.1, 0.05, 0.025), 0.5, 2,
    )
    assert min(rep1.sup_norms) >= 1e-4
    assert rep1.estimated_order < 0.5


@pytest.mark.parametrize("epsilon,k1", [(1.0, 1.0), (-0.7, 1.3)])
def test_plane_wave_residual_converges(epsilon, k1):
    # at a2 = 0, (A, B) e^{i(kx - wt)} solves the system exactly when
    # w = eps (k^3 - 6 k1^2 (|A|^2 + |B|^2) k); the evaluator is not involved
    p = SystemParams(epsilon=epsilon, k1=k1, a2=0.0)
    amps, k = (0.3 + 0.1j, -0.2j), 0.9
    omega = epsilon * (k**3 - 6.0 * k1 * k1 * (abs(amps[0]) ** 2 + abs(amps[1]) ** 2) * k)
    for order, spacings, least in ((2, (0.1, 0.05, 0.025), 1.8), (4, (0.2, 0.1, 0.05), 3.8)):
        reps = residual.soliton_residual_ladder(
            plane_wave(k, amps, omega), p, -10.0, 10.0, spacings, 0.3, order
        )
        for rep in reps:
            assert least <= rep.estimated_order <= order + 0.3
        # a frequency off by a relative 1e-2 leaves a fixed defect
        reps = residual.soliton_residual_ladder(
            plane_wave(k, amps, omega * 1.01), p, -10.0, 10.0, spacings, 0.3, order
        )
        for rep in reps:
            assert rep.estimated_order < 0.5


def test_convergence_order_exact_ladder():
    rep = residual.convergence_order((0.1, 0.05, 0.025), (1e-2, 2.5e-3, 6.25e-4))
    assert rep.estimated_order == pytest.approx(2.0, abs=0.01)


def test_convergence_order_flat_norms():
    rep = residual.convergence_order((0.1, 0.05, 0.025), (1e-3, 1e-3, 1e-3))
    assert abs(rep.estimated_order) < 1e-12


def test_convergence_order_rejects_bad_ladders():
    short = exactly("need at least three spacings, got 2")
    not_geometric = exactly("spacings must form a decreasing geometric ladder")
    with pytest.raises(ValueError, match=short):
        residual.convergence_order((0.1, 0.05), (1.0, 0.5))
    with pytest.raises(ValueError, match=not_geometric):
        residual.convergence_order((0.1, 0.05, 0.03), (1.0, 0.5, 0.2))
    with pytest.raises(ValueError, match=exactly("need one sup norm per spacing")):
        residual.convergence_order((0.1, 0.05, 0.025), (1.0, 0.5))
    for spacings, kwargs, reason in (
        ((0.1, 0.05), {}, short),
        ((0.1, 0.07, 0.025), {}, not_geometric),
        ((0.025, 0.05, 0.1), {}, not_geometric),
        ((math.inf, 0.1, 0.05), {}, exactly("spacing inf must be positive with a finite h**3")),
        ((0.1, math.nan, 0.025), {}, exactly("spacing nan must be positive with a finite h**3")),
        ((0.1, 0.0, -0.1), {}, exactly("spacing 0.0 must be positive with a finite h**3")),
        ((1e103, 5e102, 2.5e102), {}, exactly("spacing 1e+103 must be positive with a finite h**3")),
        ((0.01,), {"least": 2}, exactly("need at least two spacings, got 1")),
        (
            (1e300, 5e299),
            {"least": 2, "ratio": 2.0},
            exactly("spacing 1e+300 must be positive with a finite h**3"),
        ),
        (
            (0.02, 0.005),
            {"least": 2, "ratio": 2.0},
            exactly("spacings must fall by a ratio of 2 at each rung, got 4"),
        ),
    ):
        with pytest.raises(ValueError, match=reason):
            residual.check_ladder(spacings, **kwargs)
    residual.check_ladder((0.2, 0.1, 0.05, 0.025))
    residual.check_ladder((1e102, 5e101), least=2, ratio=2.0)
    residual.check_ladder((0.2, 0.1, 0.05), least=2, ratio=2.0)


def test_combine_skips_zero_weights():
    # the centre term of the first-derivative stencil is never touched, so
    # an infinite or NaN value there leaves the difference finite
    weights, divisor = residual.stencil(2, 1)
    terms = np.array([[1.0, 2.0], [np.inf, np.nan], [3.0, 6.0]])
    assert residual.combine(weights, divisor, terms).tolist() == [1.0, 2.0]
