import ast
import inspect
from math import factorial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import evaluator, exactly, plane_wave

from hirotalab.core import SpectralData, SpectralDatum, SystemParams
from hirotalab import cli, laxpair, residual, rh

cnum = st.builds(
    complex,
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)


def _jet(*values):
    """(3, 2) jet of q1, q2, q1x, q2x, q1xx, q2xx."""
    return np.array(values, dtype=complex).reshape(3, 2)


jets = st.builds(_jet, cnum, cnum, cnum, cnum, cnum, cnum)


def test_space_matrix_free_case(default_params):
    u = laxpair.build_U(_jet(0, 0, 0, 0, 0, 0), 2.0, default_params)
    assert np.array_equal(u, np.diag([-1j, 1j, 1j]))


def test_space_matrix_soliton_entry(default_data, default_params):
    jet = laxpair.jet_at(evaluator(default_data, default_params), 0.0, 0.0, 1e-3)
    u = laxpair.build_U(jet, 0.5, default_params)
    # q1(0,0) = -1/15 so the (1,2) entry is -k1 q1 = 1/15
    assert abs(u[0, 1] - 1.0 / 15.0) < 1e-9


@given(jet=jets, zr=st.floats(-2, 2), zi=st.floats(-2, 2))
@settings(max_examples=50, deadline=None)
def test_space_matrix_trace(jet, zr, zi):
    p = SystemParams(0.9, 1.7, -0.6)
    zeta = complex(zr, zi)
    u = laxpair.build_U(jet, zeta, p)
    assert abs(np.trace(u) - 0.5j * zeta) < 1e-12 * max(1.0, abs(zeta))


@given(jet=jets, zeta=cnum)
@settings(max_examples=50, deadline=None)
def test_potential_block_is_antihermitian(jet, zeta):
    p = SystemParams(1.0, 2.0, 0.5)
    u = laxpair.build_U(jet, zeta, p)
    sigma = np.diag([-1.0, 1.0, 1.0])
    q = (0.5j * zeta * sigma - u) / p.k1
    assert np.abs(np.conj(q.T) + q).max() < 1e-12


def test_time_matrix_free_case(default_params):
    v = laxpair.build_V(_jet(0, 0, 0, 0, 0, 0), 1.0, default_params)
    expected = np.diag([0.5j + 1.0, -0.5j - 1.0, -0.5j - 1.0])
    assert np.abs(v - expected).max() < 1e-15


def test_time_matrix_at_a_generic_point():
    # a2 != 0 data solve nothing, so no convergence test reaches the a2 terms
    # at orders zeta^1 and zeta^0; this pins the whole matrix instead
    p = SystemParams(1.3, -0.8, 0.7)
    jet = _jet(0.4 - 0.3j, -0.2 + 0.5j, 0.15 + 0.1j, -0.35j, 0.25 - 0.05j, -0.1 + 0.3j)
    expected = np.array([
        [-0.2570067500000002 - 0.3085730000000001j, 0.7779792000000001 - 0.10963440000000008j,
         -1.0495696 + 1.0415640000000002j],
        [-0.5578992 - 0.6998744j, -0.08728124999999992 + 0.280285j,
         -0.4136640000000001 + 0.24691200000000002j],
        [-0.05923039999999999 + 0.4462840000000001j, -0.13244800000000004 - 0.08550400000000002j,
         -0.03979324999999995 + 0.325213j],
    ])
    v = laxpair.build_V(jet, 0.6 - 0.35j, p)
    assert np.abs(v - expected).max() <= 1e-14 * np.abs(expected).max()


def test_time_matrix_23_entry(default_params):
    jet = _jet(1.0, 2.0, 0.0, 0.0, 0.0, 0.0)
    v = laxpair.build_V(jet, 0.0, default_params)
    assert abs(v[1, 2] - 4.0) < 1e-15


@given(jet=jets, zeta=cnum)
@settings(max_examples=50, deadline=None)
def test_time_matrix_symmetry_third_order_sector(jet, zeta):
    # V(zeta*)^dagger = -V(zeta) holds exactly when the second-order
    # dispersion coefficient vanishes (it breaks the symmetry otherwise)
    p = SystemParams(1.3, 0.8, 0.0)
    lhs = np.conj(laxpair.build_V(jet, np.conj(zeta), p).T)
    rhs = -laxpair.build_V(jet, zeta, p)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_time_matrix_symmetry_fails_with_a2(default_params):
    jet = _jet(0.2 + 0.1j, -0.3j, 0.05, 0.1, 0.0, 0.02)
    zeta = 0.7 - 0.25j
    lhs = np.conj(laxpair.build_V(jet, np.conj(zeta), default_params).T)
    rhs = -laxpair.build_V(jet, zeta, default_params)
    assert np.abs(lhs - rhs).max() > 0.1


def _compatibility(a2: complex, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """U_t - V_x + [U, V] at (0, 0), with r(a2) and r(-conj a2), and k1.

    The field is q(x) + t q_t, q a cubic with random complex coefficients and
    q_t random; r is residual.hirota_residual's expression at order 4 on 7
    nodes x 5 slices (h = dt = 0.1).  Every difference is exact: the residual's
    stencils on the cubic and the linear t, and an 11-point central difference
    (spacing 0.05) on V, a polynomial of degree 9 in x.  a2 may be complex.
    """
    k1, epsilon = rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0)
    zeta = complex(*rng.normal(size=2))
    c = rng.normal(size=(5, 2, 1)) + 1j * rng.normal(size=(5, 2, 1))

    def jet(x):
        return np.stack([
            c[0] + c[1] * x + c[2] * x**2 / 2 + c[3] * x**3 / 6,
            c[1] + c[2] * x + c[3] * x**2 / 2,
            c[2] + c[3] * x,
        ])

    slices = jet(0.1 * np.arange(-3, 4))[0] + 0.1 * np.arange(-2, 3)[:, None, None] * c[4]

    def r(a2):
        p = SimpleNamespace(epsilon=epsilon, k1=k1, a2=a2)
        return np.concatenate(residual.hirota_residual(slices, 0.1, 0.1, p, 4))

    p = SimpleNamespace(epsilon=epsilon, k1=k1, a2=a2)
    # the 11-point central weights of the first derivative, offsets -5..5
    half = [(-1) ** (i + 1) * factorial(5) ** 2 / (i * factorial(5 - i) * factorial(5 + i)) for i in range(1, 6)]
    weights = np.array([-w for w in half[::-1]] + [0.0] + half)
    v = laxpair.build_V(jet(0.05 * np.arange(-5, 6)), zeta, p)
    v_x = np.tensordot(weights, v, 1) / 0.05
    u0, v0 = laxpair.build_U(jet(0.0), zeta, p)[0], v[5]
    u_t = -k1 * laxpair._potential(c[4])[0]
    return u_t - v_x + u0 @ v0 - v0 @ u0, r(a2), r(-np.conj(a2)), k1


@pytest.mark.parametrize(
    "a2, holds",
    [(0.0, True), (0.5j, True), (-0.2j, True), (0.7, False), (0.3 + 0.4j, False)],
    ids=["0", "0.5i", "-0.2i", "0.7", "0.3+0.4i"],
)
def test_zero_curvature_of_the_lax_pair_is_the_coupled_system(a2, holds):
    # U_t - V_x + [U, V] = -k1 Q(r) identically in the jet when a2 is imaginary:
    # its upper-right block is -k1 r(a2) and its lower-left block k1 conj(r(-conj a2))
    rng = np.random.default_rng(14)
    for _ in range(50):
        e, r, r_conj, k1 = _compatibility(a2, rng)
        assert np.abs(e[0, 1:] + k1 * r).max() <= 1e-9
        assert np.abs(e[1:, 0] - k1 * np.conj(r_conj)).max() <= 1e-9
        assert abs(e[0, 0]) <= 1e-9 and np.abs(e[1:, 1:]).max() <= 1e-9
        mismatch = np.abs(e + k1 * laxpair._potential(r)).max()
        assert mismatch <= 1e-9 if holds else mismatch > 0.1


# beta = gamma = 0: the fields are exactly zero everywhere
ZERO_FIELD = SpectralData((SpectralDatum(0.3 + 0.2j, 1.0, 0.0, 0.0),))


def test_zero_fields_give_zero_residual(default_params):
    fields = evaluator(ZERO_FIELD, default_params)
    res = laxpair.zero_curvature_residual(fields, default_params, 0.8, 1.0, 0.5, 1e-2)
    assert np.abs(res).max() == 0.0


@pytest.mark.parametrize("h", [0.0, -0.01, [0.02, 0.0], np.nan, np.inf, [0.02, np.nan]])
def test_residual_refuses_a_spacing_that_is_not_positive(default_params, h):
    fields = evaluator(ZERO_FIELD, default_params)
    with pytest.raises(ValueError, match=exactly("h must be positive and finite")):
        laxpair.zero_curvature_residual(fields, default_params, 0.8, 1.0, 0.5, h)
    with pytest.raises(ValueError, match=exactly("h must be positive and finite")):
        laxpair.jet_at(fields, 1.0, 0.5, h)


def test_default_zeta_samples():
    zs = laxpair.default_zeta_samples()
    assert len(zs) == 10
    ring = zs[:8]
    assert all(abs(abs(z) - 0.8) < 1e-12 for z in ring)
    assert zs[8] == 0.3 + 0.2j and zs[9] == 1.5


def _ladder(data, p, zeta, order, spacings):
    return [
        float(np.abs(laxpair.zero_curvature_residual(evaluator(data, p), p, zeta, 2.0, 0.5, h, order)).max())
        for h in spacings
    ]


def test_residual_second_order_convergence(default_datum, third_order_params):
    # the CLI's ladder: at h = 2.5e-3 rounding in the jets rivals the truncation error
    data = SpectralData((default_datum,))
    sups = _ladder(data, third_order_params, 0.8, 2, (2e-2, 1e-2, 5e-3))
    ratios = [sups[i] / sups[i + 1] for i in range(2)]
    assert all(3.5 <= r <= 4.5 for r in ratios)


def test_residual_fourth_order_convergence(default_datum, third_order_params):
    data = SpectralData((default_datum,))
    sups = _ladder(data, third_order_params, 0.8, 4, (0.2, 0.1, 0.05))
    ratios = [sups[i] / sups[i + 1] for i in range(2)]
    assert all(14.0 <= r <= 18.0 for r in ratios)


@pytest.mark.parametrize("epsilon,k1", [(1.0, 1.0), (-0.7, 1.3)])
def test_zero_curvature_ladders_on_a_plane_wave(epsilon, k1):
    # at a2 = 0, (A, B) e^{i(kx - wt)} solves the system exactly when
    # w = eps (k^3 - 6 k1^2 (|A|^2 + |B|^2) k); the evaluator is not involved.
    # The CLI's default ladders and bands must pass it and fail it detuned.
    p = SystemParams(epsilon=epsilon, k1=k1, a2=0.0)
    amps, k = (0.3 + 0.1j, -0.2j), 0.9
    omega = epsilon * (k**3 - 6.0 * k1 * k1 * (abs(amps[0]) ** 2 + abs(amps[1]) ** 2) * k)
    zetas = laxpair.default_zeta_samples()
    x, t = cli.DEFAULT_ZC["x"], cli.DEFAULT_ZC["t"]
    for order in (2, 4):
        lo, hi = cli.DEFAULT_TOLERANCES[f"zc_order{order}_band"]
        spacings = cli.DEFAULT_ZC[f"order{order}_spacings"]
        for w, exact in ((omega, True), (omega * 1.01, False)):
            res = laxpair.zero_curvature_residual(plane_wave(k, amps, w), p, zetas, x, t, spacings, order)
            sups = np.abs(res).max(axis=(-2, -1))
            ratios = sups[:-1] / sups[1:]
            in_band = (lo <= ratios) & (ratios <= hi)
            assert ratios.shape == (2, 10)
            assert in_band.all() if exact else not in_band.any()


def _reaches_evaluator(source: str) -> bool:
    """Whether an import statement anywhere in source names the nsoliton module."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if any("nsoliton" in name.split(".") for name in names):
            return True
    return False


@pytest.mark.parametrize("module", [laxpair, rh], ids=["laxpair", "rh"])
def test_independent_routes_do_not_import_the_evaluator(module):
    # the RH factors and the zero-curvature check are compared against the
    # evaluator, so neither may build on it
    for line in (
        "from .nsoliton import fields_batch",
        "from . import core, nsoliton",
        "import hirotalab.nsoliton as ns",
        "def f():\n    from hirotalab import nsoliton",
    ):
        assert _reaches_evaluator(line)
    assert not _reaches_evaluator(inspect.getsource(module))


TWO_SOLITON = SpectralData((
    SpectralDatum(0.3 + 0.45j, 1.0, 0.8, 0.6),
    SpectralDatum(-0.25 + 0.6j, 1.0, 0.5 + 0.3j, 1.1),
))


def test_residual_second_order_convergence_two_soliton(third_order_params):
    sups = _ladder(TWO_SOLITON, third_order_params, 0.8, 2, (1e-2, 5e-3, 2.5e-3))
    ratios = [sups[i] / sups[i + 1] for i in range(2)]
    assert all(3.5 <= r <= 4.5 for r in ratios)


@pytest.mark.parametrize("order, h", [(2, 1e-2), (4, 0.1)])
def test_residual_over_zeta_samples_matches_scalar_calls(third_order_params, order, h):
    zetas = laxpair.default_zeta_samples()
    fields = evaluator(TWO_SOLITON, third_order_params)
    batch = laxpair.zero_curvature_residual(fields, third_order_params, zetas, 2.0, 0.5, h, order)
    single = np.stack([
        laxpair.zero_curvature_residual(fields, third_order_params, z, 2.0, 0.5, h, order)
        for z in zetas
    ])
    assert batch.shape == single.shape == (10, 3, 3)
    assert np.array_equal(batch.view(np.int64), single.view(np.int64))
    # a ladder of spacings in one call gives each spacing's own bits
    ladder = laxpair.zero_curvature_residual(
        fields, third_order_params, zetas, 2.0, 0.5, [h, h / 2], order
    )
    half = laxpair.zero_curvature_residual(fields, third_order_params, zetas, 2.0, 0.5, h / 2, order)
    assert ladder.shape == (2, 10, 3, 3)
    assert np.array_equal(ladder.view(np.int64), np.stack([batch, half]).view(np.int64))


@pytest.mark.parametrize("build", ["build_U", "build_V"])
def test_lax_matrices_over_batched_jets_and_zetas_match_scalar_calls(third_order_params, build):
    xs = np.array([2.0, 1.9, -7.5])
    batch = laxpair.jet_at(evaluator(TWO_SOLITON, third_order_params), xs, 0.5, 1e-2)
    zetas = np.array(laxpair.default_zeta_samples())
    fn = getattr(laxpair, build)
    assert batch.shape == (3, 2, 3)
    mats = fn(batch[..., None], zetas, third_order_params)
    assert mats.shape == (3, 10, 3, 3)
    for i in range(len(xs)):
        jet = batch[..., i]
        for k, z in enumerate(zetas):
            single = fn(jet, complex(z), third_order_params)
            assert single.shape == (3, 3)
            assert np.array_equal(mats[i, k].view(np.int64), single.view(np.int64))


@pytest.mark.parametrize("order, h", [(2, 1e-2), (4, 0.1)])
def test_batched_jets_match_per_jet_calls(third_order_params, order, h):
    xs = np.array([2.0, 2.0, 1.9, 2.1, -7.5])
    ts = np.array([0.45, 0.55, 0.5, 0.5, 3.0])
    fields = evaluator(TWO_SOLITON, third_order_params)
    batch = laxpair.jet_at(fields, xs, ts, h, order)
    for i, (x, t) in enumerate(zip(xs, ts)):
        single = laxpair.jet_at(fields, float(x), float(t), h, order)
        assert single.shape == (3, 2)
        assert np.array_equal(batch[..., i], single)


def test_residual_plateaus_with_second_order_dispersion(default_data, default_params):
    # with a2 != 0 the constructed fields do not satisfy the compatibility
    # condition: the residual freezes at its defect level instead of
    # converging, which is exactly what this check is built to expose
    sups = _ladder(default_data, default_params, 0.8, 2, (1e-2, 5e-3, 2.5e-3))
    ratios = [sups[i] / sups[i + 1] for i in range(2)]
    assert all(r < 2.0 for r in ratios)
    assert min(sups) > 1e-3
