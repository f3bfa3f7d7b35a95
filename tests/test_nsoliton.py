import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hirotalab.core import Grid1D, SpectralData, SpectralDatum, SystemParams, phase, sample, trapezoid_mass
from hirotalab import cli, nsoliton

from conftest import evaluator, exactly, hump_heights, make_random_data, nsoliton_doc, peak_x

DATA_DIR = resources.files("hirotalab.data")
moderate = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


def test_evaluate_origin(default_data, default_params):
    q1, q2 = nsoliton.fields_batch(default_data, default_params, 0.0, 0.0)
    assert abs(q1 - (-1.0 / 15.0)) < 1e-13
    assert abs(q2 - (-2.0 / 15.0)) < 1e-13


def test_evaluate_zero_beta_kills_q1(default_params):
    data = SpectralData((SpectralDatum(0.3 + 0.2j, 1.0, 0.0, 2.0),))
    for x, t in ((0.0, 0.0), (3.0, 1.0), (-7.0, 5.0)):
        q1, q2 = nsoliton.fields_batch(data, default_params, x, t)
        assert q1 == 0.0
        assert q2 != 0.0


def test_evaluate_matches_closed_form(default_datum, default_data, default_params):
    xs = np.linspace(-20.0, 20.0, 101)
    for t in (0.0, 1.0, 5.0):
        qa1, qa2 = nsoliton.fields_batch(default_data, default_params, xs, t)
        qb1, qb2 = nsoliton.one_soliton(default_datum, default_params, xs, t)
        assert np.abs(qa1 - qb1).max() < 1e-12
        assert np.abs(qa2 - qb2).max() < 1e-12


def test_evaluate_graceful_far_field(default_data, default_params):
    for x in (5.0e3, -5.0e3):
        q1, q2 = nsoliton.fields_batch(default_data, default_params, x, 0.0)
        assert q1 == 0.0 and q2 == 0.0


def test_singular_matrix_guard(default_params):
    # equal vectors on zetas one ulp apart leave |w_2|^2 / |v_2|^2 near 1e-32;
    # 1e-6 apart it is at least (1e-6 / 1.34)^2 = 5.6e-13
    base = SpectralDatum(0.94 + 0.67j, 1.0, 1.0, 2.0)
    for gap, raises in ((np.spacing(0.67), True), (1e-6, False)):
        data = SpectralData((base, SpectralDatum(complex(0.94, 0.67 + gap), 1.0, 1.0, 2.0)))
        if raises:
            singular = exactly("dressing is numerically singular at (x, t) = (-3.0, 0.25)")
            with pytest.raises(ArithmeticError, match=singular):
                nsoliton.fields_batch(data, default_params, np.array([-3.0, 0.5]), 0.25)
        else:
            q1, q2 = nsoliton.fields_batch(data, default_params, np.array([-3.0, 0.5]), 0.25)
            assert np.all(np.isfinite(q1)) and np.all(np.isfinite(q2))


@pytest.mark.parametrize(
    "vectors",
    [[(0.0, 1.0, 2.0)], [(0.0, 1.0, 2.0), (0.0, 0.5j, -1.0)], [(1.0, 0.0, 0.0)], [(1.0, 0.0, 0.0), (2j, 0.0, 0.0)]],
    ids=["alpha_zero", "alpha_zero_pair", "beta_gamma_zero", "beta_gamma_zero_pair"],
)
def test_zero_components_give_exact_far_field_zeros(default_params, vectors):
    zetas = (0.3 + 0.2j, -0.2 + 0.35j)
    data = SpectralData(tuple(SpectralDatum(z, *v) for z, v in zip(zetas, vectors)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q1, q2 = nsoliton.fields_batch(data, default_params, np.array([-4000.0, 0.0, 4000.0]), 1.0)
    assert np.all(q1 == 0.0) and np.all(q2 == 0.0)


def _reference_fields_batch(data, p, x, t):
    """The fields by the rescaled Cauchy-like solve, q = (i/k1) u^T M^{-1} v."""
    x = np.asarray(x, dtype=float)
    th = np.stack([phase(d, p, x, t) for d in data])
    c = np.abs(th.real)
    alpha = np.array([d.alpha for d in data])
    beta = np.array([d.beta for d in data])
    gamma = np.array([d.gamma for d in data])
    zetas = data.zetas()
    e_minus = np.exp(-np.conj(th)[:, None, :] - th[None, :, :] - c[:, None, :] - c[None, :, :])
    e_plus = np.exp(np.conj(th)[:, None, :] + th[None, :, :] - c[:, None, :] - c[None, :, :])
    gram_a = np.conj(alpha)[:, None] * alpha[None, :]
    gram_bg = np.conj(beta)[:, None] * beta[None, :] + np.conj(gamma)[:, None] * gamma[None, :]
    denom = zetas[None, :] - np.conj(zetas)[:, None]
    msc = (gram_a[:, :, None] * e_minus + gram_bg[:, :, None] * e_plus) / denom[:, :, None]
    msc = np.moveaxis(msc, 2, 0)
    u = alpha[:, None] * np.exp(-th - c)
    vb = np.conj(beta)[:, None] * np.exp(np.conj(th) - c)
    vg = np.conj(gamma)[:, None] * np.exp(np.conj(th) - c)
    w = np.linalg.solve(np.swapaxes(msc, 1, 2), np.moveaxis(u, 1, 0)[:, :, None])[:, :, 0]
    w = np.moveaxis(w, 0, 1)
    return (1j / p.k1) * np.sum(w * vb, axis=0), (1j / p.k1) * np.sum(w * vg, axis=0)


TWO_SOLITON = SpectralData((
    SpectralDatum(0.3 + 0.45j, 1.0, 0.8, 0.6),
    SpectralDatum(-0.25 + 0.6j, 1.0, 0.5 + 0.3j, 1.1),
))


def test_fields_batch_matches_cauchy_solve():
    # well-conditioned data, where the bilinear solve is accurate too
    cases = [(TWO_SOLITON, SystemParams(1.0, 1.0, 0.0))]
    for name in ("default_config.json", "third_order_config.json"):
        cfg = cli.load_config(str(DATA_DIR / name))
        cases.append((cfg.spectral, cfg.params))
    xs = np.linspace(-60.0, 60.0, 401)
    for data, p in cases:
        for t in (-2.0, 0.0, 0.5, 3.0):
            got, want = nsoliton.fields_batch(data, p, xs, t), _reference_fields_batch(data, p, xs, t)
            assert np.abs(got[0] - want[0]).max() < 1e-13
            assert np.abs(got[1] - want[1]).max() < 1e-13


def _reference_dress(data, p, x, t):
    """The dressing product as complex exponentials, out-of-place updates and divisions."""
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    q1, q2 = np.zeros(x.shape, dtype=complex), np.zeros(x.shape, dtype=complex)
    dressed = []
    for d in data:
        zk = complex(d.zeta)
        th = phase(d, p, x, t)
        bg = max(abs(d.beta), abs(d.gamma))
        log_a = np.log(abs(d.alpha)) if d.alpha else -np.inf
        log_bg = np.log(bg) if bg else -np.inf
        s = np.maximum(log_a - th.real, log_bg + th.real)
        w = np.zeros((3,) + th.shape, dtype=complex)
        if d.alpha:
            w[0] = (d.alpha / abs(d.alpha)) * np.exp(log_a - th - s)
        if bg:
            grow = np.exp(log_bg + th - s)
            w[1], w[2] = (d.beta / bg) * grow, (d.gamma / bg) * grow
        for zj, wj, dual in dressed:
            c = (zj - zj.conjugate()) / (zk - zj.conjugate())
            w = w - (c * (dual * w).sum(axis=0)) * wj
        norm = (w.real**2 + w.imag**2).sum(axis=0)
        weight = (2.0 * zk.imag / p.k1) * w[0] / norm
        q1 -= weight * w[1].conj()
        q2 -= weight * w[2].conj()
        dressed.append((zk, w, w.conj() / norm))
    return q1, q2


@pytest.mark.parametrize("seed", [11, 12, 13, 9701])
def test_fields_batch_matches_reference_dressing_at_n8(seed):
    cfg = cli.parse_config(nsoliton_doc(seed))
    xs = cfg.grid.points()
    for t in (-2.0, 0.0, 2.0):
        got, want = nsoliton.fields_batch(cfg.spectral, cfg.params, xs, t), _reference_dress(cfg.spectral, cfg.params, xs, t)
        assert np.abs(got[0] - want[0]).max() < 1e-13
        assert np.abs(got[1] - want[1]).max() < 1e-13


def test_fields_batch_is_pointwise(default_params):
    # a batch of more than two passes equals calls on uneven pieces of it, bit for bit
    cfg = cli.parse_config(nsoliton_doc(11))
    xs = np.linspace(-40.0, 40.0, 2 * nsoliton.CHUNK + 3)
    cuts = [0, 1000, nsoliton.CHUNK + 7, xs.size]
    for data, p in ((TWO_SOLITON, default_params), (cfg.spectral, cfg.params)):
        whole = nsoliton.fields_batch(data, p, xs, 0.5)
        pieces = [nsoliton.fields_batch(data, p, xs[a:b], 0.5) for a, b in zip(cuts, cuts[1:])]
        for i in range(2):
            joined = np.concatenate([piece[i] for piece in pieces])
            assert np.array_equal(whole[i].view(np.int64), joined.view(np.int64))


def test_fields_batch_broadcasts_t_against_x(default_params):
    xs = np.linspace(-5.0, 5.0, 7)
    ts = np.array([-1.0, 0.0, 2.5])[:, None]
    q1, q2 = nsoliton.fields_batch(TWO_SOLITON, default_params, xs, ts)
    assert q1.shape == q2.shape == (3, 7)
    for row, t in enumerate(ts[:, 0]):
        r1, r2 = nsoliton.fields_batch(TWO_SOLITON, default_params, xs, t)
        assert np.array_equal(q1[row], r1) and np.array_equal(q2[row], r2)


@pytest.mark.parametrize(
    "x, t, shape",
    [
        (0.3, 0.5, ()),
        (np.linspace(-2.0, 2.0, 5), 0.5, (5,)),
        (np.linspace(-2.0, 2.0, 5), np.array([[0.0], [1.0], [2.0]]), (3, 5)),
        (np.zeros((0,)), 0.5, (0,)),
    ],
)
def test_fields_batch_returns_one_two_row_array(default_params, x, t, shape):
    q = nsoliton.fields_batch(TWO_SOLITON, default_params, x, t)
    assert isinstance(q, np.ndarray) and q.dtype == complex and q.shape == (2,) + shape
    assert q.flags.c_contiguous  # both rows in one buffer


def test_one_soliton_normalization_errors(default_params):
    with pytest.raises(ValueError, match=exactly("closed form requires alpha = 1, got 2.0")):
        nsoliton.one_soliton(SpectralDatum(0.3 + 0.2j, 2.0, 1.0, 1.0), default_params, 0.0, 0.0)
    with pytest.raises(ValueError, match=exactly("beta and gamma cannot both vanish")):
        nsoliton.one_soliton(SpectralDatum(0.3 + 0.2j, 1.0, 0.0, 0.0), default_params, 0.0, 0.0)


def test_one_soliton_peak_values(default_datum, default_params):
    xi = 0.5 * np.log(5.0)
    x_peak = xi / 0.2
    assert x_peak == pytest.approx(4.0236, abs=2e-4)
    q1, q2 = nsoliton.one_soliton(default_datum, default_params, x_peak, 0.0)
    assert abs(q1) == pytest.approx(0.2 / np.sqrt(5.0), abs=1e-12)
    assert abs(q2) == pytest.approx(0.4 / np.sqrt(5.0), abs=1e-12)
    assert np.hypot(abs(q1), abs(q2)) == pytest.approx(0.2, abs=1e-12)


@given(
    a=st.floats(min_value=-1.0, max_value=1.0),
    b=st.floats(min_value=0.1, max_value=1.0),
    br=st.floats(min_value=-2.0, max_value=2.0),
    bi=st.floats(min_value=-2.0, max_value=2.0),
    gr=st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=40, deadline=None)
def test_one_soliton_peak_amplitude_is_imag_zeta(a, b, br, bi, gr):
    beta = complex(br, bi)
    gamma = complex(gr, 0.4)
    d = SpectralDatum(complex(a, b), 1.0, beta, gamma)
    p = SystemParams(0.8, 1.4, -0.3)
    weight = abs(beta) ** 2 + abs(gamma) ** 2
    x_peak = 0.5 * np.log(weight) / b
    q1, q2 = nsoliton.one_soliton(d, p, x_peak, 0.0)
    assert np.hypot(abs(q1), abs(q2)) == pytest.approx(b / p.k1, abs=1e-10)


def test_one_soliton_decays(default_datum, default_params):
    for x in (1.0e4, -1.0e4):
        q1, q2 = nsoliton.one_soliton(default_datum, default_params, x, 2.0)
        assert q1 == 0.0 and q2 == 0.0


def test_traveling_wave_envelope(default_datum, default_params):
    # the modulus is a function of -b x + c t alone, with zeta = a + i b and
    # c = (3 a^2 b - b^3) eps - 2 a2 (a^2 - b^2), so advancing time by delta
    # and the position by v delta (v = c / b) leaves it unchanged
    a, b = default_datum.zeta.real, default_datum.zeta.imag
    eps, a2 = default_params.epsilon, default_params.a2
    v = ((3 * a * a * b - b**3) * eps - 2 * a2 * (a * a - b * b)) / b
    assert v == pytest.approx(-0.27, abs=1e-12)
    xs = np.linspace(-15.0, 15.0, 301)
    for delta in (0.5, 2.0):
        q1a, _ = nsoliton.one_soliton(default_datum, default_params, xs, 1.0)
        q1b, _ = nsoliton.one_soliton(default_datum, default_params, xs + v * delta, 1.0 + delta)
        assert np.abs(np.abs(q1a) - np.abs(q1b)).max() < 1e-10


def test_peak_tracking_velocity(default_data, default_params):
    xs = np.linspace(-30.0, 30.0, 6001)
    x0, x1 = (
        peak_x(xs, np.hypot(*np.abs(nsoliton.fields_batch(default_data, default_params, xs, t))))
        for t in (0.0, 10.0)
    )
    assert (x1 - x0) / 10.0 == pytest.approx(-0.27, abs=1e-3)


@given(phi=st.floats(min_value=-np.pi, max_value=np.pi))
@settings(max_examples=30, deadline=None)
def test_phase_covariance(phi):
    base = make_random_data(2, seed=11)
    p = SystemParams(1.0, 1.0, 1.0)
    rotated = SpectralData(
        tuple(
            SpectralDatum(d.zeta, d.alpha, d.beta * np.exp(1j * phi), d.gamma * np.exp(1j * phi))
            for d in base
        )
    )
    for x, t in ((0.4, 0.0), (-2.0, 1.5)):
        q1, q2 = nsoliton.fields_batch(base, p, x, t)
        r1, r2 = nsoliton.fields_batch(rotated, p, x, t)
        assert abs(r1 - q1 * np.exp(-1j * phi)) < 1e-12
        assert abs(r2 - q2 * np.exp(-1j * phi)) < 1e-12
        assert abs(abs(r1) - abs(q1)) < 1e-12


@given(
    br=st.floats(min_value=0.2, max_value=2.0),
    gr=st.floats(min_value=0.2, max_value=2.0),
    x=moderate,
)
@settings(max_examples=40, deadline=None)
def test_norm_ratio_matches_vector_ratio(br, gr, x):
    d = SpectralDatum(0.25 + 0.3j, 1.0, br, complex(0.3, gr))
    p = SystemParams(1.0, 1.0, 1.0)
    q1, q2 = nsoliton.one_soliton(d, p, x, 0.7)
    if abs(q1) > 1e-300:
        assert abs(q2) / abs(q1) == pytest.approx(abs(d.gamma) / abs(d.beta), rel=1e-10)


def test_l2_mass_is_time_independent(default_datum, default_params):
    other = SpectralDatum(-0.2 + 0.35j, 1.0, 0.7 + 0.2j, -1.1 + 0.5j)
    data = SpectralData((default_datum, other))
    grid = Grid1D(-80.0, 80.0, 4001)
    masses = [
        trapezoid_mass(sample(evaluator(data, default_params), grid, [t])[0])
        for t in (-20.0, -5.0, 0.0, 7.0, 20.0)
    ]
    spread = (max(masses) - min(masses)) / np.mean(masses)
    assert spread < 1e-6
    # total mass equals 2 (b1 + b2) / k1^2 for well separated solitons
    assert masses[0] == pytest.approx(2 * (0.2 + 0.35), rel=1e-6)


def test_sample_empty_times(default_data, default_params):
    grid = Grid1D(-1.0, 1.0, 11)
    assert sample(evaluator(default_data, default_params), grid, []) == []


def test_sample_degenerate_grid_matches_evaluate(default_data, default_params):
    grid = Grid1D(-3.0, 5.0, 2)
    q, = sample(evaluator(default_data, default_params), grid, [0.7])
    assert q.grid.nx == 2 and q.t == 0.7
    for i, x in enumerate(grid.points()):
        e1, e2 = nsoliton.fields_batch(default_data, default_params, float(x), 0.7)
        assert abs(q.values[0, i] - e1) < 1e-15
        assert abs(q.values[1, i] - e2) < 1e-15


def test_two_soliton_elastic_amplitudes(default_datum, default_params):
    # amplitudes of the separated humps return to Im(zeta_k) far from the collision
    other = SpectralDatum(-0.2 + 0.35j, 1.0, 1.0, 1.0)
    data = SpectralData((default_datum, other))
    grid = Grid1D(-45.0, 45.0, 9001)
    for t in (-80.0, 80.0):
        q, = sample(evaluator(data, default_params), grid, [t])
        mod = np.sqrt((np.abs(q.values) ** 2).sum(axis=0))
        peaks = sorted(hump_heights(mod, 0.05))
        assert len(peaks) == 2
        assert sorted(peaks) == pytest.approx([0.2, 0.35], abs=1e-3)
