import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hirotalab.core import Grid1D, SpectralData, SpectralDatum, SystemParams, sample
from hirotalab import cli, nsoliton, rh

from conftest import evaluator, exactly, make_random_data, nsoliton_doc

lower_zeta = st.builds(
    complex,
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=-0.05),
)


def test_plus_factor_normalizes_at_infinity(default_data, default_params):
    far = rh.rh_plus(1e8 * np.exp(0.25j * np.pi), default_data, default_params, 0.0, 0.0)
    lead = rh.rh_plus_order1(default_data, default_params, 0.0, 0.0)
    assert np.abs(far - np.eye(3)).max() <= 1e-7 * np.abs(lead).max()


def test_plus_factor_singular_at_eigenvalue(default_data, default_params):
    p1 = rh.rh_plus(0.3 + 0.2j, default_data, default_params, 0.3, 0.1)
    assert abs(np.linalg.det(p1)) < 1e-10


def test_pole_guard(default_data, default_params):
    hit = "zeta = {0} is within 1e-12 of the pole {0}"
    with pytest.raises(ZeroDivisionError, match=exactly(hit.format(0.3 - 0.2j))):
        rh.rh_plus(0.3 - 0.2j, default_data, default_params, 0.0, 0.0)
    with pytest.raises(ZeroDivisionError, match=exactly(hit.format(0.3 + 0.2j))):
        rh.rh_minus(0.3 + 0.2j, default_data, default_params, 0.0, 0.0)


def _bits(a) -> np.ndarray:
    return np.asarray(a).view(np.int64)


@pytest.mark.parametrize("factor", ["rh_plus", "rh_minus"])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_factor_over_zeta_array_matches_scalar_calls(default_params, factor, n):
    data = make_random_data(n, seed=40 + n)
    rng = np.random.default_rng(n)
    zetas = rng.uniform(-2, 2, 12) + 1j * rng.uniform(-2, 2, 12)
    zetas[:4] = zetas[:4].real
    fn = getattr(rh, factor)
    batch = fn(zetas, data, default_params, 0.7, 0.4)
    single = [fn(complex(z), data, default_params, 0.7, 0.4) for z in zetas]
    assert batch.shape == (12, 3, 3) and all(s.shape == (3, 3) for s in single)
    assert np.array_equal(_bits(batch), _bits(np.stack(single)))
    # any array shape: the result keeps zeta's shape in front of (3, 3)
    grid = fn(zetas.reshape(3, 4), data, default_params, 0.7, 0.4)
    assert np.array_equal(_bits(grid), _bits(batch.reshape(3, 4, 3, 3)))


def test_pole_guard_names_the_zeta_of_a_batch(default_data, default_params):
    pole = 0.3 - 0.2j  # rh_plus has its pole at zeta_1*, rh_minus at zeta_1
    near = pole + 0.5 * rh.POLE_RADIUS
    hit = "zeta = {} is within {} of the pole {}"
    # the first hit of the batch
    with pytest.raises(ZeroDivisionError, match=exactly(hit.format(near, rh.POLE_RADIUS, pole))):
        rh.rh_plus(np.array([1.0, 0.5j, near, pole, 2.0]), default_data, default_params, 0.0, 0.0)
    first = hit.format(near.conjugate(), rh.POLE_RADIUS, pole.conjugate())
    with pytest.raises(ZeroDivisionError, match=exactly(first)):
        rh.rh_minus(np.array([np.conj(near), 1.0]), default_data, default_params, 0.0, 0.0)


def test_kernel_conditions_one_soliton(default_data, default_params):
    assert rh.kernel_report(default_data, default_params, 0.0, 0.0) <= 1e-12


def test_kernel_conditions_two_soliton(default_params):
    data = make_random_data(2, seed=5)
    assert rh.kernel_report(data, default_params, 3.0, 1.0) <= 1e-10


@given(zeta=lower_zeta)
@settings(max_examples=40, deadline=None)
def test_hermitian_symmetry_between_factors(zeta):
    data = make_random_data(2, seed=23)
    p = SystemParams(1.0, 1.0, 1.0)
    if min(abs(zeta - np.conj(z)) for z in data.zetas()) < 1e-2:
        return
    lhs = np.conj(rh.rh_plus(np.conj(zeta), data, p, 0.6, 0.3).T)
    rhs = rh.rh_minus(zeta, data, p, 0.6, 0.3)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_factors_multiply_to_identity(default_data, default_params):
    rng = np.random.default_rng(99)
    zetas = [complex(rng.uniform(-2, 2), 0.0) for _ in range(20)]
    zetas += [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(20)]
    for data in (default_data, make_random_data(3, seed=8)):
        poles = np.concatenate([data.zetas(), np.conj(data.zetas())])
        for z in zetas:
            if np.abs(z - poles).min() < 5e-2:
                continue
            prod = rh.rh_minus(z, data, default_params, 0.7, 0.4) @ rh.rh_plus(
                z, data, default_params, 0.7, 0.4
            )
            assert np.abs(prod - np.eye(3)).max() < 1e-10


def test_reconstruct_origin(default_data, default_params):
    q1, q2 = rh.reconstruct(default_data, default_params, 0.0, 0.0)
    assert abs(q1 - (-1.0 / 15.0)) < 1e-13
    assert abs(q2 - (-2.0 / 15.0)) < 1e-13


def test_reconstruct_matches_evaluate(default_params):
    for n, seed in ((1, 3), (2, 4), (3, 6)):
        data = make_random_data(n, seed=seed)
        for x, t in ((0.0, 0.0), (1.3, -0.8), (-4.0, 2.0)):
            qr = rh.reconstruct(data, default_params, x, t)
            qe = nsoliton.fields_batch(data, default_params, x, t)
            assert abs(qr[0] - qe[0]) < 1e-13
            assert abs(qr[1] - qe[1]) < 1e-13


def test_large_zeta_expansion_converges(default_data, default_params):
    lead = rh.rh_plus_order1(default_data, default_params, 0.4, 0.2)
    direction = np.exp(1j * np.pi / 3)
    errs = []
    for radius in (1e2, 1e3, 1e4):
        z = radius * direction
        approx = radius * direction * (
            rh.rh_plus(z, default_data, default_params, 0.4, 0.2) - np.eye(3)
        )
        errs.append(np.abs(approx - lead).max())
    assert errs[0] > errs[1] > errs[2]


def _sampled_soliton(params, span=60.0, h=0.01, datum=None):
    d = datum or SpectralDatum(0.3 + 0.2j, 1.0, 1.0, 2.0)
    nx = int(round(2 * span / h)) + 1
    grid = Grid1D(-span, span, nx)
    data = SpectralData((d,))
    q, = sample(evaluator(data, params), grid, [0.0])
    return d, q


def test_scattering_of_zero_fields(default_params):
    # the free phase is exact, so no potential gives I up to the rounding of
    # the per-step free factors (here at most 6.6e-14 on the real axis and
    # 1.4e-13 off it), and exactly I at zeta = 0, with an even or odd
    # interval count
    from hirotalab.core import SampledField

    for nx in (2001, 2002):
        f = SampledField(Grid1D(-10.0, 10.0, nx), 0.0, np.zeros((2, nx), complex))
        assert np.array_equal(rh.direct_scattering(f, 0.0, default_params), np.eye(3))
        for zeta in (0.5, 1.2, -3.0, 0.3 + 0.2j):
            s = rh.direct_scattering(f, zeta, default_params)
            assert np.abs(s - np.eye(3)).max() <= 1e-12


def test_scattering_determinant_third_order(third_order_params):
    # h = 0.01 on [-60, 60]: with the free phase in the RK4 coefficient
    # |det S - 1| read 8.06e-9 here, all of it the free part's step error
    _, q = _sampled_soliton(third_order_params)
    for zeta in (0.3, 0.5, 0.7, 0.9, 1.1):
        s = rh.direct_scattering(q, zeta, third_order_params)
        assert abs(np.linalg.det(s) - 1.0) <= 1e-10


def test_scattering_tail_guard(default_params, default_datum):
    _, q = _sampled_soliton(default_params, span=15.0, h=0.01)
    with pytest.raises(
        ValueError, match=r"^boundary field magnitude \S+ exceeds 1e-05; widen the grid$"
    ):
        rh.direct_scattering(q, 0.5, default_params)


def test_scattering_step_guard(default_params):
    _, q = _sampled_soliton(default_params, span=30.0, h=0.05)
    step = "need h * |zeta| <= 0.1 to bound RK4's step error on the e^(+-i zeta x) within a step, got 0.2"
    with pytest.raises(ValueError, match=exactly(step)):
        rh.direct_scattering(q, 4.0, default_params)


def test_scattering_detects_prescribed_zero(default_params):
    d, q = _sampled_soliton(default_params)
    s = rh.direct_scattering(q, d.zeta, default_params)
    assert abs(s[0, 0]) <= 1e-4


def test_scattering_reflectionless(default_params):
    _, q = _sampled_soliton(default_params)
    s = rh.direct_scattering(q, 0.5, default_params)
    assert abs(s[1, 0]) <= 1e-4
    assert abs(s[2, 0]) <= 1e-4


def test_scattering_determinant_and_involution(default_params):
    _, q = _sampled_soliton(default_params)
    for zeta in (0.5, 1.1):
        s = rh.direct_scattering(q, zeta, default_params)
        assert abs(np.linalg.det(s) - 1.0) <= 1e-8
        # on the real axis the involution reads S^dagger = S^{-1}
        assert np.abs(np.conj(s.T) @ s - np.eye(3)).max() <= 1e-6
    zeta = 0.4 + 0.15j
    s_up = rh.direct_scattering(q, zeta, default_params)
    s_dn = rh.direct_scattering(q, np.conj(zeta), default_params)
    assert np.abs(np.conj(s_dn.T) @ s_up - np.eye(3)).max() <= 1e-6
    # first entry of the inverse agrees with the conjugated (1,1) entry
    r = np.linalg.inv(s_up)
    assert abs(np.conj(s_dn[0, 0]) - r[0, 0]) <= 1e-6


def test_scattering_refinement_oracle(default_params):
    # reflection magnitudes are truncation-dominated: widening the domain
    # must shrink them; halving h must shrink the determinant error ~16x
    _, qa = _sampled_soliton(default_params, span=60.0, h=0.01)
    _, qb = _sampled_soliton(default_params, span=80.0, h=0.01)
    refl_a = abs(rh.direct_scattering(qa, 0.5, default_params)[1, 0])
    refl_b = abs(rh.direct_scattering(qb, 0.5, default_params)[1, 0])
    assert refl_b < 0.1 * refl_a

    _, qc = _sampled_soliton(default_params, span=60.0, h=0.02)
    det_c = abs(np.linalg.det(rh.direct_scattering(qc, 1.1, default_params)) - 1.0)
    det_a = abs(np.linalg.det(rh.direct_scattering(qa, 1.1, default_params)) - 1.0)
    assert det_a < det_c / 8.0


def _sequential_scattering(q, zeta, p):
    """Reference oracle: direct_scattering as a step-by-step RK4 loop.

    A complex zeta takes the interaction picture afresh at the first node x0
    of each step, where the potential carries e^{+-i zeta (x - x0)}, and
    returns to psi by exp((i/2) zeta sigma s) after the step of length s,
    as direct_scattering does for every zeta.  A real zeta instead keeps one
    picture phi = exp(-(i/2) zeta sigma x) psi over the whole grid, from I,
    with the potential times e^{+-i zeta x} as coefficient.  A change of
    picture is a constant similarity per step, which RK4 commutes with, so
    on the real axis the oracle checks the folded per-step product against
    a different picture, equal up to rounding.
    """
    grid = q.grid
    h = grid.spacing
    n = grid.nx
    x = grid.points()
    real = np.imag(zeta) == 0

    def coeff(j, offset):
        # coefficient at node j, which lies offset nodes past the picture's origin
        xi = x[j] if real else offset * h
        a = np.zeros((3, 3), dtype=complex)
        a[0, 1:] = -p.k1 * q.values[:, j] * np.exp(1j * zeta * xi)
        a[1:, 0] = p.k1 * np.conj(q.values[:, j]) * np.exp(-1j * zeta * xi)
        return a

    def rk4(psi, a0, a1, a2, s):
        k1m = a0 @ psi
        k2m = a1 @ (psi + 0.5 * s * k1m)
        k3m = a1 @ (psi + 0.5 * s * k2m)
        k4m = a2 @ (psi + s * k3m)
        psi = psi + (s / 6.0) * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
        return psi if real else rh._free_factor(zeta, s) @ psi

    psi = np.eye(3, dtype=complex) if real else rh._free_factor(zeta, grid.x_min)
    i = 0
    while i + 2 <= n - 1:
        psi = rk4(psi, coeff(i, 0), coeff(i + 1, 1), coeff(i + 2, 2), 2.0 * h)
        i += 2
    if i == n - 2:
        a0, a1 = coeff(i, 0), coeff(i + 1, 1)
        psi = rk4(psi, a0, 0.5 * (a0 + a1), a1, h)
    return psi if real else rh._free_factor(-zeta, grid.x_max) @ psi


@pytest.mark.parametrize(
    "nx, h",
    [
        (12001, 0.01),
        (12002, 0.01),
        (2 * rh.FOLD_BLOCK + 3, 0.01),
        (2, 0.08),
        (3, 0.08),
    ],
    ids=["even_many_blocks", "odd_many_blocks", "one_block_plus_one_step", "nx2", "nx3"],
)
def test_scattering_matches_sequential_oracle(default_params, nx, h):
    # the folded product reorders the rounding of the loop, nothing else;
    # off the real axis only s11 is meaningful (see the docstring)
    span = 0.5 * (nx - 1) * h
    d = SpectralDatum(0.3 + 0.2j, 1.0, 1.0, 2.0)
    q, = sample(evaluator(SpectralData((d,)), default_params), Grid1D(-span, span, nx), [0.0])
    s = rh.direct_scattering(q, d.zeta, default_params, tail_threshold=np.inf)
    assert abs(s[0, 0] - _sequential_scattering(q, d.zeta, default_params)[0, 0]) <= 1e-12
    for zeta in (0.3, 0.5, 1.1):
        s = rh.direct_scattering(q, zeta, default_params, tail_threshold=np.inf)
        assert np.abs(s - _sequential_scattering(q, zeta, default_params)).max() <= 1e-12


@pytest.mark.parametrize("seed", [11, 9701])
def test_eigenvalue_column_matches_blaschke_product(seed):
    # a reflectionless potential has s11(zeta) = prod (zeta - zeta_k)/(zeta - conj(zeta_k))
    # in the upper half plane.  On the scatter command's default grid the
    # per-step picture reads at most 2.2e-10 at these four points, and so
    # does RK4 with the free part kept in its coefficient
    cfg = cli.parse_config(nsoliton_doc(seed))
    q, = sample(cfg.fields, cfg.scatter["grid"], [0.0])
    zk = cfg.spectral.zetas()
    points = np.array([-0.5 + 0.3j, 0.5 + 0.3j, -0.5 + 1.0j, 0.5 + 1.0j])
    s11 = np.array([rh.direct_scattering(q, z, cfg.params)[0, 0] for z in points])
    factors = (points[:, None] - zk) / (points[:, None] - np.conj(zk))
    assert np.abs(s11 - factors.prod(axis=1)).max() <= 1e-9
    # negative control: the product without any one of its factors is far off
    for k in range(len(zk)):
        missing = np.delete(factors, k, axis=1).prod(axis=1)
        assert np.abs(s11 - missing).max() > 1e-6


def _scattering_peak(zeta, nx, p):
    d = SpectralDatum(0.3 + 0.2j, 1.0, 1.0, 2.0)
    q, = sample(evaluator(SpectralData((d,)), p), Grid1D(-60.0, 60.0, nx), [0.0])
    tracemalloc.start()
    try:
        rh.direct_scattering(q, zeta, p)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("zeta", [0.5, 0.3 + 0.2j], ids=["real", "complex"])
def test_scattering_memory_does_not_grow_with_grid(third_order_params, zeta):
    # potentials, phases and step matrices exist one block at a time, so the
    # peak of one call (807 KB, real or complex) is the same on 8001 and
    # 16001 nodes
    small = _scattering_peak(zeta, 8001, third_order_params)
    assert _scattering_peak(zeta, 16001, third_order_params) <= small
