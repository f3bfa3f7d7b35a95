import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hirotalab.core import Grid1D, SampledField, SpectralDatum, SystemParams, trapezoid_mass
from hirotalab import nsoliton, propagator, residual

from conftest import PAIR


def _fields_on(grid: Grid1D, v1, v2, t=0.0):
    return SampledField(grid, t, np.stack((v1, v2)))


def _direct_dft(v):
    n = len(v)
    j = np.arange(n)
    return np.array([np.sum(v * np.exp(-2j * np.pi * j * k / n)) for k in range(n)])


def _hat_of(v1, v2):
    """The (2, n) spectra evolve transforms the field (v1, v2) into."""
    return propagator._spectra(_fields_on(Grid1D.periodic(80.0, len(v1)), v1, v2))


def test_fft_delta():
    hat = _hat_of(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex), np.zeros(4, complex))
    assert np.array_equal(hat[0], np.ones(4, dtype=complex))
    assert np.array_equal(hat[1], np.zeros(4, dtype=complex))


# powers of two as before, plus point counts the radix-2 transform rejected
@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 3, 12, 100])
def test_fft_matches_direct_transform(n):
    rng = np.random.default_rng(n)
    v = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    hat = _hat_of(v[0], v[1])
    assert np.abs(hat[0] - _direct_dft(v[0])).max() < 1e-10 * max(1, n)
    assert np.abs(hat[1] - _direct_dft(v[1])).max() < 1e-10 * max(1, n)


@pytest.mark.parametrize("n", [2, 64, 1024, 4096])
def test_fft_roundtrip(n):
    rng = np.random.default_rng(n + 1)
    v = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    q = _fields_on(Grid1D.periodic(80.0, n), v[0], v[1])
    back = propagator._fields(propagator._spectra(q), 0.0, q.grid)
    assert (np.abs(back.values - v).max(axis=1) < 1e-13 * np.abs(v).max(axis=1)).all()


def test_fft_parseval():
    rng = np.random.default_rng(12)
    v = rng.normal(size=(2, 512)) + 1j * rng.normal(size=(2, 512))
    for row, hat in zip(v, _hat_of(v[0], v[1])):
        lhs = np.sum(np.abs(row) ** 2)
        rhs = np.sum(np.abs(hat) ** 2) / 512
        assert abs(lhs - rhs) < 1e-12 * lhs


def test_fft_pure_mode_single_bin():
    # mode m lands in bin m with weight n (unnormalized forward), mode -m in
    # bin n - m, and the inverse is normalized
    grid = Grid1D.periodic(40.0, 128)
    xs = grid.points()
    m = 9
    wave = np.exp(2j * np.pi * m * (xs + 20.0) / 40.0)
    q = _fields_on(grid, wave, np.conj(wave))
    hats = propagator._spectra(q)
    for hat, b in ((hats[0], m), (hats[1], 128 - m)):
        assert abs(hat[b]) == pytest.approx(128.0, rel=1e-12)
        rest = np.delete(np.abs(hat), b)
        assert rest.max() < 1e-9
    back = propagator._fields(hats, 0.0, q.grid)
    assert np.abs(back.values[0] - wave).max() < 1e-13


@given(
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=25, deadline=None)
def test_fft_linearity(pw, ar, br):
    n = 2**pw
    rng = np.random.default_rng(1000 + n)
    u = rng.normal(size=n) + 1j * rng.normal(size=n)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    c = complex(ar, br)
    mixed = _hat_of(u + c * v, v + c * u)
    rhs = _hat_of(u, v) + c * _hat_of(v, u)
    assert np.abs(mixed - rhs).max() < 1e-10 * max(1.0, np.abs(rhs).max())


def test_fft_batched_rows_match():
    # the stacked (2, n) transforms give each field exactly what it gets alone
    rng = np.random.default_rng(5)
    vb = rng.normal(size=(2, 256)) + 1j * rng.normal(size=(2, 256))
    zero = np.zeros(256, complex)
    both = _hat_of(vb[0], vb[1])
    assert np.array_equal(both[0], _hat_of(vb[0], zero)[0])
    assert np.array_equal(both[1], _hat_of(zero, vb[1])[1])
    grid = Grid1D(-40.0, 40.0 - 80.0 / 256, 256)
    b = propagator._fields(both, 0.0, grid)
    alone1 = propagator._fields(_hat_of(vb[0], zero), 0.0, grid)
    alone2 = propagator._fields(_hat_of(zero, vb[1]), 0.0, grid)
    assert np.array_equal(b.values[0], alone1.values[0])
    assert np.array_equal(b.values[1], alone2.values[1])


def test_spectral_grid_properties():
    g = Grid1D.periodic(80.0, 1024)
    assert g.spacing == pytest.approx(80.0 / 1024)
    pts = g.points()
    assert pts[0] == -40.0 and pts[-1] == pytest.approx(40.0 - 80.0 / 1024)
    k = propagator._wavenumbers(g)
    assert k[0] == 0.0 and k[1] == pytest.approx(2 * np.pi / 80.0)
    assert k[512] == pytest.approx(-2 * np.pi * 512 / 80.0)
    assert Grid1D.periodic(80.0, 1000).nx == 1000
    # odd n: bins run 0..(n-1)/2, then -(n-1)/2..-1, and the 2/3-rule mask
    # keeps |m| < n/3 on both sides
    odd = Grid1D.periodic(80.0, 1023)
    k = propagator._wavenumbers(odd)
    assert k[511] == pytest.approx(2 * np.pi * 511 / 80.0)
    assert k[512] == pytest.approx(-2 * np.pi * 511 / 80.0)
    mask = propagator._dealias_mask(odd)
    assert mask.sum() == 2 * 340 + 1  # n/3 = 341 exactly, so |m| <= 340
    assert np.array_equal(mask[1:], mask[1:][::-1])
    for bad in ((0.0, 64), (80.0, 1)):
        with pytest.raises(ValueError):
            Grid1D.periodic(*bad)


def test_linear_symbol_against_stencil_route(third_order_params, default_params):
    # independent check of the dispersion symbol: apply the linearized
    # spatial operator with finite differences to a plane wave and compare
    g = Grid1D(-np.pi * 16, np.pi * 16, 4097)
    x = g.points()
    for p in (third_order_params, default_params, SystemParams(0.7, 1.0, -1.3)):
        for kk in (0.25, 0.5):
            wave = np.exp(1j * kk * x)
            _, d2, d3 = residual.interior_derivatives(wave, g.spacing, 4)
            applied = -2.0 * p.a2 * d2 + p.epsilon * d3
            # order 4 leaves out three nodes at each end
            predicted = propagator.linear_symbol(kk, p) * wave[3:-3]
            assert np.abs(applied - predicted).max() < 1e-5


def test_single_mode_matches_linear_multiplier(default_params, third_order_params):
    for p in (default_params, third_order_params):
        grid = Grid1D.periodic(80.0, 256)
        hat1 = np.zeros(256, complex)
        hat1[7] = 1e-6 * 256
        q = _fields_on(grid, np.fft.ifft(hat1), np.zeros(256, complex))
        # a pure mode does not decay at the edges
        stepped_field, = propagator.evolve(q, p, 1e-3, 1e-3, [1e-3], edge_threshold=1.0)
        stepped = propagator._spectra(stepped_field)
        exact = hat1 * np.exp(propagator.linear_symbol(propagator._wavenumbers(grid), p) * 1e-3)
        err = np.abs(stepped[0] - exact).max() / np.abs(exact).max()
        assert err < 1e-10


def _soliton_fields(datum, p, grid: Grid1D, t):
    return _fields_on(grid, *nsoliton.one_soliton(datum, p, grid.points(), t), t=t)


NARROW = SpectralDatum(0.3 + 0.9j, 1.0, 1.0 / np.sqrt(5.0), 2.0 / np.sqrt(5.0))


def test_soliton_short_run_matches_analytic(third_order_params):
    for n in (1024, 1000, 1023):
        grid = Grid1D.periodic(80.0, n)
        q0 = _soliton_fields(NARROW, third_order_params, grid, 0.0)
        q, = propagator.evolve(q0, third_order_params, 0.25, 1e-3, [0.25])
        a = _soliton_fields(NARROW, third_order_params, grid, 0.25)
        assert (np.abs(q.values - a.values).max(axis=1) < 1e-9).all()


def test_step_is_symmetric_in_the_two_fields(default_params, third_order_params):
    # both fields share one stacked transform path: exchanging them in the
    # input must exchange the stepped fields exactly
    grid = Grid1D.periodic(80.0, 512)
    other = SpectralDatum(-0.4 + 0.6j, 1.0, 0.3 - 0.5j, 1.1)
    for p in (default_params, third_order_params):
        v1 = _soliton_fields(NARROW, p, grid, 0.0).values[0]
        v2 = _soliton_fields(other, p, grid, 0.0).values[1]
        args = (p, 1e-3, 1e-3, [1e-3])
        a, = propagator.evolve(_fields_on(grid, v1, v2), *args, edge_threshold=1.0)
        b, = propagator.evolve(_fields_on(grid, v2, v1), *args, edge_threshold=1.0)
        assert np.array_equal(a.values[0], b.values[1])
        assert np.array_equal(a.values[1], b.values[0])


def test_temporal_convergence_is_fourth_order(third_order_params):
    grid = Grid1D.periodic(80.0, 1024)
    q0 = _soliton_fields(NARROW, third_order_params, grid, 0.0)
    a1 = _soliton_fields(NARROW, third_order_params, grid, 0.5).values[0]
    errs = []
    for dt in (2e-3, 1e-3, 5e-4):
        q, = propagator.evolve(q0, third_order_params, 0.5, dt, [0.5])
        errs.append(np.abs(q.values[0] - a1).max())
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(3.6 <= o <= 4.4 for o in orders)


def test_conservation_and_dealiasing(third_order_params):
    grid = Grid1D.periodic(80.0, 1024)
    q0 = _soliton_fields(NARROW, third_order_params, grid, 0.0)
    q, = propagator.evolve(q0, third_order_params, 5.0, 2e-3, [5.0])
    m0 = trapezoid_mass(q0)
    m1 = trapezoid_mass(q)
    assert abs(m1 - m0) / m0 < 1e-8
    hat1 = propagator._spectra(q)[0]
    mask = propagator._dealias_mask(grid)
    top = np.abs(hat1[mask == 0.0]).max()
    assert top < 1e-10 * np.abs(hat1).max()
    # edge stays quiet over the run
    assert abs(q.values[0, 0]) < 1e-9 and abs(q.values[0, -1]) < 1e-9
    # propagated peak sits where the closed-form envelope velocity puts it
    # envelope speed c / b at a2 = 0 and eps = 1: 3 a^2 - b^2 for zeta = a + i b
    v = 3 * 0.3**2 - 0.9**2
    mod = np.abs(q.values[0])
    peak_x = grid.points()[int(np.argmax(mod))]
    assert peak_x == pytest.approx(v * 5.0, abs=0.1)


def test_collision_matches_analytic_formula(third_order_params):
    grid = Grid1D.periodic(160.0, 1024)
    xs = grid.points()
    q0 = SampledField(grid, 0.0, nsoliton.fields_batch(PAIR, third_order_params, xs, 0.0))
    q, = propagator.evolve(q0, third_order_params, 2.0, 2e-3, [2.0])
    a = nsoliton.fields_batch(PAIR, third_order_params, xs, 2.0)
    assert (np.abs(q.values - a).max(axis=1) < 1e-8).all()


def test_evolve_t0_returns_input(third_order_params):
    grid = Grid1D.periodic(80.0, 256)
    q0 = _soliton_fields(NARROW, third_order_params, grid, 0.0)
    out = propagator.evolve(q0, third_order_params, 0.0, 1e-3, [])
    assert len(out) == 1 and out[0] is q0


def test_evolve_snapshot_validation(third_order_params):
    grid = Grid1D.periodic(80.0, 256)
    q0 = _soliton_fields(NARROW, third_order_params, grid, 0.0)
    with pytest.raises(ValueError):
        propagator.evolve(q0, third_order_params, 0.1, 1e-3, [0.0505])
    with pytest.raises(ValueError):
        propagator.evolve(q0, third_order_params, 0.1, 1e-3, [0.2])
    # t_final = 0 returns the inputs, but only for a valid schedule
    with pytest.raises(ValueError):
        propagator.evolve(q0, third_order_params, 0.0, -1.0, [7.0, -3.0])


def test_stability_guard(third_order_params):
    grid = Grid1D.periodic(80.0, 1024)
    q0 = _soliton_fields(NARROW, third_order_params, grid, 0.0)
    unstable = r"^dt \* nu_max\^3 \* \|eps\| = \S+ exceeds 1\.0; reduce dt$"
    with pytest.raises(ValueError, match=unstable):
        propagator.evolve(q0, third_order_params, 1.0, 2e-2, [1.0])
    # the guard is not cached away: a valid run does not exempt the next call
    propagator.evolve(q0, third_order_params, 1e-3, 1e-3, [1e-3])
    with pytest.raises(ValueError, match=unstable):
        propagator.evolve(q0, third_order_params, 2e-2, 2e-2, [2e-2])
    # evolve's schedule rejects dt <= 0 first; the bound rejects it too
    with pytest.raises(ValueError, match="^dt must be positive$"):
        propagator.check_stability(grid, third_order_params, -1e-3)


def test_edge_guard(third_order_params):
    wide = SpectralDatum(0.3 + 0.2j, 1.0, 1.0, 2.0)
    grid = Grid1D.periodic(80.0, 1024)
    q0 = _soliton_fields(wide, third_order_params, grid, 0.0)
    with pytest.raises(propagator.EdgeDecayError):
        propagator.evolve(q0, third_order_params, 0.1, 1e-3, [0.1])


def test_second_order_dispersion_run_blows_up(default_params):
    # background modes of the a2 > 0 evolution grow like exp(2 a2 k^2 t):
    # the run must abort with a diagnosable error instead of returning NaN
    wide = SpectralDatum(0.3 + 0.2j, 1.0, 1.0, 2.0)
    grid = Grid1D.periodic(80.0, 1024)
    q0 = _soliton_fields(wide, default_params, grid, 0.0)
    with pytest.raises(propagator.BlowupError) as info:
        propagator.evolve(q0, default_params, 1.0, 1e-3, [1.0], edge_threshold=1e-2)
    # pinned abort step and time: a change of transform must not move them
    assert info.value.step == 7 and info.value.t == pytest.approx(7e-3)
    # 2 a2 k_max^2 with k_max = 2 pi 341 / 80, the largest retained mode
    assert info.value.growth_rate == pytest.approx(2.0 * (2 * np.pi * 341 / 80.0) ** 2)


def _reference_nonlinear_hat(v, ik, mask, p):
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.fft.ifft(v)
        qx = np.fft.ifft(ik * v)
        dens = (q.real**2 + q.imag**2).sum(axis=0)
        cross = (np.conj(q) * qx).sum(axis=0)
        ksq = p.k1 * p.k1
        beta = 3.0 * p.epsilon * ksq
        nl = q * (-4.0 * ksq * p.a2 * dens + beta * cross) + qx * (beta * dens)
        return mask * np.fft.fft(nl)


def _reference_step(state, p, dt):
    """One step of evolve as plain array expressions: the oracle its
    buffered form must match bit for bit.

    state is (grid, t, steps, v), v the stacked (2, n) spectra after
    `steps` steps; returns the state one step later.
    """
    grid, t, steps, v = state
    propagator.check_stability(grid, p, dt)
    k = propagator._wavenumbers(grid)
    mask = propagator._dealias_mask(grid)
    growth = 2.0 * p.a2 * float(np.abs(k[mask > 0]).max()) ** 2
    e_half = np.exp(propagator.linear_symbol(k, p) * (0.5 * dt))
    e_full = e_half * e_half
    ik = 1j * k

    a = _reference_nonlinear_hat(v, ik, mask, p)
    b = _reference_nonlinear_hat(e_half * (v + 0.5 * dt * a), ik, mask, p)
    c = _reference_nonlinear_hat(e_half * v + 0.5 * dt * b, ik, mask, p)
    d = _reference_nonlinear_hat(e_full * v + dt * e_half * c, ik, mask, p)

    new = e_full * v + (dt / 6.0) * (e_full * a + 2.0 * e_half * (b + c) + d)
    if not np.all(np.isfinite(new)):
        raise propagator.BlowupError(t + dt, steps + 1, growth)
    return grid, t + dt, steps + 1, new


def test_integrating_factor_past_the_growth_bound_is_refused():
    # eps = 0 passes the dispersion bound at any dt, and exp(2 a2 k^2 dt)
    # overflows for k up to 2 pi 1365 / 80; the growth bound refuses that dt
    # before any step, on every call
    p = SystemParams(0.0, 1.0, 1.0)
    grid = Grid1D.periodic(80.0, 4096)
    q0 = _fields_on(grid, np.zeros(4096, complex), np.zeros(4096, complex), t=0.5)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^2 a2 k_nyq\^2 dt = .* exceeds 700; reduce dt$"):
            propagator.evolve(q0, p, 1.0, 1.0, [1.0])


def _case_fields(case, n, third_order_params, default_params):
    """(p, dt, q0) of a bit-for-bit case."""
    if case == "soliton":
        grid = Grid1D.periodic(80.0, n)
        return (third_order_params, 1e-3, _soliton_fields(NARROW, third_order_params, grid, 0.0))
    if case == "pair":
        grid = Grid1D.periodic(160.0, n)
        fields = nsoliton.fields_batch(PAIR, third_order_params, grid.points(), 0.0)
        return (third_order_params, 2e-3, _fields_on(grid, *fields))
    grid = Grid1D.periodic(80.0, n)
    wide = SpectralDatum(0.3 + 0.2j, 1.0, 1.0, 2.0)
    return (default_params, 1e-3, _soliton_fields(wide, default_params, grid, 0.0))


def _bits(q):
    return q.values.view(np.int64).tobytes()


@pytest.mark.parametrize(
    "case, n, steps",
    [("soliton", 1024, 200), ("soliton", 1023, 50), ("soliton", 3, 200), ("pair", 2048, 50),
     ("blowup", 1024, 20)],
)
def test_evolve_matches_repeated_steps_bit_for_bit(case, n, steps, third_order_params, default_params):
    # a snapshot at every step must carry the bytes of _reference_step's
    # spectra transformed back, compared as int64 so that a flipped signed
    # zero or a NaN payload fails; a run that blows up must fail at the
    # reference's step, time and rate
    p, dt, q0 = _case_fields(case, n, third_order_params, default_params)

    def run(n_steps):
        # the edge guard is not under test: n = 3 samples no decaying tail
        times = [i * dt for i in range(n_steps + 1)]
        return propagator.evolve(q0, p, times[-1], dt, times, edge_threshold=1.0)

    grid, v = q0.grid, propagator._spectra(q0)
    state = (grid, q0.t, 0, v)
    want = [q0]
    try:
        for _ in range(steps):
            state = _reference_step(state, p, dt)
            want.append(propagator._fields(state[3], state[1], q0.grid))
    except propagator.BlowupError as ref_err:
        with pytest.raises(propagator.BlowupError) as info:
            run(steps)
        assert (info.value.t, info.value.step, info.value.growth_rate) == (
            ref_err.t, ref_err.step, ref_err.growth_rate)
        assert case == "blowup" and ref_err.step == 7
        # the aborted run hands back no snapshots: pin the steps before it
        steps = ref_err.step - 1
    else:
        assert case != "blowup", "the a2 = 1 run was expected to blow up"
    got = run(steps)
    assert len(got) == len(want) == steps + 1
    for g, w in zip(got, want):
        assert g.t == w.t
        assert _bits(g) == _bits(w)


def test_evolve_snapshots_share_no_memory(third_order_params):
    grid = Grid1D.periodic(80.0, 256)
    q0 = _soliton_fields(NARROW, third_order_params, grid, 0.0)
    before = _bits(q0)
    snaps = propagator.evolve(q0, third_order_params, 0.01, 1e-3, [0.005, 0.008, 0.01])
    assert _bits(q0) == before
    arrays = [q0.values] + [f.values for f in snaps]
    for i, x in enumerate(arrays):
        for y in arrays[i + 1:]:
            assert not np.shares_memory(x, y)


def test_evolve_keeps_no_state_between_calls(third_order_params):
    grid = Grid1D.periodic(80.0, 512)
    q0 = _soliton_fields(NARROW, third_order_params, grid, 0.0)
    args = (q0, third_order_params, 0.05, 1e-3, [0.02, 0.05])
    first = [_bits(q) for q in propagator.evolve(*args)]
    other = _soliton_fields(NARROW, third_order_params, Grid1D.periodic(40.0, 128), 0.0)
    propagator.evolve(other, third_order_params, 4e-3, 2e-3, [2e-3], edge_threshold=1.0)
    assert [_bits(q) for q in propagator.evolve(*args)] == first


@pytest.mark.parametrize("n", [2, 3, 5, 64, 1000, 1023, 1024, 2048])
def test_workspace_blocks_are_64_byte_aligned(n):
    # the complex block starts at w, the real one at the first scratch array
    for _ in range(3):
        ws = propagator._workspace(n)
        w, real = ws[0], ws[6][0]
        assert w.ctypes.data % 64 == 0 and real.ctypes.data % 64 == 0
        assert w.flags.c_contiguous and real.flags.c_contiguous
        assert w.shape == (4, n) and real.shape == (2, n)


# the third-order config's datum and run, and an explicit step budget (a
# tenth of the one the CLI gives that run)
THIRD = SpectralDatum(0.3 + 0.55j, 1.0, 1.0 / np.sqrt(5.0), 2.0 / np.sqrt(5.0))
BUDGET = 1e-7


def test_adaptive_run_coarsens_within_its_budget(third_order_params):
    p = third_order_params
    grid = Grid1D.periodic(80.0, 1024)
    # from t = 0.1 a clock that added each step's size would give the
    # snapshots other bits than a run of fixed steps does
    q0 = _soliton_fields(THIRD, p, grid, 0.1)
    stats = {}
    snaps = propagator.evolve(q0, p, 1.0, 1e-3, [0.5, 1.0], err_budget=BUDGET, stats=stats)
    clock = [0.1]
    for _ in range(1000):
        clock.append(clock[-1] + 1e-3)
    assert [q.t for q in snaps] == [clock[500], clock[1000]]
    assert stats["h_min"] == 1e-3 < stats["h_max"]
    assert stats["steps"] < 1000 / 2 and stats["rejected"] == 0
    assert 0.0 < stats["est_sum"] <= BUDGET
    for q, s in zip(snaps, (0.5, 1.0)):
        assert np.abs(q.values - _soliton_fields(THIRD, p, grid, 0.1 + s).values).max() <= 2e-10


def test_estimate_overstates_the_kept_solutions_error(third_order_params):
    # est is the third-order companion's local error; the step keeps the
    # fourth-order solution, so at the level the CLI's run takes (8e-3) the
    # summed est exceeds the time error against a run at dt/4 many times over
    p = third_order_params
    q0 = _soliton_fields(THIRD, p, Grid1D.periodic(80.0, 1024), 0.0)
    h = 8e-3
    stats = {}
    q, = propagator.evolve(q0, p, 64 * h, h, [64 * h], stats=stats)
    ref, = propagator.evolve(q0, p, 64 * h, h / 4, [64 * h])
    err = np.abs(q.values - ref.values).max()
    assert 0.0 < err and stats["est_sum"] >= 10.0 * err


def test_budget_that_never_climbs_keeps_the_fixed_runs_bits(third_order_params):
    # at the collision the estimate holds a positive budget's run at dt, and
    # such a run is the run without a budget, snapshot for snapshot
    p, dt, t0 = third_order_params, 2e-3, 20.3
    grid = Grid1D.periodic(160.0, 2048)
    q0 = _fields_on(grid, *nsoliton.fields_batch(PAIR, p, grid.points(), t0), t=t0)
    args = (q0, p, 50 * dt, dt, [25 * dt, 50 * dt])
    stats = {}
    held = propagator.evolve(*args, err_budget=1e-6, stats=stats)
    assert (stats["steps"], stats["rejected"], stats["h_max"]) == (50, 0, dt)
    for a, b in zip(held, propagator.evolve(*args, err_budget=0.0), strict=True):
        assert a.t == b.t and np.array_equal(a.values, b.values)


def test_step_estimate_is_third_order_and_its_last_stage_is_the_next_first(third_order_params):
    grid = Grid1D.periodic(80.0, 1024)
    v0 = propagator._spectra(_soliton_fields(THIRD, third_order_params, grid, 0.0))

    def step(h):
        v, ws = v0.copy(), propagator._workspace(grid.nx)
        factors = propagator._step_factors(grid, third_order_params, h)
        propagator._first_stage(v, ws, factors)
        est = propagator._advance(v, ws, factors, h)
        return est, v, ws[2].copy()

    est, v, last = step(1e-3)
    # the local error of the embedded third-order solution goes as h^4
    assert 12.0 <= step(2e-3)[0] / est <= 20.0
    ws = propagator._workspace(grid.nx)
    propagator._first_stage(v, ws, propagator._step_factors(grid, third_order_params, 1e-3))
    assert np.array_equal(ws[2], last)


def _zero_fields(grid: Grid1D):
    return _fields_on(grid, np.zeros(grid.nx, complex), np.zeros(grid.nx, complex))


@pytest.mark.parametrize(
    "p, dt",
    # dt at 0.61 of the stability bound, so 2 dt is past it; and 2 a2 k_nyq^2
    # h, k_nyq^2 = 101.06, is 404 at h = 2 and 808 at h = 4, past the growth
    # bound of 700
    [(SystemParams(1.0, 1.0, 0.0), 0.5), (SystemParams(0.0, 1.0, 1.0), 2.0)],
    ids=["stability", "growth"],
)
def test_unusable_levels_are_skipped(p, dt):
    # an all-zero field has est == 0, so a positive budget climbs as far as the bounds let it
    stats = {}
    grid = Grid1D.periodic(80.0, 256)
    q, = propagator.evolve(_zero_fields(grid), p, 8 * dt, dt, [8 * dt], err_budget=1.0, stats=stats)
    assert not q.values.any()
    assert (stats["steps"], stats["rejected"], stats["h_max"]) == (8, 0, dt)


def test_no_budget_never_coarsens(third_order_params):
    grid = Grid1D.periodic(80.0, 256)
    for kwargs in ({}, {"err_budget": 0.0}):
        stats = {}
        propagator.evolve(_zero_fields(grid), third_order_params, 0.016, 1e-3, [0.016], stats=stats, **kwargs)
        assert stats == {"steps": 16, "rejected": 0, "h_min": 1e-3, "h_max": 1e-3, "est_sum": 0.0}


def test_blowup_under_a_budget_is_the_fixed_runs(default_params, monkeypatch):
    p, dt, q0 = _case_fields("blowup", 1024, None, default_params)
    args = (q0, p, 0.02, dt, [0.02])
    with pytest.raises(propagator.BlowupError) as fixed:
        propagator.evolve(*args, edge_threshold=1.0)
    sizes = []
    kernel = propagator._advance

    def recorded(v, ws, factors, h):
        sizes.append(h)
        return kernel(v, ws, factors, h)

    monkeypatch.setattr(propagator, "_advance", recorded)
    with pytest.raises(propagator.BlowupError) as adaptive:
        propagator.evolve(*args, edge_threshold=1.0, err_budget=BUDGET)
    # steps above dt were tried, and the step still counts steps of dt
    assert max(sizes) > dt
    assert (adaptive.value.t, adaptive.value.step, adaptive.value.growth_rate) == (
        fixed.value.t, fixed.value.step, fixed.value.growth_rate)
