"""Pseudo-spectral time evolution on numpy's FFT.

The linear part of the evolution (second- plus third-order dispersion) is
applied exactly in Fourier space through an integrating factor; the
nonlinear terms are evaluated pseudo-spectrally with 2/3-rule dealiasing
and advanced by RK4 in the interaction picture (RK4IP), whose embedded
RK4(3) pair gives each step's error estimate.  Any point count n >= 2 is
supported.

The domain is one period: a core.Grid1D that excludes the wrap point, as
Grid1D.periodic builds it, so its period is spacing * nx.  The wavenumbers,
the dealias mask, the stability bound and the growth rate are all read from
that grid.  The field q = (q1, q2) travels as one (2, n) array, a
core.SampledField between calls, so each transform covers both components;
each nonlinear evaluation runs one inverse transform over a (4, n) buffer
that stacks the two spectra v on their derivatives ik v, and one forward
transform of the (2, n) nonlinear term.

One kernel, _advance, steps the stacked spectra in place on a workspace
that its caller passes in.  evolve(), the one entry point, fixes once per
call the step sizes that check_stability allows, allocates one workspace,
builds the step factors of a step size when it starts stepping at that
size, and runs the kernel once per step.
The factors are ik, the dealias mask (stored as complex), the integrating
factors e_half and e_full, the products dt e_half and 2 e_half, and the
two scalar coefficients of the nonlinear term.  Nothing outlives a call,
so concurrent calls share no state.  Every buffered operation keeps the
operands, order and grouping of the plain array expression written in the
docstrings, so the stepped spectra are bit for bit that expression's.

The forward transform is numpy's unnormalized ``np.fft.fft`` and the
inverse is the normalized ``np.fft.ifft``.  ``np.fft`` is reached at call
time because numpy loads that submodule lazily, which keeps it out of the
cost of importing the package.
"""

from __future__ import annotations

import numpy as np

from .core import Grid1D, SampledField, SystemParams

__all__ = [
    "EdgeDecayError",
    "BlowupError",
    "linear_symbol",
    "check_stability",
    "step_schedule",
    "evolve",
]

EDGE_THRESHOLD = 1e-9
STABILITY_LIMIT = 1.0
GROWTH_LIMIT = 700.0


class EdgeDecayError(ValueError):
    """Initial data does not decay at the periodic domain edges."""

    def __init__(self, magnitude: float, threshold: float) -> None:
        super().__init__(
            f"edge magnitude {magnitude:.3g} exceeds {threshold:.3g}; enlarge the domain"
        )


class BlowupError(ArithmeticError):
    """The evolved field stopped being finite.

    Carries the time and index of the failing step and the predicted
    background growth rate 2 a2 k_max^2 of the largest retained mode, the
    rate at which the linear part alone amplifies noise when a2 > 0.
    """

    def __init__(self, t: float, step: int, growth_rate: float) -> None:
        self.t = t
        self.step = step
        self.growth_rate = growth_rate
        super().__init__(
            f"field values became non-finite near t = {t:.6g} (step {step}); "
            f"predicted background growth rate 2 a2 k_max^2 = {growth_rate:.6g}"
        )


def _period(grid: Grid1D) -> float:
    """The period spacing * nx of a grid that excludes the wrap point."""
    return grid.spacing * grid.nx


def _wavenumbers(grid: Grid1D) -> np.ndarray:
    """Angular wavenumber of each bin, in numpy's FFT order.

    The sample spacing is taken as period / nx, which can differ from
    grid.spacing in the last place; the step factors' bits follow it.
    """
    return 2.0 * np.pi * np.fft.fftfreq(grid.nx, _period(grid) / grid.nx)


def _dealias_mask(grid: Grid1D) -> np.ndarray:
    """1 on bins |m| < n/3 (the 2/3 rule), 0 above."""
    return (np.abs(np.fft.fftfreq(grid.nx)) < 1.0 / 3.0).astype(float)


def linear_symbol(k: np.ndarray, p: SystemParams) -> np.ndarray:
    """Per-mode symbol of the linearized evolution q_t = -2 a2 q_xx + eps q_xxx.

    On the mode e^{ikx} this is 2 a2 k^2 - i eps k^3; the a2 part is purely
    real, so second-order dispersion makes background modes grow (a2 > 0) or
    decay (a2 < 0) instead of oscillating.
    """
    k = np.asarray(k, dtype=float)
    return 2.0 * p.a2 * k**2 - 1j * p.epsilon * k**3


def _spectra(q: SampledField) -> np.ndarray:
    """The (2, n) spectra of a field; mode m lands in bin m with weight nx."""
    return np.fft.fft(q.values)


def _fields(hat: np.ndarray, t: float, grid: Grid1D) -> SampledField:
    """The field at time t from its (2, n) spectra, in a new array."""
    return SampledField(grid, t, np.fft.ifft(hat))


def check_stability(grid: Grid1D, p: SystemParams, dt: float) -> None:
    """Raise ValueError unless dt > 0, dt * nu_max^3 * |eps| <= STABILITY_LIMIT
    and 2 a2 k_nyq^2 dt <= GROWTH_LIMIT.

    The integrating factor treats the full linear part exactly and the
    2/3-rule zeroes every mode above the dealiasing cutoff, so the explicit
    (RK4) part only ever sees cyclic wavenumbers up to nu_max =
    (2/3)(n/2)/period: an engineering guard, not a hard CFL theorem.  The
    integrating factor is built on every bin, up to k_nyq = 2 pi
    (n//2)/period, and |e_full| <= exp(2 a2 k_nyq^2 dt) stays finite.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    nu_max = (2.0 / 3.0) * (grid.nx / 2) / _period(grid)
    metric = dt * nu_max**3 * abs(p.epsilon)
    if metric > STABILITY_LIMIT:
        raise ValueError(
            f"dt * nu_max^3 * |eps| = {metric:.3g} exceeds {STABILITY_LIMIT}; reduce dt"
        )
    k_nyq = 2.0 * np.pi * (grid.nx // 2) / _period(grid)
    growth = 2.0 * p.a2 * k_nyq**2 * dt
    if growth > GROWTH_LIMIT:
        raise ValueError(f"2 a2 k_nyq^2 dt = {growth:.3g} exceeds {GROWTH_LIMIT:g}; reduce dt")


def _growth_rate(grid: Grid1D, p: SystemParams) -> float:
    """2 a2 k_max^2, k_max the largest wavenumber the dealias mask retains."""
    k_max = np.abs(_wavenumbers(grid)[_dealias_mask(grid) > 0]).max()
    return 2.0 * p.a2 * float(k_max) ** 2


def _step_factors(grid: Grid1D, p: SystemParams, dt: float) -> tuple:
    """Everything a step of size dt needs that does not depend on the state.

    Returns the arrays 1j k, the dealias mask as complex, e_half =
    exp(symbol dt/2), e_full = e_half^2, dt e_half and 2 e_half, then the
    scalars 3 eps k1^2 and -4 k1^2 a2 of the nonlinear term.  The scaled
    arrays and scalars are grouped as the step expression groups them, and
    numpy multiplies a real mask by a complex array through the same complex
    cast, so building them once moves no bit.  A dt that passes
    check_stability keeps e_half and e_full finite.
    """
    k = _wavenumbers(grid)
    e_half = np.exp(linear_symbol(k, p) * (0.5 * dt))
    e_full = e_half * e_half
    mask = _dealias_mask(grid).astype(complex)
    arrays = (1j * k, mask, e_half, e_full, dt * e_half, 2.0 * e_half)
    ksq = p.k1 * p.k1
    return arrays + (3.0 * p.epsilon * ksq, -4.0 * ksq * p.a2)


def _aligned(shape: tuple[int, int], dtype) -> np.ndarray:
    """An uninitialized array whose data start on a 64-byte boundary.

    np.empty only promises 16 bytes, so the speed of the transforms and
    ufuncs that run on the workspace would otherwise depend on where the
    heap happens to place it.
    """
    nbytes = shape[0] * shape[1] * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + 64, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + nbytes].view(dtype).reshape(shape)


def _workspace(n: int) -> tuple:
    """Scratch for _advance at n points: views into one complex and one real
    block, each 64-byte aligned, and a bool buffer for the finiteness check.

    In order: the (4, n) buffer w, e_full v, the four stage slopes a, b, c,
    d, the scratch tuple of _nonlinear_hat, the bools, and a (2, n) copy of
    the spectra that a rejected step restores.
    """
    cplx = _aligned((19, n), complex)
    real = _aligned((5, n), float)
    scratch = (real[0:2], real[2:4], cplx[14:16], real[4], cplx[16])
    return (
        cplx[0:4], cplx[4:6], *cplx[6:14].reshape(4, 2, n), scratch, np.empty((2, n), bool), cplx[17:19]
    )


def _nonlinear_hat(
    w: np.ndarray,
    out: np.ndarray,
    scratch: tuple[np.ndarray, ...],
    ik: np.ndarray,
    mask: np.ndarray,
    beta: float,
    alpha: float,
) -> None:
    """Write the dealiased spectrum of the nonlinear term of w[:2] into out.

    w is a (4, n) buffer whose rows 0-1 hold the two spectra v on entry; rows
    2-3 receive ik v, and one in-place inverse transform turns the rows into
    q and q_x.  scratch holds two (2, n) real, one (2, n) complex, one (n,)
    real and one (n,) complex work array.  Every operation keeps the
    operands, order and grouping of the expression

        mask * fft(q * (alpha |q|^2 + beta conj(q).q_x) + q_x * (beta |q|^2))

    with alpha = -4 k1^2 a2 and beta = 3 eps k1^2, summing over the two
    fields, so the result is bit for bit that expression's.  The field sums
    are np.add.reduce, as np.sum is: adding the two rows directly would keep
    a -0 that the reduction turns into +0.  beta |q|^2 is computed in real
    arithmetic and stored as complex, as numpy would cast it anyway, in the
    buffer of the cross term once that is used up.
    """
    re2, im2, prod, dens, cross = scratch
    q, qx = w[:2], w[2:]
    np.multiply(ik, q, out=qx)
    np.fft.ifft(w, out=w)
    np.square(q.real, out=re2)
    np.square(q.imag, out=im2)
    np.add(re2, im2, out=re2)
    np.add.reduce(re2, axis=0, out=dens)
    np.conjugate(q, out=prod)
    np.multiply(prod, qx, out=prod)
    np.add.reduce(prod, axis=0, out=cross)
    np.multiply(alpha, dens, out=re2[0])
    np.multiply(beta, cross, out=cross)
    np.add(re2[0], cross, out=cross)
    np.multiply(q, cross, out=prod)
    np.multiply(beta, dens, out=cross)
    np.multiply(qx, cross, out=qx)
    np.add(prod, qx, out=prod)
    np.fft.fft(prod, out=out)
    np.multiply(mask, out, out=out)


def _first_stage(v: np.ndarray, ws: tuple, factors: tuple) -> None:
    """Write N(v), the nonlinear term of the spectra v, into ws's slope a."""
    ik, mask, *_, beta, alpha = factors
    w, _, a, *_, scratch, _, _ = ws
    np.copyto(w[:2], v)
    with np.errstate(over="ignore", invalid="ignore"):
        _nonlinear_hat(w, a, scratch, ik, mask, beta, alpha)


def _advance(v: np.ndarray, ws: tuple, factors: tuple, dt: float) -> float | None:
    """Advance the stacked (2, n) spectra v by one step of size dt, in place.

    ws is a _workspace(n) whose slope a holds N(v) on entry, N the nonlinear
    term, and factors the _step_factors of the step.  The step is
    Hult's RK4IP,

        a = N(v),  b = N(e_half (v + dt/2 a)),  c = N(e_half v + dt/2 b),
        d = N(e_full v + (dt e_half) c),
        v <- e_full v + dt/6 (e_full a + (2 e_half)(b + c) + d),

    each operation written into ws with the operands, order and grouping of
    that expression; e_half v is formed in d before d is computed.  The new
    v's N goes into a (first same as last), so the next step starts from it.

    Returns Balac and Mahé's embedded RK4(3) estimate of the step's error,
    (dt/10) |d - N(v)| with N(v) at the new v.  The norm is the largest over
    the two fields of sum |.| / n, which bounds the field's largest
    pointwise change.  Returns None when the new v is not finite; a is then
    not N(v).  Overflow only happens on a diverging run, which the caller
    turns into BlowupError or a smaller step, so its warnings are
    suppressed.
    """
    ik, mask, e_half, e_full, dt_e_half, two_e_half, beta, alpha = factors
    w, e_full_v, a, b, c, d, scratch, finite, _ = ws
    stage = w[:2]
    args = (scratch, ik, mask, beta, alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(e_full, v, out=e_full_v)
        np.multiply(0.5 * dt, a, out=stage)
        np.add(v, stage, out=stage)
        np.multiply(e_half, stage, out=stage)
        _nonlinear_hat(w, b, *args)
        np.multiply(0.5 * dt, b, out=stage)
        np.multiply(e_half, v, out=d)
        np.add(d, stage, out=stage)
        _nonlinear_hat(w, c, *args)
        np.multiply(dt_e_half, c, out=stage)
        np.add(e_full_v, stage, out=stage)
        _nonlinear_hat(w, d, *args)

        np.multiply(e_full, a, out=a)
        np.add(b, c, out=b)
        np.multiply(two_e_half, b, out=b)
        np.add(a, b, out=a)
        np.add(a, d, out=a)
        np.multiply(dt / 6.0, a, out=a)
        np.add(e_full_v, a, out=v)
        if not np.isfinite(v, out=finite).all():
            return None
        np.copyto(stage, v)
        _nonlinear_hat(w, a, *args)
        np.subtract(d, a, out=d)
        np.abs(d, out=scratch[0])
        return dt / 10.0 * float(np.add.reduce(scratch[0], axis=1).max()) / v.shape[1]


def step_schedule(t_final: float, dt: float, snapshots) -> tuple[int, list[int]]:
    """Number of steps to t_final and the step index of each snapshot, sorted.

    Raises ValueError unless t_final >= 0 and dt > 0 are finite, t_final / dt
    is a finite count, t_final is an integer multiple of dt, and every
    snapshot is one within [0, t_final].
    """
    if not (0.0 <= t_final < np.inf and 0.0 < dt < np.inf):
        raise ValueError("need finite t_final >= 0 and dt > 0")
    count = t_final / dt
    if count == np.inf:
        raise ValueError(f"dt = {dt!r} gives no finite step count over t_final = {t_final!r}")
    n_steps = int(round(count))
    if abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise ValueError("t_final must be an integer multiple of dt")
    snap_steps = []
    for s in sorted(float(s) for s in snapshots):
        m = int(round(s / dt))
        if not 0.0 <= s <= t_final or abs(m * dt - s) > 1e-9 * max(1.0, t_final):
            raise ValueError(f"snapshot {s} is not a multiple of dt within [0, t_final]")
        snap_steps.append(m)
    return n_steps, snap_steps


def evolve(
    q0: SampledField,
    p: SystemParams,
    t_final: float,
    dt: float,
    snapshots,
    edge_threshold: float = EDGE_THRESHOLD,
    err_budget: float = 0.0,
    stats: dict | None = None,
) -> list[SampledField]:
    """Repeated stepping from the input's time with snapshot capture.

    Snapshot times must lie in [0, t_final] and be integer multiples of dt.
    t_final = 0 returns the input unchanged.  The spectra are advanced in
    place on one workspace for the whole call.  Each snapshot is a fresh
    inverse transform, sharing no memory with the workspace.

    dt is the finest step.  Steps are taken at levels h = dt 2^j with
    0 <= j <= top, none past the next snapshot.  top is fixed before the
    first step: 0 when err_budget is 0, else the highest j up to
    n_steps.bit_length() whose h passes check_stability (whose bounds grow
    with h).  With the error estimate est of _advance:

    - a step at j > 0 whose est exceeds err_budget h / t_final, or whose
      result is not finite, is redone at j - 1; a step at j = 0 is kept;
    - the level goes up one, up to top, after a kept step at the level
      with 16 est <= (1/2) err_budget 2h / t_final, est growing like h^4.

    So err_budget = 0 (the default) takes every step at dt.  A positive
    one bounds only the steps above dt, since a step at dt is kept whatever
    its est: a run held at dt can sum past err_budget.  One factor set is
    held at a time, built when the level changes.  The clock adds dt once
    per dt stepped, as a run of fixed steps does, so snapshot times carry
    that run's bits.

    Raises ValueError when dt fails check_stability, and BlowupError at the
    first step of size dt whose result is not finite; its step counts steps
    of dt.  When stats is a dict it receives the number of kept and
    rejected steps (steps, rejected), the smallest and largest kept step
    (h_min, h_max) and the kept steps' summed est (est_sum).
    """
    edge = q0.edge_magnitude()
    if edge > edge_threshold:
        raise EdgeDecayError(edge, edge_threshold)
    n_steps, snap_steps = step_schedule(t_final, dt, snapshots)
    if t_final == 0.0:
        return [q0 for _ in snap_steps] or [q0]

    grid, v, t = q0.grid, _spectra(q0), q0.t
    check_stability(grid, p, dt)
    top = 0
    try:
        while err_budget > 0 and top < n_steps.bit_length():
            check_stability(grid, p, dt * 2 ** (top + 1))
            top += 1
    except ValueError:
        pass
    factors = _step_factors(grid, p, dt)
    ws = _workspace(grid.nx)
    saved = ws[-1]
    _first_stage(v, ws, factors)
    out = [q0] * snap_steps.count(0)
    # i counts steps of dt, and factors are those of level j
    i, j, level = 0, 0, 0
    kept, rejected, h_min, h_max, est_sum = 0, 0, np.inf, 0.0, 0.0
    for target in sorted({*snap_steps, n_steps} - {0}):
        while i < target:
            want = min(level, (target - i).bit_length() - 1)
            if want != j:
                # the old set goes before the new one is built
                factors = None
                factors, j = _step_factors(grid, p, dt * 2**want), want
            h = dt * 2**j
            if j:
                np.copyto(saved, v)
            est = _advance(v, ws, factors, h)
            if j and not (est is not None and est <= err_budget * h / t_final):
                np.copyto(v, saved)
                _first_stage(v, ws, factors)
                level = j - 1
                rejected += 1
                continue
            if est is None:
                raise BlowupError(t + dt, i + 1, _growth_rate(grid, p))
            for _ in range(2**j):
                t = t + dt
            i += 2**j
            kept += 1
            h_min, h_max, est_sum = min(h_min, h), max(h_max, h), est_sum + est
            if j == level < top and 16.0 * est <= 0.5 * err_budget * (2.0 * h) / t_final:
                level += 1
        out.extend([_fields(v, t, grid)] * snap_steps.count(target))
    if stats is not None:
        stats.update(steps=kept, rejected=rejected, h_min=h_min, h_max=h_max, est_sum=est_sum)
    return out
