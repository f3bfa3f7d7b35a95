"""Command-line front door: config ingestion, verification commands, data emission.

Commands

  sample          write per-time field CSVs (optionally gnuplot scripts)
  residual        substitute the analytic solution into the coupled system
  zero-curvature  compatibility residual ladders for the 3x3 pair
  rh-check        factorization identities: kernels, symmetry, product, rebuild
  scatter         scattering matrix closure on the sampled t=0 fields
  propagate       pseudo-spectral evolution against the analytic solution

Exit codes: 0 success, 1 validation failure, 2 verification failure, 3 I/O failure.
Loading builds what each command runs on; a checking command returns its
Report, and main alone writes it and turns all_pass into exit 0 or 2.

Every CSV is written with 17 significant digits, '.' decimal separator and
'\n' line endings, so identical configs produce byte-identical files.
Report files carry one `name,value,threshold,pass` row per check; band
thresholds are printed as `lo..hi`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .core import (
    Grid1D,
    SampledField,
    SpectralData,
    SpectralDatum,
    SystemParams,
    sample,
    trapezoid_mass,
)
# nsoliton compiles before laxpair: run from source, perfbench's peak RSS follows that order
from . import nsoliton, laxpair, propagator, residual, rh

__all__ = ["RunConfig", "load_config", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2
EXIT_IO = 3


DEFAULT_TOLERANCES = {
    "residual_order_deficit": 0.2,
    "zc_order2_band": [3.5, 4.5],
    "zc_order4_band": [14.0, 18.0],
    "kernel": 1e-10,
    "symmetry": 1e-12,
    "product": 1e-10,
    "reconstruct": 1e-13,
    "s11_zero": 1e-4,
    "reflection": 1e-4,
    "det_s": 1e-8,
    "propagate_linf": 1e-5,
    "mass_drift": 1e-8,
}

# the share of propagate_linf that propagate's step-size control may spend;
# the config's dt is the finest step
STEP_BUDGET_SHARE = 0.1
# every grid a config builds (sample, residual rungs, scatter, propagate) holds
# at most this many nodes; a residual rung of 10**5 nodes takes about 100 MB at N = 8
MAX_GRID_NODES = 10**5
# the required sections: every key must be given
PARAMS = {"epsilon": 0.0, "k1": 0.0, "a2": 0.0}
GRID = {"nx": 0, "x_min": 0.0, "x_max": 0.0}
DATUM = {"zeta": 0j, "alpha": 0j, "beta": 0j, "gamma": 0j}
DEFAULT_RESIDUAL = {"order": 2, "spacings": [0.1, 0.05, 0.025], "t_center": 0.5}
DEFAULT_ZC = {
    "x": 2.0,
    "t": 0.5,
    "order2_spacings": [2e-2, 1e-2, 5e-3],
    "order4_spacings": [0.2, 0.1, 0.05],
}
DEFAULT_RH = {"x": 0.7, "t": 0.4, "n_symmetry": 20, "n_product": 40, "seed": 20260810}
DEFAULT_SCATTER = {
    "x_min": -60.0,
    "x_max": 60.0,
    "spacing": 0.015,
    "real_zetas": [0.3, 0.5, 0.7, 0.9, 1.1],
    "tail_threshold": rh.TAIL_THRESHOLD,
}
DEFAULT_PROPAGATE = {
    "length": 80.0,
    "n": 1024,
    "dt": 1e-3,
    "t_final": 1.0,
    "snapshots": [1.0],
    "edge_threshold": propagator.EDGE_THRESHOLD,
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration shared by all commands."""

    params: SystemParams
    spectral: SpectralData
    grid: Grid1D
    times: tuple[float, ...]
    output_dir: str
    emit_plots: bool
    residual: dict
    zero_curvature: dict
    rh_check: dict
    scatter: dict
    propagate: dict
    tolerances: dict

    def fields(self, x, t) -> np.ndarray:
        """The field source every command reads: the evaluator on this config's data."""
        return nsoliton.fields_batch(self.spectral, self.params, x, t)


def _read(value, like, key: str):
    """A config value checked against the JSON type of like, typed as like is.

    A float like takes any finite JSON number, and an int like an integral
    one (1024.0 included).  A complex like takes a finite number too, or an
    object {"re": ..., "im": ...} of them (each 0 if left out).  A list like
    takes an array, whose items are read like its first item when it has
    one.  Strings and booleans are not numbers.
    """
    if isinstance(like, list):
        if not isinstance(value, list):
            raise ValueError(f"{key} must be an array, got {value!r}")
        return [_read(v, like[0], key) for v in value] if like else value
    if isinstance(like, complex) and isinstance(value, dict) and set(value) <= {"re", "im"}:
        return complex(*(_read(value.get(part, 0.0), 0.0, f"{key}.{part}") for part in ("re", "im")))
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    if isinstance(like, int):
        if not float(value).is_integer():
            raise ValueError(f"{key} must be an integer, got {value!r}")
        return int(value)
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return type(like)(value)


def _merged(defaults: dict, user, required: bool = False) -> dict:
    """The defaults, overridden by the user's keys, each read like its default.

    A key the defaults lack is refused, since it would otherwise be ignored.
    A required section must be an object that gives every key; any other
    may be left out (None), which keeps every default.
    """
    if user is None and not required:
        return dict(defaults)
    if not isinstance(user, dict):
        raise ValueError(f"expected an object, got {user!r}")
    unknown = sorted(set(user) - set(defaults))
    if unknown:
        raise ValueError(f"unknown keys {unknown}, expected keys of {sorted(defaults)}")
    missing = sorted(set(defaults) - set(user))
    if required and missing:
        raise ValueError(f"missing keys {missing}, expected keys of {sorted(defaults)}")
    return {**defaults, **{key: _read(value, defaults[key], key) for key, value in user.items()}}


def _under(where: str, read, *args):
    """read(*args), the message of a load fault prefixed with where."""
    try:
        return read(*args)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _typed(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise ValueError(f"must be {what}, got {value!r}")
    return value


def _check_distinct_tags(times) -> None:
    """Distinct times must name distinct files."""
    named = {}
    for t in times:
        other = named.setdefault(_time_tag(t), t)
        if other != t:
            raise ValueError(f"{other!r} and {t!r} would both write the files of t={_time_tag(t)}")


def _positive(values, key: str) -> None:
    if not all(v > 0 for v in values):
        raise ValueError(f"{key} must be positive, got {values!r}")


def _check_at_least(opts: dict, key: str, least: int) -> None:
    if opts[key] < least:
        raise ValueError(f"{key} must be an integer >= {least}, got {opts[key]!r}")


def _capped(grid: Grid1D, what: str) -> Grid1D:
    """grid, refused past MAX_GRID_NODES nodes; what names the value that sized it."""
    if grid.nx > MAX_GRID_NODES:
        raise ValueError(f"{what} needs more than {MAX_GRID_NODES} nodes over the grid")
    return grid


def _spaced_grid(x_min: float, x_max: float, h: float) -> Grid1D:
    return _capped(Grid1D.with_spacing(x_min, x_max, h), f"spacing {h!r}")


# The loaders of the top-level names: each returns what RunConfig holds under
# its name.  A command section's loader raises what its command would
# otherwise raise partway through a run.  The scatter and propagate loaders
# also add the objects their commands run on, under keys no user can set: the
# grid, and propagate's sorted snapshot_times with t_final.
def _load_spectral(node) -> SpectralData:
    data = _read(node, [], "spectral")
    return SpectralData(
        tuple(SpectralDatum(**_under(f"spectral[{i}]", _merged, DATUM, d, True)) for i, d in enumerate(data))
    )


def _load_grid(node) -> Grid1D:
    grid = Grid1D(**_merged(GRID, node, required=True))
    return _capped(grid, f"nx = {grid.nx}")


def _load_times(node) -> tuple[float, ...]:
    times = tuple(_read(node, [0.0], "times"))
    _check_distinct_tags(times)
    return times


def _load_tolerances(node) -> dict:
    tol = _merged(DEFAULT_TOLERANCES, node)
    for key, value in tol.items():
        # a band: [lo, hi]
        if isinstance(value, list) and not (len(value) == 2 and value[0] <= value[1]):
            raise ValueError(f"{key} must be a pair [lo, hi] with lo <= hi, got {value!r}")
    return tol


def _load_residual(node, grid: Grid1D) -> dict:
    opts = _merged(DEFAULT_RESIDUAL, node)
    if opts["order"] not in (2, 4):
        raise ValueError(f"order must be 2 or 4, got {opts['order']!r}")
    residual.check_ladder(opts["spacings"])
    # every rung's grid must hold the widest stencil; the first rung's has the fewest nodes
    first = Grid1D.with_spacing(grid.x_min, grid.x_max, opts["spacings"][0])
    residual.check_nodes(first.nx, opts["order"])
    # and the last rung's the most
    _spaced_grid(grid.x_min, grid.x_max, opts["spacings"][-1])
    return opts


def _load_zero_curvature(node) -> dict:
    opts = _merged(DEFAULT_ZC, node)
    # the ratio bands zc_order2_band and zc_order4_band sit around 2**order,
    # which is what a ladder that halves gives
    for key in ("order2_spacings", "order4_spacings"):
        _under(key, residual.check_ladder, opts[key], 2, 2.0)
    return opts


def _load_rh_check(node) -> dict:
    opts = _merged(DEFAULT_RH, node)
    _check_at_least(opts, "n_symmetry", 1)
    _check_at_least(opts, "n_product", 1)
    _check_at_least(opts, "seed", 0)
    return opts


def _load_scatter(node, spectral: SpectralData) -> dict:
    opts = _merged(DEFAULT_SCATTER, node)
    opts["grid"] = grid = _spaced_grid(opts["x_min"], opts["x_max"], opts["spacing"])
    _positive([opts["tail_threshold"]], "tail_threshold")
    if len(opts["real_zetas"]) < 1:
        raise ValueError("real_zetas needs at least one entry")
    for zeta in (*spectral.zetas(), *opts["real_zetas"]):
        rh.check_phase_step(grid.spacing, complex(zeta))
    return opts


def _load_propagate(node, params: SystemParams) -> dict:
    opts = _merged(DEFAULT_PROPAGATE, node)
    opts["grid"] = grid = _capped(Grid1D.periodic(opts["length"], opts["n"]), f"n = {opts['n']}")
    opts["snapshot_times"] = snaps = sorted(set(opts["snapshots"]) | {opts["t_final"]})
    propagator.step_schedule(opts["t_final"], opts["dt"], snaps)
    _under("snapshots", _check_distinct_tags, snaps)
    propagator.check_stability(grid, params, opts["dt"])
    _positive([opts["edge_threshold"]], "edge_threshold")
    return opts


def parse_config(doc: dict) -> RunConfig:
    """The RunConfig of a decoded JSON config.  ValueError names the first
    fault, prefixed with its top-level name."""
    if not isinstance(doc, dict):
        raise ValueError(f"config must be a JSON object, got {type(doc).__name__}")
    cfg = {}
    # each top-level name, what it reads as when left out, and its loader,
    # which may use the names loaded before it
    for name, absent, load in (
        ("params", None, lambda node: SystemParams(**_merged(PARAMS, node, required=True))),
        ("spectral", None, _load_spectral),
        ("grid", None, _load_grid),
        ("times", [], _load_times),
        ("emit_plots", False, lambda node: _typed(node, bool, "true or false")),
        ("output_dir", "out", lambda node: _typed(node, str, "a string")),
        ("tolerances", None, _load_tolerances),
        ("residual", None, lambda node: _load_residual(node, cfg["grid"])),
        ("zero_curvature", None, _load_zero_curvature),
        ("rh_check", None, _load_rh_check),
        ("scatter", None, lambda node: _load_scatter(node, cfg["spectral"])),
        ("propagate", None, lambda node: _load_propagate(node, cfg["params"])),
    ):
        cfg[name] = _under(name, load, doc.get(name, absent))
    unknown = sorted(set(doc) - set(cfg))
    if unknown:
        raise ValueError(f"{unknown[0]}: unknown top-level key, expected keys of {sorted(cfg)}")
    return RunConfig(**cfg)


def load_config(path: str | None) -> RunConfig:
    """Parse and validate a config file; None loads the bundled default."""
    if path is None:
        text = resources.files("hirotalab.data").joinpath("default_config.json").read_text()
    else:
        text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _open_text(path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline="\n")


def _write_text(path: Path, text: str) -> None:
    with _open_text(path) as handle:
        handle.write(text)


class Report:
    """Accumulates name,value,threshold,pass rows; writes deterministic CSV
    to the file called name in an output directory."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.rows: list[tuple[str, float, str, bool]] = []

    def check_le(self, name: str, value: float, threshold: float) -> bool:
        ok = bool(value <= threshold)
        self.rows.append((name, value, _fmt(threshold), ok))
        return ok

    def check_band(self, name: str, value: float, lo: float, hi: float) -> bool:
        ok = bool(lo <= value <= hi)
        self.rows.append((name, value, f"{_fmt(lo)}..{_fmt(hi)}", ok))
        return ok

    def fail(self, name: str, note: str) -> bool:
        self.rows.append((name, float("nan"), note, False))
        return False

    @property
    def all_pass(self) -> bool:
        return all(ok for _, _, _, ok in self.rows)

    def write(self, out: Path, quiet: bool) -> None:
        lines = ["name,value,threshold,pass"]
        for name, value, threshold, ok in self.rows:
            lines.append(f"{name},{_fmt(value)},{threshold},{'true' if ok else 'false'}")
        _write_text(out / self.name, "\n".join(lines) + "\n")
        if not quiet:
            for name, value, threshold, ok in self.rows:
                print(f"  [{'PASS' if ok else 'FAIL'}] {name} = {value:.6g} (threshold {threshold})")


# Rows per %-operation of the field writers; bounds the strings one block makes.
FIELD_BLOCK = 1024


def _row_templates(leads: list[str], sep: str) -> list[str]:
    """%-templates of FIELD_BLOCK rows each: a row is its lead, then six %.17g values."""
    tail = (sep + "%.17g") * 6 + "\n"
    return [
        "".join([lead + tail for lead in leads[i : i + FIELD_BLOCK]])
        for i in range(0, len(leads), FIELD_BLOCK)
    ]


def _columns(q: SampledField) -> np.ndarray:
    """(nx, 6) columns re, im, abs of q1, then of q2.

    np.hypot is libm's hypot, which abs(complex) uses too, so each abs
    prints as _fmt(abs(z)) does; np.abs can differ in the last bit.
    """
    cols = np.empty((q.grid.nx, 6))
    for k, v in zip((0, 3), q.values):
        cols[:, k], cols[:, k + 1] = v.real, v.imag
        cols[:, k + 2] = np.hypot(v.real, v.imag)
    return cols


def _write_blocks(handle, templates: list[str], cols: np.ndarray) -> None:
    """Stream the (rows, 6) value columns through the block templates."""
    for i, template in enumerate(templates):
        block = cols[i * FIELD_BLOCK : (i + 1) * FIELD_BLOCK]
        handle.write(template % tuple(block.ravel().tolist()))


def _x_column(grid: Grid1D) -> list[str]:
    """The grid's x values as every field file prints them."""
    return [_fmt(x) for x in grid.points().tolist()]


def _write_fields(path: Path, templates: list[str], q: SampledField) -> None:
    """Write the field CSV of q; templates is _row_templates(_x_column(grid), ",")."""
    with _open_text(path) as handle:
        handle.write("x,re_q1,im_q1,abs_q1,re_q2,im_q2,abs_q2\n")
        _write_blocks(handle, templates, _columns(q))


def _worst(values) -> float:
    """Largest of non-negative values, 0 for none; NaN if any value is NaN."""
    return float(np.max(values, initial=0.0))


def _time_tag(t: float) -> str:
    return f"{t:g}"


def cmd_sample(cfg: RunConfig, out: Path, quiet: bool) -> None:
    fields = sample(cfg.fields, cfg.grid, cfg.times)
    xcol = _x_column(cfg.grid)
    templates = _row_templates(xcol, ",")
    names = []
    for q, t in zip(fields, cfg.times):
        name = f"fields_t{_time_tag(t)}.csv"
        _write_fields(out / name, templates, q)
        names.append(name)
        if not quiet:
            print(f"  wrote {name}")
    if cfg.emit_plots and names:
        _emit_plot_scripts(cfg, out, names, fields, xcol)


def _emit_plot_scripts(
    cfg: RunConfig,
    out: Path,
    names: list[str],
    fields: list[SampledField],
    xcol: list[str],
) -> None:
    slice_lines = [
        "set datafile separator ','",
        "set xlabel 'x'",
        "set key outside",
        "set terminal pngcairo size 900,600",
    ]
    for col, label in ((4, "abs_q1"), (7, "abs_q2"), (2, "re_q1"), (3, "im_q1")):
        png = f"slices_{label}.png"
        slice_lines.append(f"set output '{png}'")
        slice_lines.append(f"set ylabel '{label}'")
        plots = ", ".join(
            f"'{name}' using 1:{col} with lines title 't={_time_tag(t)}'"
            for name, t in zip(names, cfg.times)
        )
        slice_lines.append(f"plot {plots}")
    _write_text(out / "plot_slices.gp", "\n".join(slice_lines) + "\n")

    with _open_text(out / "surface.dat") as handle:
        handle.write("# x t abs_q1 abs_q2 re_q1 re_q2 im_q1 im_q2\n")
        for q, t in zip(fields, cfg.times):
            lead = " " + _fmt(t)
            templates = _row_templates([x + lead for x in xcol], " ")
            # abs, re, im, each of q1 then of q2
            _write_blocks(handle, templates, _columns(q)[:, [2, 5, 0, 3, 1, 4]])
            handle.write("\n")
    surf_lines = [
        "set xlabel 'x'",
        "set ylabel 't'",
        "set terminal pngcairo size 900,600",
        "set hidden3d",
    ]
    for col, label in ((3, "abs_q1"), (4, "abs_q2"), (5, "re_q1"), (7, "im_q1")):
        surf_lines.append(f"set output 'surface_{label}.png'")
        surf_lines.append(f"splot 'surface.dat' using 1:2:{col} with lines title '{label}'")
    _write_text(out / "plot_surface.gp", "\n".join(surf_lines) + "\n")


def cmd_residual(cfg: RunConfig, out: Path, quiet: bool) -> Report:
    opts = cfg.residual
    order = opts["order"]
    rep1, rep2 = residual.soliton_residual_ladder(
        cfg.fields,
        cfg.params,
        cfg.grid.x_min,
        cfg.grid.x_max,
        opts["spacings"],
        opts["t_center"],
        order,
    )
    ladder_lines = ["h,sup_norm_q1,sup_norm_q2"]
    for h, n1, n2 in zip(rep1.spacings, rep1.sup_norms, rep2.sup_norms):
        ladder_lines.append(f"{_fmt(h)},{_fmt(n1)},{_fmt(n2)}")
    _write_text(out / "residual_ladder.csv", "\n".join(ladder_lines) + "\n")

    report = Report("residual_report.csv")
    # a slope above the nominal order is no more a pass than one below it:
    # a wrong field whose defect cancels part of the truncation error reads high
    deficit = cfg.tolerances["residual_order_deficit"]
    report.check_band("residual_order_q1", rep1.estimated_order, order - deficit, order + deficit)
    report.check_band("residual_order_q2", rep2.estimated_order, order - deficit, order + deficit)
    return report


def cmd_zero_curvature(cfg: RunConfig, out: Path, quiet: bool) -> Report:
    opts = cfg.zero_curvature
    x, t = opts["x"], opts["t"]
    zetas = laxpair.default_zeta_samples()
    report = Report("zero_curvature_report.csv")
    for order in (2, 4):
        lo, hi = cfg.tolerances[f"zc_order{order}_band"]
        spacings = opts[f"order{order}_spacings"]
        # sups[j][iz]: sup norm of the residual at spacing j and sample iz
        res = laxpair.zero_curvature_residual(cfg.fields, cfg.params, zetas, x, t, spacings, order)
        sups = np.abs(res).max(axis=(-2, -1)).tolist()
        for iz in range(len(zetas)):
            for j in range(len(sups) - 1):
                ratio = sups[j][iz] / sups[j + 1][iz] if sups[j + 1][iz] > 0 else float("inf")
                report.check_band(f"zc_o{order}_z{iz}_ratio{j}", ratio, lo, hi)
    return report


def cmd_rh_check(cfg: RunConfig, out: Path, quiet: bool) -> Report:
    opts = cfg.rh_check
    x, t = opts["x"], opts["t"]
    tol = cfg.tolerances
    rng = np.random.default_rng(opts["seed"])
    data, params = cfg.spectral, cfg.params
    report = Report("rh_report.csv")

    report.check_le("kernel_max", rh.kernel_report(data, params, x, t), tol["kernel"])

    poles = np.concatenate([data.zetas(), np.conj(data.zetas())])

    def samples(n: int, draw) -> np.ndarray:
        # draw(i) proposes the i-th sample; one within 1e-3 of a pole is redrawn
        zs = []
        while len(zs) < n:
            z = draw(len(zs))
            if np.abs(z - poles).min() > 1e-3:
                zs.append(z)
        return np.array(zs)

    zs = samples(opts["n_symmetry"], lambda i: complex(rng.uniform(-2, 2), rng.uniform(-2, -0.05)))
    lhs = np.conj(rh.rh_plus(np.conj(zs), data, params, x, t)).swapaxes(-1, -2)
    sym = np.abs(lhs - rh.rh_minus(zs, data, params, x, t)).max(axis=(-2, -1))
    report.check_le("symmetry_max", _worst(sym), tol["symmetry"])

    n_prod = opts["n_product"]
    zs = samples(
        n_prod,
        lambda i: complex(rng.uniform(-2, 2), 0.0 if i < n_prod // 2 else rng.uniform(-2, 2)),
    )
    m = rh.rh_minus(zs, data, params, x, t) @ rh.rh_plus(zs, data, params, x, t)
    prod = np.abs(m - np.eye(3)).max(axis=(-2, -1))
    report.check_le("product_max", _worst(prod), tol["product"])

    rec = []
    xs = np.linspace(cfg.grid.x_min, cfg.grid.x_max, 9)
    qrs = [rh.reconstruct(data, params, float(xx), t) for xx in xs]
    # the evaluator is pointwise, so one batch gives each point's own value
    qe1, qe2 = cfg.fields(xs, t)
    for qr, e1, e2 in zip(qrs, qe1.tolist(), qe2.tolist()):
        rec += [abs(qr[0] - e1), abs(qr[1] - e2)]
    report.check_le("reconstruct_max", _worst(rec), tol["reconstruct"])

    return report


def cmd_scatter(cfg: RunConfig, out: Path, quiet: bool) -> Report:
    opts = cfg.scatter
    tol = cfg.tolerances
    q, = sample(cfg.fields, opts["grid"], [0.0])
    tail = opts["tail_threshold"]

    report = Report("scatter_report.csv")
    for i, d in enumerate(cfg.spectral):
        s = rh.direct_scattering(q, complex(d.zeta), cfg.params, tail_threshold=tail)
        report.check_le(f"s11_zero_{i}", abs(s[0, 0]), tol["s11_zero"])
    refl, det = [], []
    for zr in opts["real_zetas"]:
        s = rh.direct_scattering(q, complex(zr), cfg.params, tail_threshold=tail)
        refl += [abs(s[1, 0]), abs(s[2, 0])]
        det.append(abs(np.linalg.det(s) - 1.0))
    report.check_le("reflection_max", _worst(refl), tol["reflection"])
    report.check_le("det_s_max_err", _worst(det), tol["det_s"])
    return report


def cmd_propagate(cfg: RunConfig, out: Path, quiet: bool) -> Report:
    opts = cfg.propagate
    tol = cfg.tolerances
    grid, snaps = opts["grid"], opts["snapshot_times"]
    q0, = sample(cfg.fields, grid, [0.0])
    report = Report("propagation_report.csv")
    steps = {}
    try:
        evolved = propagator.evolve(
            q0, cfg.params, opts["t_final"], opts["dt"], snaps,
            edge_threshold=opts["edge_threshold"],
            err_budget=STEP_BUDGET_SHARE * tol["propagate_linf"],
            stats=steps,
        )
    except (propagator.BlowupError, propagator.EdgeDecayError) as exc:
        if not quiet:
            print(f"  propagation aborted: {exc}")
        report.fail("propagation_completed", type(exc).__name__)
        return report
    if not quiet and steps:
        print(
            f"  {steps['steps']} steps taken, {steps['rejected']} rejected; "
            f"step {steps['h_min']:.6g} to {steps['h_max']:.6g}; "
            f"summed error estimate {steps['est_sum']:.3g}"
        )

    table = ["t,linf_error_q1,linf_error_q2"]
    templates = _row_templates(_x_column(grid), ",")
    for q, want, tt in zip(evolved, sample(cfg.fields, grid, snaps), snaps):
        err1, err2 = np.abs(q.values - want.values).max(axis=1).tolist()
        table.append(f"{_fmt(tt)},{_fmt(err1)},{_fmt(err2)}")
        _write_fields(out / f"snapshot_t{_time_tag(tt)}.csv", templates, q)
    _write_text(out / "propagation_table.csv", "\n".join(table) + "\n")

    mass0 = trapezoid_mass(q0)
    mass1 = trapezoid_mass(evolved[-1])
    drift = abs(mass1 - mass0) / mass0 if mass0 > 0 else 0.0
    # snaps ends at t_final, so err1 and err2 are the final snapshot's
    report.check_le("final_linf", max(err1, err2), tol["propagate_linf"])
    report.check_le("mass_drift", drift, tol["mass_drift"])
    return report


_COMMANDS = {
    "sample": cmd_sample,
    "residual": cmd_residual,
    "zero-curvature": cmd_zero_curvature,
    "rh-check": cmd_rh_check,
    "scatter": cmd_scatter,
    "propagate": cmd_propagate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hirotalab",
        description="Verification laboratory for coupled-system soliton solutions",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="path to a JSON config (default: bundled)")
    parser.add_argument("--out", default=None, help="output directory (default: config output_dir)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    out = Path(args.out) if args.out is not None else Path(cfg.output_dir)
    if not args.quiet:
        print(f"{args.command}: N = {len(cfg.spectral)}, out = {out}")
    try:
        report = _COMMANDS[args.command](cfg, out, args.quiet)
        if report is None:
            return EXIT_OK
        report.write(out, args.quiet)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError) as exc:
        print(f"verification could not run: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK if report.all_pass else EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
