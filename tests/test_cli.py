import json
import re
from pathlib import Path

import numpy as np
import pytest

from hirotalab.core import sample
from hirotalab import cli, nsoliton, propagator, rh

from conftest import PAIR, exactly, nsoliton_doc

THIRD_ORDER = Path(__file__).resolve().parents[1] / "src/hirotalab/data/third_order_config.json"


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _third_order_doc():
    return json.loads(THIRD_ORDER.read_text())


def _report_rows(path):
    """name -> (value, pass) of a report CSV."""
    rows = path.read_text().strip().split("\n")[1:]
    return {name: (value, ok) for name, value, _, ok in (r.split(",") for r in rows)}


def test_default_config_loads_bundled_parameters():
    cfg = cli.load_config(None)
    assert cfg.params.k1 == 1.0 and cfg.params.epsilon == 1.0 and cfg.params.a2 == 1.0
    assert len(cfg.spectral) == 1
    d = cfg.spectral[0]
    assert d.zeta == 0.3 + 0.2j and d.alpha == 1.0 and d.beta == 1.0 and d.gamma == 2.0
    assert cfg.grid.nx == 401 and cfg.times == (-15.0, 0.0, 15.0)


def test_collision_config_holds_the_criterion_7_pair(third_order_params):
    cfg = cli.load_config(str(THIRD_ORDER.parent / "collision_config.json"))
    assert cfg.params == third_order_params and cfg.spectral == PAIR


def test_malformed_config_exits_with_validation_code(tmp_path, capsys):
    doc = _third_order_doc()
    doc["spectral"][0]["zeta"] = {"re": 0.3, "im": -0.2}
    path = _write_config(tmp_path, doc)
    code = cli.main(["sample", "--config", path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_VALIDATION
    message = capsys.readouterr().err
    assert "Im(zeta)" in message and "0" in message


def test_missing_field_reports_name(tmp_path, capsys):
    path = _write_config(tmp_path, {"params": {"epsilon": 1.0, "k1": 1.0, "a2": 0.0}})
    code = cli.main(["sample", "--config", path])
    assert code == cli.EXIT_VALIDATION
    assert "spectral" in capsys.readouterr().err


def _set(doc, path, value):
    """doc with the node at path (a tuple of keys) replaced by value; () replaces doc."""
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "path, value, prefix",
    [
        ((), [1, 2], "config must be a JSON object"),
        (("params", "epsilon"), None, "params:"),
        (("spectral",), 5, "spectral:"),
        (("spectral", 0, "zeta"), {"re": None, "im": 0.5}, "spectral:"),
        (("times",), 3, "times:"),
        (("output_dir",), None, "output_dir:"),
        (("params", "epsilon"), "abc", "params:"),
        (("grid", "x_min"), "abc", "grid:"),
        (("times",), ["abc"], "times:"),
        (("params",), [1, 2, 3], "params: expected an object, got [1, 2, 3]\n"),
        (("grid",), None, "grid: expected an object, got None\n"),
        ((), {}, "params: expected an object, got None\n"),
        (("params",), {"epsilon": 1.0, "a2": 0.0}, "params: missing keys ['k1'], expected keys of "),
    ],
    ids=[
        "top_level_list", "null_epsilon", "scalar_spectral", "null_zeta_re", "scalar_times",
        "null_output_dir", "string_epsilon", "string_x_min", "string_time", "params_list",
        "null_grid", "no_params", "params_missing_key",
    ],
)
def test_malformed_value_fails_at_load(tmp_path, capsys, path, value, prefix):
    config = _write_config(tmp_path, _set(_third_order_doc(), path, value))
    code = cli.main(["sample", "--config", config, "--out", str(tmp_path / "bad"), "--quiet"])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {prefix}") and "Traceback" not in err
    assert not (tmp_path / "bad").exists()


def test_sample_writes_expected_csv(tmp_path):
    doc = _third_order_doc()
    doc["times"] = [0.0]
    path = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main(["sample", "--config", path, "--out", str(out), "--quiet"]) == 0
    csv = (out / "fields_t0.csv").read_text()
    lines = csv.split("\n")
    assert lines[0] == "x,re_q1,im_q1,abs_q1,re_q2,im_q2,abs_q2"
    assert len(lines) == 1 + 401 + 1 and lines[-1] == ""
    first = lines[1].split(",")
    assert float(first[0]) == -20.0
    assert abs(float(first[3]) - np.hypot(float(first[1]), float(first[2]))) < 1e-15


def test_sample_is_byte_deterministic(tmp_path):
    doc = _third_order_doc()
    path = _write_config(tmp_path, doc)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["sample", "--config", path, "--out", str(out1), "--quiet"]) == 0
    assert cli.main(["sample", "--config", path, "--out", str(out2), "--quiet"]) == 0
    for name in ("fields_t-15.csv", "fields_t0.csv", "fields_t15.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_sample_no_times_writes_nothing(tmp_path):
    doc = _third_order_doc()
    doc["times"] = []
    path = _write_config(tmp_path, doc)
    out = tmp_path / "empty"
    assert cli.main(["sample", "--config", path, "--out", str(out), "--quiet"]) == 0
    assert not out.exists() or not list(out.iterdir())


def test_sample_emits_plot_scripts(tmp_path, monkeypatch):
    doc = _third_order_doc()
    doc["emit_plots"] = True
    doc["times"] = [0.0, 1.0]
    path = _write_config(tmp_path, doc)
    out = tmp_path / "plots"
    calls = []
    sample = cli.sample
    monkeypatch.setattr(cli, "sample", lambda *args: calls.append(args) or sample(*args))
    assert cli.main(["sample", "--config", path, "--out", str(out), "--quiet"]) == 0
    assert len(calls) == 1
    assert (out / "plot_slices.gp").exists()
    assert (out / "plot_surface.gp").exists()
    surface = (out / "surface.dat").read_text()
    assert surface.startswith("# x t abs_q1")


def _written_fields(tmp_path, q):
    path = tmp_path / "fields.csv"
    templates = cli._row_templates(cli._x_column(q.grid), ",")
    cli._write_fields(path, templates, q)
    return path.read_text()


def test_field_csv_rows_match_per_value_format(tmp_path):
    # one full block and 3 rows of a second, partial one
    grid = cli.Grid1D(-1.0, 1.0, cli.FIELD_BLOCK + 3)
    edges1 = [complex(-0.0, 5e-324), complex(1e308, -0.0), 0.1 + 0.2j, complex(-3e-310, 1e308)]
    edges2 = [complex(5e-324, -0.0), 1.0 / 3.0, complex(-1e308, -1e-300), 2.5 - 7.0j]
    rows = [(edges1 * grid.nx)[: grid.nx], (edges2 * grid.nx)[::-1][: grid.nx]]
    q = cli.SampledField(grid, 0.0, rows)
    lines = ["x,re_q1,im_q1,abs_q1,re_q2,im_q2,abs_q2"]
    for x, a, b in zip(grid.points(), *q.values):
        lines.append(
            ",".join(cli._fmt(v) for v in (x, a.real, a.imag, abs(a), b.real, b.imag, abs(b)))
        )
    text = _written_fields(tmp_path, q)
    assert text == "\n".join(lines) + "\n"
    assert ",-0," in text and "4.9406564584124654e-324" in text and "1e+308" in text


def test_field_csv_abs_columns_match_abs_of_each_value(tmp_path):
    # hypot of the parts prints as abs(complex) does, over 10,000 values of
    # wide-ranging magnitude
    rng = np.random.default_rng(20261019)
    grid = cli.Grid1D(0.0, 1.0, 5000)
    parts = rng.normal(size=(4, grid.nx)) * 10.0 ** rng.uniform(-300, 300, size=(4, grid.nx))
    q = cli.SampledField(grid, 0.0, parts[0::2] + 1j * parts[1::2])
    rows = [r.split(",") for r in _written_fields(tmp_path, q).split("\n")[1:-1]]
    assert [r[3] for r in rows] == [cli._fmt(abs(z)) for z in q.values[0].tolist()]
    assert [r[6] for r in rows] == [cli._fmt(abs(z)) for z in q.values[1].tolist()]


def test_unwritable_output_is_io_error(tmp_path, capsys):
    doc = _third_order_doc()
    path = _write_config(tmp_path, doc)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    # sample writes its own files; rh-check's one file is its report, which main writes
    for command in ("sample", "rh-check"):
        code = cli.main([command, "--config", path, "--out", str(blocker / "sub"), "--quiet"])
        assert code == cli.EXIT_IO


def test_rh_check_passes_on_both_bundled_configs(tmp_path):
    out = tmp_path / "rh"
    assert cli.main(["rh-check", "--out", str(out), "--quiet"]) == 0
    report = (out / "rh_report.csv").read_text().strip().split("\n")
    assert report[0] == "name,value,threshold,pass"
    assert len(report) == 5 and all(r.endswith(",true") for r in report[1:])
    assert cli.main(["rh-check", "--config", str(THIRD_ORDER), "--out", str(out), "--quiet"]) == 0


def test_rh_check_evaluates_reconstruct_points_in_one_call(tmp_path, monkeypatch):
    calls = []
    batch = nsoliton.fields_batch

    def counted(data, p, x, t):
        calls.append(np.shape(x))
        return batch(data, p, x, t)

    def report(name):
        out = tmp_path / name
        assert cli.main(["rh-check", "--config", str(THIRD_ORDER), "--out", str(out), "--quiet"]) == 0
        return (out / "rh_report.csv").read_bytes()

    reference = report("reference")
    monkeypatch.setattr(nsoliton, "fields_batch", counted)
    # the nine reconstruct points go to the evaluator in one batch, and the
    # report is the same as without the counting wrapper
    assert report("counted") == reference
    assert calls == [(9,)]


@pytest.mark.parametrize(
    "target, value, failing",
    [
        ("rh_minus", np.full((3, 3), complex(np.nan)), {"kernel_max", "symmetry_max", "product_max"}),
        ("reconstruct", (complex(np.nan), complex(np.nan)), {"reconstruct_max"}),
    ],
)
def test_rh_check_nan_fails_its_rows(tmp_path, monkeypatch, target, value, failing):
    monkeypatch.setattr(rh, target, lambda *args: value)
    out = tmp_path / "rh"
    code = cli.main(["rh-check", "--config", str(THIRD_ORDER), "--out", str(out), "--quiet"])
    assert code == cli.EXIT_VERIFICATION
    rows = _report_rows(out / "rh_report.csv")
    assert {name for name, (_, ok) in rows.items() if ok == "false"} == failing
    assert all(rows[name][0] == "nan" for name in failing)


def test_scatter_nan_fails_real_axis_rows(tmp_path, monkeypatch):
    scattering = rh.direct_scattering

    def nan_on_real_axis(q, zeta, *args, **kwargs):
        if zeta.imag == 0.0:
            return np.full((3, 3), complex(np.nan))
        return scattering(q, zeta, *args, **kwargs)

    monkeypatch.setattr(rh, "direct_scattering", nan_on_real_axis)
    out = tmp_path / "sc"
    code = cli.main(["scatter", "--config", str(THIRD_ORDER), "--out", str(out), "--quiet"])
    assert code == cli.EXIT_VERIFICATION
    rows = _report_rows(out / "scatter_report.csv")
    assert rows["s11_zero_0"][1] == "true"
    assert rows["reflection_max"] == ("nan", "false")
    assert rows["det_s_max_err"] == ("nan", "false")


def test_residual_verdicts_differ_by_sector(tmp_path):
    default = json.loads((THIRD_ORDER.parent / "default_config.json").read_text())
    for order, spacings in ((2, [0.1, 0.05, 0.025]), (4, [0.2, 0.1, 0.05])):
        fast = {"order": order, "spacings": spacings, "t_center": 0.5}
        doc = _third_order_doc()
        doc["residual"] = fast
        path = _write_config(tmp_path, doc, f"third{order}.json")
        out = tmp_path / f"r0_{order}"
        assert cli.main(["residual", "--config", path, "--out", str(out), "--quiet"]) == 0

        path = _write_config(tmp_path, dict(default, residual=fast), f"default{order}.json")
        out = tmp_path / f"r1_{order}"
        code = cli.main(["residual", "--config", path, "--out", str(out), "--quiet"])
        assert code == cli.EXIT_VERIFICATION
        rows = (out / "residual_report.csv").read_text().strip().split("\n")[1:]
        assert all(r.endswith(",false") for r in rows)
        ladder = (out / "residual_ladder.csv").read_text().strip().split("\n")
        assert ladder[0] == "h,sup_norm_q1,sup_norm_q2" and len(ladder) == 4


def test_residual_fails_a_slope_above_the_order(tmp_path, monkeypatch):
    # the a2 = 0 plane wave (A, B) e^{i(kx - wt)} with w off by a relative
    # 1e-3: its defect cancels part of the truncation error on this ladder,
    # so the q1 slope reads about 4.1 on the order-2 ladder
    amps, k = (0.3 + 0.1j, -0.2j), 0.9
    omega = k**3 - 6.0 * (abs(amps[0]) ** 2 + abs(amps[1]) ** 2) * k

    def detuned(data, p, x, t):
        wave = np.exp(1j * (k * x - 1.001 * omega * t))
        return amps[0] * wave, amps[1] * wave

    monkeypatch.setattr(nsoliton, "fields_batch", detuned)
    doc = _third_order_doc()
    doc["grid"] = {"x_min": -10.0, "x_max": 10.0, "nx": 201}
    doc["residual"] = {"order": 2, "spacings": [0.1, 0.05, 0.025], "t_center": 0.3}
    out = tmp_path / "res"
    code = cli.main(["residual", "--config", _write_config(tmp_path, doc), "--out", str(out), "--quiet"])
    assert code == cli.EXIT_VERIFICATION
    rows = _report_rows(out / "residual_report.csv")
    assert float(rows["residual_order_q1"][0]) > 2.2 and rows["residual_order_q1"][1] == "false"
    thresholds = [r.split(",")[2] for r in (out / "residual_report.csv").read_text().split("\n")[1:-1]]
    # the band is order -+ residual_order_deficit, printed at 17 digits
    assert thresholds == ["1.8..2.2000000000000002"] * 2


def test_zero_curvature_verdicts_differ_by_sector(tmp_path):
    assert (
        cli.main(["zero-curvature", "--config", str(THIRD_ORDER), "--out", str(tmp_path / "z0"), "--quiet"])
        == 0
    )
    assert cli.main(["zero-curvature", "--out", str(tmp_path / "z1"), "--quiet"]) == cli.EXIT_VERIFICATION


def test_zero_curvature_evaluates_each_ladder_in_one_call(tmp_path, monkeypatch):
    calls = []
    batch = nsoliton.fields_batch

    def counted(data, p, x, t):
        calls.append(np.shape(x))
        return batch(data, p, x, t)

    def report(name):
        out = tmp_path / name
        assert cli.main(["zero-curvature", "--config", str(THIRD_ORDER), "--out", str(out), "--quiet"]) == 0
        return (out / "zero_curvature_report.csv").read_bytes()

    reference = report("reference")
    monkeypatch.setattr(nsoliton, "fields_batch", counted)
    # one batched call per ladder of 3 spacings: (2 * 2 + 1) centres of a
    # 3-point stencil at order 2, (2 * 4 + 1) of a 5-point one at order 4
    assert report("counted") == reference
    assert calls == [(5, 3, 3), (9, 3, 5)]
    names = [r.split(",")[0] for r in reference.decode().split("\n")[1:-1]]
    assert names == [
        f"zc_o{order}_z{iz}_ratio{j}" for order in (2, 4) for iz in range(10) for j in range(2)
    ]


@pytest.mark.parametrize("seed", [11, 12, 13, 9701])
def test_exact_eight_soliton_data_pass_residual_and_zero_curvature(tmp_path, seed):
    # exact a2 = 0 data: a FAIL here is the evaluator's error, not the data's
    path = _write_config(tmp_path, nsoliton_doc(seed))
    for command in ("residual", "zero-curvature"):
        out = str(tmp_path / command)
        assert cli.main([command, "--config", path, "--out", out, "--quiet"]) == cli.EXIT_OK


@pytest.mark.parametrize("seed", [11, 12, 13, 9701, 308])
def test_exact_eight_soliton_data_pass_scatter(tmp_path, seed):
    # default scatter section and tolerances: det_s_max_err reads 0.97e-9 to
    # 1.5e-9 on seeds 11-9701 and 3.6e-9 on seed 308, the worst of seeds
    # 100-399, against 1e-8
    path = _write_config(tmp_path, nsoliton_doc(seed))
    assert cli.main(["scatter", "--config", path, "--out", str(tmp_path), "--quiet"]) == cli.EXIT_OK


def test_scatter_smaller_domain(tmp_path):
    doc = _third_order_doc()
    doc["scatter"] = {
        "x_min": -30.0,
        "x_max": 30.0,
        "spacing": 0.02,
        "real_zetas": [0.5],
        "tail_threshold": 1e-5,
    }
    path = _write_config(tmp_path, doc)
    out = tmp_path / "sc"
    assert cli.main(["scatter", "--config", path, "--out", str(out), "--quiet"]) == 0
    rows = (out / "scatter_report.csv").read_text().strip().split("\n")
    assert rows[0] == "name,value,threshold,pass"
    assert rows[1].startswith("s11_zero_0,")


def test_two_soliton_config_passes_residual_and_rh(tmp_path):
    doc = _third_order_doc()
    doc["spectral"].append(
        {
            "zeta": {"re": -0.25, "im": 0.6},
            "alpha": {"re": 1.0, "im": 0.0},
            "beta": {"re": 0.5, "im": 0.3},
            "gamma": {"re": 1.1, "im": 0.0},
        }
    )
    path = _write_config(tmp_path, doc)
    assert cli.main(["rh-check", "--config", path, "--out", str(tmp_path / "n2rh"), "--quiet"]) == 0
    assert cli.main(["residual", "--config", path, "--out", str(tmp_path / "n2res"), "--quiet"]) == 0


def test_propagate_passes_in_third_order_sector(tmp_path):
    doc = _third_order_doc()
    doc["propagate"] = {
        "length": 80.0,
        "n": 512,
        "dt": 1e-3,
        "t_final": 0.05,
        "snapshots": [0.05],
        "edge_threshold": 1e-9,
    }
    path = _write_config(tmp_path, doc)
    out = tmp_path / "p0"
    assert cli.main(["propagate", "--config", path, "--out", str(out), "--quiet"]) == 0
    table = (out / "propagation_table.csv").read_text().strip().split("\n")
    assert table[0] == "t,linf_error_q1,linf_error_q2"
    assert (out / "snapshot_t0.05.csv").exists()


def test_propagate_reports_blowup_on_default_config(tmp_path):
    out = tmp_path / "p1"
    assert cli.main(["propagate", "--out", str(out), "--quiet"]) == cli.EXIT_VERIFICATION
    report = (out / "propagation_report.csv").read_text()
    assert "propagation_completed" in report and "BlowupError" in report


def test_propagate_abort_line_names_step_and_growth_rate(tmp_path, capsys):
    out = tmp_path / "p2"
    assert cli.main(["propagate", "--out", str(out)]) == cli.EXIT_VERIFICATION
    printed = capsys.readouterr().out.splitlines()
    lines = [row for row in printed if "propagation aborted" in row]
    assert len(lines) == 1 and "(step 7)" in lines[0]
    assert sum("[FAIL] propagation_completed" in row for row in printed) == 1
    # 2 a2 k_nyq^2 for the bundled grid, k_nyq = 2 pi 512 / 80
    assert f"2 a2 k_nyq^2 = {2.0 * (2 * np.pi * 512 / 80.0) ** 2:.6g}" in lines[0]
    assert (out / "propagation_report.csv").read_bytes() == (
        b"name,value,threshold,pass\npropagation_completed,nan,BlowupError,false\n"
    )


def test_abort_growth_rate_is_the_highest_bins_measured_rate():
    # the default run ends on bin n//2: the dealias mask zeroes it, but the
    # integrating factor amplifies it at 2 a2 k_nyq^2 (3234.07), not at the
    # 1434.56 of the largest retained mode
    cfg = cli.load_config(None)
    opts = cfg.propagate
    grid, dt, edge = opts["grid"], opts["dt"], opts["edge_threshold"]
    q0, = sample(cfg.fields, grid, [0.0])
    snaps = propagator.evolve(q0, cfg.params, 5 * dt, dt, [i * dt for i in range(6)], edge_threshold=edge)
    amp = np.abs(np.fft.fft(np.stack([q.values for q in snaps]))[:, :, grid.nx // 2])
    measured = np.log(amp[5] / amp[1]) / (4 * dt)
    with pytest.raises(propagator.BlowupError) as info:
        propagator.evolve(q0, cfg.params, opts["t_final"], dt, opts["snapshot_times"], edge_threshold=edge)
    assert info.value.step == 7
    assert measured == pytest.approx([info.value.growth_rate] * 2, rel=1e-9)


def _step_line(printed):
    """(steps, rejected, h_min, h_max, est_sum) of propagate's one step line."""
    lines = [row for row in printed.splitlines() if "steps taken" in row]
    assert len(lines) == 1
    steps, rejected, h_min, h_max, est = re.fullmatch(
        r"  (\d+) steps taken, (\d+) rejected; step (\S+) to (\S+); summed error estimate (\S+)", lines[0]
    ).groups()
    return int(steps), int(rejected), float(h_min), float(h_max), float(est)


def test_propagate_prints_its_step_line(tmp_path, capsys):
    # one line: steps kept and rejected, the smallest and largest step and
    # the summed estimate; the report CSV keeps its columns
    doc = _third_order_doc()
    doc["propagate"] = dict(doc["propagate"], n=512, t_final=0.05, snapshots=[0.05])
    path = _write_config(tmp_path, doc)
    out = tmp_path / "p"
    assert cli.main(["propagate", "--config", path, "--out", str(out)]) == 0
    steps, rejected, h_min, h_max, est = _step_line(capsys.readouterr().out)
    budget = cli.STEP_BUDGET_SHARE * cli.DEFAULT_TOLERANCES["propagate_linf"]
    assert 0 < steps < 50 and h_min == 1e-3 <= h_max and 0.0 < est <= budget
    assert (out / "propagation_report.csv").read_text().split("\n")[0] == "name,value,threshold,pass"
    assert cli.main(["propagate", "--config", path, "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_bundled_third_order_run_steps_at_its_stability_bound(tmp_path, capsys):
    # 16e-3 would give dt nu_max^3 |eps| = 1.24 > 1, so 8e-3 is the top level;
    # the error and drift stay far inside their tolerances
    out = tmp_path / "p3"
    assert cli.main(["propagate", "--config", str(THIRD_ORDER), "--out", str(out)]) == 0
    steps, rejected, _, h_max, _ = _step_line(capsys.readouterr().out)
    assert h_max == 8e-3 and rejected == 0 and steps <= 130
    rows = _report_rows(out / "propagation_report.csv")
    assert float(rows["final_linf"][0]) <= 2e-9 and float(rows["mass_drift"][0]) <= 1e-10


@pytest.mark.parametrize(
    "change",
    [
        {"snapshots": [0.0505]},
        {"t_final": 0.0505, "snapshots": []},
        {"dt": -1e-3},
        {"length": 0.0},
        {"n": 1000.5},
        {"edge_threshold": float("nan")},
        {"edge_threshold": -1},
        {"edge_threshold": "abc"},
        {"dt": 0.02, "t_final": 0.04, "snapshots": [0.04]},
        {"n": "1024"},
        {"length": -80.0},
        {"length": float("inf")},
        {"n": 1},
    ],
    ids=[
        "snapshot_off_dt",
        "t_final_off_dt",
        "negative_dt",
        "zero_length",
        "fractional_n",
        "nan_edge_threshold",
        "negative_edge_threshold",
        "string_edge_threshold",
        "unstable_dt",
        "string_n",
        "negative_length",
        "infinite_length",
        "n_one",
    ],
)
def test_invalid_propagate_section_fails_at_load(tmp_path, capsys, change):
    doc = _third_order_doc()
    doc["propagate"] = {**doc["propagate"], "t_final": 0.1, "snapshots": [0.1], **change}
    path = _write_config(tmp_path, doc)
    code = cli.main(["propagate", "--config", path, "--out", str(tmp_path / "bad"), "--quiet"])
    assert code == cli.EXIT_VALIDATION
    assert "configuration error: propagate:" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_overflowing_integrating_factor_fails_at_load(tmp_path, capsys):
    # eps = 0 passes the dispersion bound, and exp(2 a2 k^2 dt) overflows at
    # the Nyquist bin of the default grid, k = 2 pi 512 / 80
    doc = json.loads((THIRD_ORDER.parent / "default_config.json").read_text())
    doc["params"]["epsilon"] = 0.0
    doc["propagate"]["dt"] = 0.25
    path = _write_config(tmp_path, doc)
    code = cli.main(["propagate", "--config", path, "--out", str(tmp_path / "bad"), "--quiet"])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("configuration error: propagate: 2 a2 k_nyq^2 dt = 809 exceeds 700; reduce dt")
    assert not (tmp_path / "bad").exists()


def test_snapshots_sharing_a_file_tag_fail_at_load():
    # both snapshots would write snapshot_t1.csv; only loaded, since the
    # schedule is 10^7 steps
    doc = _third_order_doc()
    doc["propagate"] = {**doc["propagate"], "dt": 1e-7, "t_final": 1.0000002, "snapshots": [1.0000001]}
    with pytest.raises(ValueError, match="^propagate: snapshots: "):
        cli.parse_config(doc)


@pytest.mark.parametrize(
    "where, key, message",
    [
        (
            "top",
            "scater",
            "scater: unknown top-level key, expected keys of ['emit_plots', 'grid', 'output_dir', "
            "'params', 'propagate', 'residual', 'rh_check', 'scatter', 'spectral', 'times', "
            "'tolerances', 'zero_curvature']",
        ),
        ("params", "a3", "params: unknown keys ['a3'], expected keys of ['a2', 'epsilon', 'k1']"),
        ("grid", "spacing", "grid: unknown keys ['spacing'], expected keys of ['nx', 'x_max', 'x_min']"),
        (
            "spectral",
            "gama",
            "spectral: spectral[0]: unknown keys ['gama'], "
            "expected keys of ['alpha', 'beta', 'gamma', 'zeta']",
        ),
    ],
    ids=["top", "params", "grid", "spectral"],
)
def test_unknown_keys_are_named_at_load(where, key, message):
    # a key no reader defines would otherwise be ignored, its default used
    doc = _third_order_doc()
    node = {"top": doc, "params": doc["params"], "grid": doc["grid"], "spectral": doc["spectral"][0]}
    node[where][key] = 0.5
    with pytest.raises(ValueError, match=exactly(message)):
        cli.parse_config(doc)


@pytest.mark.parametrize(
    "section, change",
    [
        ("residual", {"order": 3}),
        ("residual", {"spacings": [0.1, 0.0, -0.1]}),
        ("zero_curvature", {"order2_spacings": [2e-2, -1e-2, 5e-3]}),
        ("zero_curvature", {"order4_spacings": [0.2, 0.1, 0.0]}),
        ("scatter", {"spacing": 0.0}),
        ("scatter", {"spacing": -0.01}),
        ("scatter", {"x_min": 60.0, "x_max": -60.0}),
        ("scatter", {"x_max": -60.0}),
        ("scatter", {"tail_threshold": 0.0}),
        ("scatter", {"real_zetas": [0.5, 11.0]}),
        ("scatter", {"spacing": 0.2, "real_zetas": [0.3]}),
        ("rh_check", {"n_symmetry": -3}),
        ("rh_check", {"n_product": 0}),
        ("rh_check", {"n_symmetry": 2.5}),
        ("rh_check", {"seed": -1}),
        ("rh_check", {"t": float("inf")}),
        ("scatter", {"real_zetas": [float("nan")]}),
        ("zero_curvature", {"x": float("nan")}),
        ("zero_curvature", {"t": float("inf")}),
        ("residual", {"t_center": float("nan")}),
        ("times", [float("nan")]),
        ("times", [0.0, float("inf")]),
        ("tolerances", {"kernel": "abc"}),
        ("tolerances", {"symmetry": float("nan")}),
        ("tolerances", {"kernal": 1e-10}),
        ("tolerances", {"zc_order2_band": [4.5, 3.5]}),
        ("tolerances", {"zc_order4_band": 16.0}),
        ("tolerances", {"zc_order4_band": [14.0, float("inf")]}),
        ("residual", {"spacing": [0.2, 0.1, 0.05]}),
        ("grid", {"nx": 400.7}),
        ("emit_plots", "false"),
        ("residual", {"spacings": [0.1, 0.05]}),
        ("residual", {"spacings": [0.1, 0.07, 0.025]}),
        ("residual", {"spacings": [30, 15, 7.5]}),
        ("residual", {"order": 4, "spacings": [8, 4, 2]}),
        ("zero_curvature", {"order2_spacings": [0.01]}),
        ("zero_curvature", {"order4_spacings": []}),
        ("scatter", {"real_zetas": []}),
        ("residual", {"spacings": "421"}),
        ("times", "12"),
        ("spectral", ""),
        ("spectral", []),
        ("spectral", [{"zeta": {"re": "0.3", "im": 0.2}, "alpha": 1.0, "beta": 1.0, "gamma": 2.0}]),
        ("rh_check", {"seed": True}),
        ("params", {"epsilon": True}),
        ("grid", {"nx": "401"}),
        ("tolerances", {"kernel": "1e-10"}),
        ("times", [1.0000001, 1.0000002]),
        ("scater", {"spacing": 0.01}),
        ("tolerance", {"kernel": 1e-300}),
        ("params", {"a3": 1.0}),
        ("grid", {"spacing": 0.1}),
        (
            "spectral",
            [{"zeta": {"re": 0.3, "im": 0.55}, "alpha": 1.0, "beta": 0.6, "gamma": 0.8, "gama": 0.8}],
        ),
        ("zero_curvature", {"order2_spacings": [float("inf"), 0.01]}),
        ("zero_curvature", {"order2_spacings": [0.02, 0.005]}),
        ("zero_curvature", {"order4_spacings": [0.2, 0.08]}),
        ("zero_curvature", {"order2_spacings": [0.02, 0.01, 0.004]}),
        ("residual", {"spacings": [float("inf"), 0.1, 0.05]}),
        ("zero_curvature", {"order4_spacings": [1e300, 5e299]}),
        # what load builds from a section is not a key of it
        ("scatter", {"grid": [-60.0, 60.0, 8001]}),
        ("propagate", {"snapshot_times": [1.0]}),
        # an infinite threshold would switch its guard off
        ("scatter", {"tail_threshold": float("inf")}),
        ("propagate", {"edge_threshold": float("inf")}),
    ],
    ids=[
        "residual_order_3",
        "residual_nonpositive_spacing",
        "zc_negative_order2_spacing",
        "zc_zero_order4_spacing",
        "scatter_zero_spacing",
        "scatter_negative_spacing",
        "scatter_reversed_bounds",
        "scatter_empty_interval",
        "scatter_zero_tail_threshold",
        "scatter_real_zeta_phase_step",
        "scatter_eigenvalue_phase_step",
        "rh_negative_n_symmetry",
        "rh_zero_n_product",
        "rh_fractional_n_symmetry",
        "rh_negative_seed",
        "rh_infinite_t",
        "scatter_nan_real_zeta",
        "zc_nan_x",
        "zc_infinite_t",
        "residual_nan_t_center",
        "nan_time",
        "infinite_time",
        "tolerances_string_kernel",
        "tolerances_nan_symmetry",
        "tolerances_misspelled_key",
        "tolerances_reversed_band",
        "tolerances_scalar_band",
        "tolerances_infinite_band",
        "residual_unknown_key",
        "grid_fractional_nx",
        "emit_plots_string",
        "residual_two_spacings",
        "residual_non_geometric_ladder",
        "residual_rung_below_order2_stencil",
        "residual_rung_below_order4_stencil",
        "zc_single_order2_spacing",
        "zc_empty_order4_spacings",
        "scatter_no_real_zetas",
        "residual_string_spacings",
        "times_string",
        "spectral_string",
        "spectral_empty",
        "spectral_string_re",
        "rh_boolean_seed",
        "params_boolean_epsilon",
        "grid_string_nx",
        "tolerances_numeric_string_kernel",
        "times_sharing_a_file_tag",
        "misspelled_scatter_section",
        "misspelled_tolerances_section",
        "params_unknown_key",
        "grid_unknown_key",
        "spectral_unknown_key",
        "zc_infinite_order2_spacing",
        "zc_order2_ladder_ratio_4",
        "zc_order4_ladder_ratio_2.5",
        "zc_order2_ladder_two_ratios",
        "residual_infinite_spacing",
        "zc_order4_spacing_square_overflows",
        "scatter_derived_grid",
        "propagate_derived_snapshot_times",
        "scatter_infinite_tail_threshold",
        "propagate_infinite_edge_threshold",
    ],
)
def test_invalid_command_section_fails_at_load(tmp_path, capsys, section, change):
    doc = _third_order_doc()
    doc[section] = {**doc.get(section, {}), **change} if isinstance(change, dict) else change
    path = _write_config(tmp_path, doc)
    # a command that reads the section
    readers = {
        "params": "sample",
        "spectral": "sample",
        "times": "sample",
        "grid": "sample",
        "emit_plots": "sample",
        "tolerances": "zero-curvature",
        "scater": "scatter",
        "tolerance": "rh-check",
    }
    command = readers.get(section, section.replace("_", "-"))
    code = cli.main([command, "--config", path, "--out", str(tmp_path / "bad"), "--quiet"])
    assert code == cli.EXIT_VALIDATION
    assert f"configuration error: {section}:" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize(
    "section, change, message",
    [
        (
            "residual",
            {"spacings": [float("inf"), 0.1, 0.05]},
            "residual: spacings must be finite, got inf",
        ),
        (
            "zero_curvature",
            {"order4_spacings": [1e300, 5e299]},
            "zero_curvature: order4_spacings: spacing 1e+300 must be positive with a finite h**3",
        ),
        (
            "zero_curvature",
            {"order2_spacings": [0.02, 0.005]},
            "zero_curvature: order2_spacings: spacings must fall by a ratio of 2 at each rung, got 4",
        ),
        (
            "residual",
            {"spacings": [4e-30, 2e-30, 1e-30]},
            "residual: spacing 1e-30 needs more than 100000 nodes over the grid",
        ),
        # only loaded: a scatter run would sample two complex rows of 120000001 nodes
        (
            "scatter",
            {"spacing": 1e-6},
            "scatter: spacing 1e-06 needs more than 100000 nodes over the grid",
        ),
    ],
    ids=[
        "residual_infinite_spacing",
        "zc_spacing_square_overflows",
        "zc_ladder_ratio_4",
        "residual_finest_rung_over_node_cap",
        "scatter_grid_over_node_cap",
    ],
)
def test_spacing_ladder_faults_are_named_at_load(section, change, message):
    # each fault is refused at load with a message that names the spacing or ratio
    doc = _third_order_doc()
    doc[section] = {**doc.get(section, {}), **change}
    with pytest.raises(ValueError, match=exactly(message)):
        cli.parse_config(doc)


@pytest.mark.parametrize(
    "section, change, message",
    [
        ("propagate", {"dt": 5e-324}, "propagate: dt = 5e-324 gives no finite step count over t_final = 1.0"),
        ("scatter", {"spacing": 5e-324}, "scatter: spacing 5e-324 gives no finite node count over [-60.0, 60.0]"),
        ("grid", {"nx": 1}, "grid: grid requires nx >= 2, got 1"),
        ("grid", {"nx": 1e6}, "grid: nx = 1000000 needs more than 100000 nodes over the grid"),
        ("grid", {"nx": 1e17}, "grid: nx = 100000000000000000 needs more than 100000 nodes over the grid"),
        # about the bundled spacing, which the stability bound admits at any epsilon
        (
            "propagate",
            {"n": 1e8, "length": 8e6},
            "propagate: n = 100000000 needs more than 100000 nodes over the grid",
        ),
    ],
    ids=[
        "subnormal_dt",
        "subnormal_scatter_spacing",
        "grid_nx_one",
        "grid_nx_1e6",
        "grid_nx_1e17",
        "propagate_n_1e8",
    ],
)
def test_step_and_node_count_faults_name_their_value(section, change, message):
    doc = _third_order_doc()
    doc[section] = {**doc[section], **change}
    with pytest.raises(ValueError, match=exactly(message)):
        cli.parse_config(doc)


@pytest.mark.parametrize("n", [1000, 1023])
def test_propagate_accepts_any_point_count(tmp_path, n):
    doc = _third_order_doc()
    doc["propagate"] = dict(doc["propagate"], n=n, t_final=0.05, snapshots=[0.05])
    path = _write_config(tmp_path, doc)
    assert cli.main(["propagate", "--config", path, "--out", str(tmp_path / "p"), "--quiet"]) == 0


def test_propagate_snapshot_rows_hold_the_field_at_their_printed_x(tmp_path):
    # 80 / 321 is inexact: every row of the t = 0 snapshot must carry the
    # analytic field's bits at the x that row prints
    doc = _third_order_doc()
    doc["propagate"] = dict(doc["propagate"], n=321, dt=1e-3, t_final=0.01, snapshots=[0.0, 0.01])
    path = _write_config(tmp_path, doc)
    out = tmp_path / "p"
    assert cli.main(["propagate", "--config", path, "--out", str(out), "--quiet"]) == 0
    lines = (out / "snapshot_t0.csv").read_text().split("\n")[1:-1]
    rows = np.array([[float(v) for v in line.split(",")] for line in lines])
    assert rows.shape == (321, 7)
    cfg = cli.parse_config(doc)
    q = nsoliton.fields_batch(cfg.spectral, cfg.params, rows[:, 0], 0.0)
    want = np.column_stack([c for v in q for c in (v.real, v.imag, np.hypot(v.real, v.imag))])
    assert np.array_equal(rows[:, 1:].view(np.int64), want.view(np.int64))
