import inspect
from types import SimpleNamespace

import numpy as np
import pytest

from vicontrol import cli, errors, vi_solver
from vicontrol.assembly import ProblemData
from vicontrol.cli import _build_parser, main
from vicontrol.control import CONJECTURE_TOL
from vicontrol.convergence import StudySession, alpha_sweep_state, diagram
from vicontrol.presets import box_control


def read_csv(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_constant_preset_state_is_one(tmp_path):
    out = tmp_path / "run"
    assert main(["state", "--preset", "constant-v1", "--out", str(out)]) == 0
    header, rows = read_csv(out / "state.csv")
    assert header == ["x", "y", "u"]
    u = np.array([float(r[2]) for r in rows])
    np.testing.assert_allclose(u, 1.0, atol=1e-9)
    report = (out / "report.txt").read_text()
    assert "active_set_size: 0" in report


def test_contact_preset_has_active_nodes(tmp_path):
    out = tmp_path / "run"
    assert main(["state", "--preset", "contact-v1", "--set", "n=16",
                 "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    size = int(report.split("active_set_size: ")[1].split()[0])
    assert size > 0


def test_unknown_key_exits_2(tmp_path):
    code = main(["state", "--preset", "constant-v1", "--set", "bogus=1",
                 "--out", str(tmp_path / "x")])
    assert code == 2


def test_invalid_cost_weight_exits_2(tmp_path):
    code = main(["optimize", "--preset", "constant-v1", "--set", "M=-1",
                 "--out", str(tmp_path / "x")])
    assert code == 2


def test_unknown_preset_exits_2(tmp_path):
    assert main(["state", "--preset", "nope", "--out", str(tmp_path / "x")]) == 2


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 4\nalpha = 3.5\nb = 2.0\n# comment\nq = 0\n")
    out = tmp_path / "run"
    assert main(["state", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_csv(out / "state.csv")
    u = np.array([float(r[2]) for r in rows])
    np.testing.assert_allclose(u, 2.0, atol=1e-9)  # u == b when data is quiet


def test_malformed_config_file_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n 4\n")
    assert main(["state", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


def test_nonconvergence_exits_3(tmp_path):
    code = main(["state", "--preset", "contact-v1",
                 "--set", "solver=psor", "--set", "max_iter=2", "--set", "n=16",
                 "--out", str(tmp_path / "x")])
    assert code == 3


def test_dump_mesh_flag(tmp_path):
    out = tmp_path / "run"
    assert main(["state", "--preset", "constant-v1", "--set", "n=2",
                 "--out", str(out), "--dump-mesh"]) == 0
    lines = (out / "mesh.txt").read_text().splitlines()
    assert lines[0] == "nodes 9 triangles 8"


def test_optimize_writes_reports(tmp_path):
    out = tmp_path / "run"
    assert main(["optimize", "--preset", "contact-v1", "--set", "n=4",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out / "g_opt.csv")
    assert len(rows) == 25
    hist_header, hist = read_csv(out / "history.csv")
    js = [float(r[1]) for r in hist]
    assert all(b <= a for a, b in zip(js, js[1:]))


def test_optimize_huge_weight_gives_tiny_control(tmp_path):
    out = tmp_path / "run"
    assert main(["optimize", "--preset", "contact-v1", "--set", "n=4",
                 "--set", "M=1000000", "--set", "opt_tol=1e-5",
                 "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    gnorm = float(report.split("g_norm_H: ")[1].split()[0])
    assert gnorm <= 1e-6


def test_sweep_h_zero_case_notes_and_passes(tmp_path):
    out = tmp_path / "run"
    assert main(["sweep-h", "--preset", "constant-v1",
                 "--set", "levels=2,4,8,16", "--out", str(out)]) == 0
    text = (out / "rate_h_state.csv").read_text()
    assert "zero errors excluded from fit" in text or "usable rows" in text
    summary = (out / "summary.txt").read_text()
    assert "PASS" in summary


def test_sweep_h_contact_passes_floor(tmp_path):
    out = tmp_path / "run"
    assert main(["sweep-h", "--preset", "contact-v1",
                 "--set", "levels=4,8,16,32", "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "FAIL" not in summary


def test_sweep_alpha_insufficient_rows_exits_4(tmp_path):
    out = tmp_path / "run"
    code = main(["sweep-alpha", "--preset", "contact-v1", "--set", "n=4",
                 "--set", "alphas=2,4", "--out", str(out)])
    assert code == 4


def test_sweep_alpha_with_no_alphas_exits_2(tmp_path, capsys):
    # an empty list used to exit 0 with two PASS lines over a table of no rows
    out = tmp_path / "run"
    code = main(["sweep-alpha", "--preset", "contact-v1", "--set", "n=4",
                 "--set", "alphas=", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (out / "summary.txt").exists()


def test_sweep_alpha_contact_passes(tmp_path):
    out = tmp_path / "run"
    alphas = ",".join(str(2 ** k) for k in range(1, 9))
    assert main(["sweep-alpha", "--preset", "contact-v1", "--set", "n=8",
                 "--set", f"alphas={alphas}", "--out", str(out)]) == 0
    header, rows = read_csv(out / "rate_alpha_trace.csv")
    assert header == ["param", "value", "error", "norm"]
    assert rows[0][0] == "alpha_minus_1"


def test_conjecture_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["conjecture", "--preset", "contact-v1", "--set", "n=3",
            "--set", "trials=20", "--seed", "5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "conjecture.csv").read_bytes() == (b / "conjecture.csv").read_bytes()
    assert (a / "witnesses.csv").read_bytes() == (b / "witnesses.csv").read_bytes()


def test_witness_rows_match_their_conjecture_trials(tmp_path):
    out = tmp_path / "run"
    assert main(["conjecture", "--preset", "contact-v1", "--set", "n=2", "--set", "alpha=1000",
                 "--set", "trials=40", "--seed", "1", "--out", str(out)]) == 0
    _, trials = read_csv(out / "conjecture.csv")
    header, rows = read_csv(out / "witnesses.csv")
    assert header == ["trial", "kind", "mu", "node", "g1", "g2"]
    by_trial = {t[0]: t for t in trials}
    witnesses = [rows[k:k + 9] for k in range(0, len(rows), 9)]  # 9 nodes at n=2
    assert len(rows) == 9 * len(witnesses) and len(witnesses) == 12
    for w in witnesses:
        trial, kind, mu = w[0][:3]
        assert [r[:4] for r in w] == [[trial, kind, mu, str(i)] for i in range(9)]
        assert kind == "pointwise" and by_trial[trial][1] == mu
        assert float(by_trial[trial][2]) < -CONJECTURE_TOL
    pointwise = sorted(t[0] for t in trials if float(t[2]) < -CONJECTURE_TOL)
    assert sorted(w[0][0] for w in witnesses) == pointwise


def test_a_per_side_flux_matches_its_constant(tmp_path):
    # gamma1 is the bottom, so flux 1 on the other three sides is q = 1
    bodies = []
    for q in ("1", "right=1,top=1,left=1"):
        out = tmp_path / q
        assert main(["state", "--preset", "contact-v1", "--set", f"q={q}", "--out", str(out)]) == 0
        text = (out / "state.csv").read_text()
        bodies.append([ln for ln in text.splitlines() if not ln.startswith("#")])
    assert bodies[0] == bodies[1]


def test_the_cross_check_key_matches_its_flag(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["state", "--preset", "contact-v1", "--set", "n=8", "--set", "solver=psor"]
    assert main(args + ["--cross-check", "--out", str(a)]) == 0
    assert main(args + ["--set", "cross_check=on", "--out", str(b)]) == 0
    for name in ("state.csv", "report.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_state_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["state", "--preset", "contact-v1", "--set", "n=8"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "state.csv").read_bytes() == (b / "state.csv").read_bytes()


def test_psor_state_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["state", "--preset", "contact-v1", "--set", "n=16", "--set", "solver=psor"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "state.csv").read_bytes() == (b / "state.csv").read_bytes()


def test_interp_check_passes(tmp_path):
    out = tmp_path / "run"
    assert main(["interp-check", "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert summary.count("PASS") == 2


@pytest.mark.parametrize("levels, expected", [("", 2), ("4", 4), ("4,8", 4)])
def test_interp_check_with_too_few_levels(tmp_path, capsys, levels, expected):
    # an empty list exited 4 with "L2 order: n/a", where an empty alphas,
    # levels or diagram_levels list exits 2; one or two levels fit no order
    out = tmp_path / "run"
    code = main(["interp-check", "--set", f"interp_levels={levels}", "--out", str(out)])
    assert code == expected
    assert (out / "summary.txt").exists() == (expected == 4)
    if expected == 2:
        assert capsys.readouterr().err.startswith("configuration error: ")


def test_control_from_file(tmp_path):
    vals = np.linspace(-3.0, 1.0, 9)
    path = tmp_path / "g.txt"
    path.write_text("\n".join(str(v) for v in vals) + "\n")
    out = tmp_path / "run"
    assert main(["state", "--preset", "constant-v1", "--set", "n=2",
                 "--set", f"g=file:{path}", "--out", str(out)]) == 0
    short = tmp_path / "short.txt"
    short.write_text("1.0\n2.0\n")
    assert main(["state", "--preset", "constant-v1", "--set", "n=2",
                 "--set", f"g=file:{short}", "--out", str(out)]) == 2


def test_cli_optimize_methods_agree(tmp_path):
    js = {}
    for method, tol in (("proj_grad_adjoint", "1e-9"), ("coord_search", "1e-6")):
        out = tmp_path / method
        assert main(["optimize", "--preset", "contact-v1", "--set", "n=2",
                     "--set", f"opt_method={method}", "--set", f"opt_tol={tol}",
                     "--set", "opt_max_iter=20000", "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        js[method] = float(report.split("J_opt: ")[1].split()[0])
    assert js["proj_grad_adjoint"] == pytest.approx(js["coord_search"], abs=1e-6)


def test_headers_record_hash_and_preset(tmp_path):
    out = tmp_path / "run"
    main(["state", "--preset", "contact-v1", "--out", str(out)])
    head = (out / "state.csv").read_text().splitlines()[:4]
    assert head[0] == "# vicontrol state"
    assert head[1].startswith("# config-hash: ")
    assert head[2] == "# preset: contact-v1"
    assert "control-space" in head[3]


@pytest.mark.parametrize("setting", ["tol=nan", "tol=inf", "opt_tol=nan", "opt_tol=inf"])
def test_a_non_finite_tolerance_exits_2(tmp_path, setting):
    out = tmp_path / "run"
    code = main(["state", "--preset", "contact-v1", "--set", "n=8", "--set", "solver=psor",
                 "--set", setting, "--out", str(out)])
    assert code == 2
    assert not (out / "state.csv").exists()


_BAD_FLUXES = {
    "nan": "flux must be finite, got 'nan'",
    "inf": "flux must be finite, got 'inf'",
    "-inf": "flux must be finite, got '-inf'",
    "bottom=nan": "flux must be finite, got 'nan'",
    "bottom=1,top=inf": "flux must be finite, got 'inf'",
    "middle=1": "unknown side 'middle' in flux spec 'middle=1'",
    "abc": "bad flux specification 'abc'",
}


@pytest.mark.parametrize("q", _BAD_FLUXES)
def test_a_non_finite_flux_exits_2(tmp_path, capsys, q):
    out = tmp_path / "run"
    code = main(["state", "--preset", "contact-v1", "--set", "n=8", "--set", f"q={q}",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"configuration error: {_BAD_FLUXES[q]}\n"
    assert not (out / "state.csv").exists()


@pytest.mark.parametrize("box, message", [
    ("box:inf:0.25:0.75:0.25:0.75", "f(0.25, 0.25) = inf at node 6 is not finite"),
    ("box:nan:0:1:0:1", "f(0.0, 0.0) = nan at node 0 is not finite"),
])
def test_a_non_finite_box_control_exits_2_naming_its_first_node(tmp_path, capsys, box, message):
    out = tmp_path / "run"
    code = main(["state", "--preset", "contact-v1", "--set", "n=4", "--set", f"g={box}",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not (out / "state.csv").exists()


@pytest.mark.parametrize("setting", [["g_low=nan"], ["g_high=inf"], ["g_low=5", "g_high=1"],
                                     ["g_low=-1e308", "g_high=1e308"]])
def test_a_bad_conjecture_control_range_exits_2(tmp_path, capsys, setting):
    sets = [arg for s in setting for arg in ("--set", s)]
    code = main(["conjecture", "--preset", "contact-v1", "--set", "n=8", "--set", "trials=3",
                 *sets, "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


@pytest.mark.parametrize("argv", [["conjecture", "--set", "seed=-5"]]
                         + [[command, "--seed", "-1"] for command in sorted(cli._COMMANDS)],
                         ids=" ".join)
def test_a_negative_seed_exits_2_before_any_mesh_is_built(tmp_path, capsys, monkeypatch, argv):
    # numpy's default_rng refuses a negative seed with a ValueError traceback;
    # every command refuses it, whether or not it draws random controls
    monkeypatch.setattr(cli.convergence, "build_unit_square", None)
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 2
    value = argv[-1].split("=")[-1]
    assert capsys.readouterr().err == f"configuration error: seed must be >= 0, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("solver", ["active_set", "psor"])
@pytest.mark.parametrize("family", ["robin", "dirichlet_limit"])
def test_data_too_large_for_float64_exits_2(tmp_path, capsys, family, solver):
    # Robin: alpha * b overflows the load; Dirichlet limit: A u overflows in the solve
    out = tmp_path / "run"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["state", "--preset", "contact-v1", "--set", "n=4", "--set", "b=1e308",
                     "--set", f"family={family}", "--set", f"solver={solver}",
                     "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (out / "state.csv").exists()


@pytest.mark.parametrize("sets", [
    # M d overflowed in the first Hessian product: two RuntimeWarnings on
    # stderr, then a line-search stall at gradient norm 8.276e+15 and exit 3
    ["n=2", "M=1e300", "b=1e16"],
    # the Hessian product was finite and the curvature, its H inner product
    # with the CG direction, overflowed: one RuntimeWarning, then a stall and exit 3
    ["n=3", "M=6.13e16", "b=2.29e151", "q=3.39", "gamma1=top,right"],
], ids=" ".join)
def test_an_optimization_whose_newton_step_overflows_exits_2(tmp_path, capsys, sets):
    out = tmp_path / "run"
    code = main(["optimize", *[a for s in sets for a in ("--set", s)], "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == ("configuration error: a Newton-CG step overflows "
                                       "float64; scale down the data\n")
    assert not out.exists()


@pytest.mark.parametrize("command, setting", [
    ("state", "max_iter=-1"), ("optimize", "opt_max_iter=0"), ("optimize", "opt_max_iter=-3"),
])
def test_a_negative_iteration_cap_exits_2(tmp_path, capsys, command, setting):
    # these reached the solver and exited 3 with "... after -1 iterations / 0 steps"
    out = tmp_path / "run"
    code = main([command, "--preset", "contact-v1", "--set", "n=8", "--set", setting,
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not out.exists()


_BAD_CONTROLS = {
    "file:{text}": "control file '{text}' holds non-numeric values",
    "file:{nans}": "non-finite value at node 0",
    "nan": "non-finite value at node 0",
    "box:nan:0:1:0:1": "f(0.0, 0.0) = nan at node 0 is not finite",
    "box:1:0:1": "box control needs value:x0:x1:y0:y1, got 'box:1:0:1'",
    "box:a:0:1:0:1": "bad box control 'box:a:0:1:0:1'",
    "file:{missing}": "cannot read control file '{missing}'",
    "abc": "bad control specification 'abc'",
}


@pytest.mark.parametrize("g", _BAD_CONTROLS)
def test_bad_control_input_exits_2(tmp_path, capsys, g):
    paths = {k: tmp_path / f"{k}.txt" for k in ("text", "nans", "missing")}
    paths["text"].write_text("one\ntwo\n")
    paths["nans"].write_text("nan\n" * 9)  # one value per node of the n=2 mesh
    code = main(["state", "--preset", "constant-v1", "--set", "n=2",
                 "--set", "g=" + g.format(**paths), "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err == f"configuration error: {_BAD_CONTROLS[g].format(**paths)}\n"


@pytest.mark.parametrize("command, setting, message", [
    ("state", "cross_check=maybe", "bad value 'maybe' for key 'cross_check'"),
    ("state", "n=abc", "bad value 'abc' for key 'n'"),
    ("state", "n", "--set expects key=value, got 'n'"),
    ("state", "n=0", "n must be >= 1, got 0"),
    ("state", "family=neumann", "unknown family 'neumann'"),
    ("state", "solver=cg", "unknown solver 'cg'"),
    ("conjecture", "trials=0", "trials must be >= 1"),
    ("sweep-h", "levels=4,x", "bad int list for levels: '4,x'"),
    ("sweep-h", "g=file:{control}", "file controls require a mesh-bound command"),
])
def test_a_bad_setting_exits_2_with_its_message(tmp_path, capsys, command, setting, message):
    control = tmp_path / "g.txt"
    control.write_text("0\n" * 81)  # one value per node of the n=8 mesh
    out = tmp_path / "run"
    code = main([command, "--preset", "contact-v1", "--set", setting.format(control=control),
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


def test_a_file_control_is_read_once_and_solves_as_its_values(tmp_path, monkeypatch):
    reads = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: reads.append(a) or loadtxt(*a, **kw))
    control = tmp_path / "g.txt"
    control.write_text("-20\n" * 81)  # one value per node of the n=8 mesh
    bodies = []
    for g in (f"file:{control}", "-20"):
        out = tmp_path / g.split(":")[0]
        assert main(["state", "--preset", "contact-v1", "--set", "n=8", "--set", f"g={g}",
                     "--out", str(out)]) == 0
        bodies.append(read_csv(out / "state.csv"))
    assert len(reads) == 1
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("command", ["state", "optimize", "conjecture"])
def test_a_two_column_control_file_exits_2_naming_its_shape(tmp_path, capsys, command):
    control = tmp_path / "g.txt"
    control.write_text("0 0\n" * 9)  # two values per node of the n=2 mesh
    out = tmp_path / "run"
    code = main([command, "--preset", "constant-v1", "--set", "n=2", "--set", f"g=file:{control}",
                 "--dump-mesh", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "configuration error: field has (9, 2) values for 9 nodes\n"
    assert not out.exists()


def test_sweep_alpha_honours_gamma1_and_solver(tmp_path):
    def trace_rows(*sets):
        out = tmp_path / ("-".join(sets) or "default")
        args = [a for s in sets for a in ("--set", s)]
        code = main(["sweep-alpha", "--preset", "contact-v1", "--set", "n=8", *args,
                     "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out / "rate_alpha_trace.csv")
        return [(float(r[1]) + 1.0, float(r[2])) for r in rows]

    chosen = trace_rows("gamma1=left", "solver=psor")
    data = ProblemData(alpha=2.0, b=1.0, q=1.0, M_cost=1.0,
                       g=box_control(-20.0, 0.25, 0.75, 0.25, 0.75))  # contact-v1
    session = StudySession(data, "left", "psor", 1e-10)
    tables = alpha_sweep_state(session, 8, [a for a, _ in chosen])
    assert [e for _, e in chosen] == tables["R"].errors().tolist()
    assert chosen != trace_rows()


def test_diagram_runs_on_the_session_of_its_settings(tmp_path):
    out = tmp_path / "run"
    code = main(["diagram", "--set", "gamma1=left", "--set", "solver=psor",
                 "--set", "diagram_levels=2,4", "--set", "diagram_alphas=2,4",
                 "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out / "diagram.csv")
    data = ProblemData(alpha=2.0, b=1.0, q=0.0, M_cost=1.0, g=0.0)  # the CLI defaults
    rep = diagram(StudySession(data, "left", "psor"), [2, 4], [2.0, 4.0],
                  opt_tol=1e-8, opt_max_iter=500)
    expected = [[format(v, ".17g") for v in (r.h, r.alpha, r.J_opt, r.g_norm, r.d1, r.d2, r.d3)]
                for r in rep.rows]
    assert rows == expected


@pytest.mark.parametrize("family", ["robin", "dirichlet_limit"])
def test_psor_passes_the_cross_check_at_n64(tmp_path, family):
    # relaxed by 1.5, PSOR stopped 2.9e-9 from PDAS here, beyond the 10 * tol check
    code = main(["state", "--preset", "contact-v1", "--set", "n=64", "--set", "solver=psor",
                 "--set", f"family={family}", "--cross-check", "--out", str(tmp_path / "x")])
    assert code == 0


@pytest.mark.parametrize("family", ["robin", "dirichlet_limit"])
@pytest.mark.parametrize("n", [8, 12, 16])
def test_psor_passes_the_cross_check_on_the_cli_defaults(tmp_path, family, n):
    # no contact set: stopped on its residual alone, PSOR was 1.2e-9 to 3.5e-9
    # from PDAS here, its error up to 36 times the residual
    code = main(["state", "--set", f"n={n}", "--set", "solver=psor",
                 "--set", f"family={family}", "--cross-check", "--out", str(tmp_path / "x")])
    assert code == 0


@pytest.mark.parametrize("family", ["robin", "dirichlet_limit"])
@pytest.mark.parametrize("n", [1, 2])
def test_psor_converges_on_the_coarsest_grids(tmp_path, family, n):
    # Young's factor 2 / (1 + sin(pi / n)) would be 2 at n = 1, where SOR stalls
    code = main(["state", "--set", f"n={n}", "--set", "solver=psor",
                 "--set", f"family={family}", "--out", str(tmp_path / "x")])
    assert code == 0


@pytest.mark.parametrize("argv", [[], ["nope"], ["--preset", "contact-v1"]])
def test_a_missing_or_unknown_command_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


def test_every_option_parses_to_its_namespace_entry():
    parser = _build_parser()
    args = parser.parse_args(["optimize", "--config", "c.txt", "--set", "n=4", "--set", "b=2",
                              "--out", "dir", "--preset", "contact-v1", "--dump-mesh",
                              "--seed", "7", "--cross-check"])
    assert vars(args) == dict(command="optimize", config="c.txt", set=["n=4", "b=2"],
                              out="dir", preset="contact-v1", dump_mesh=True, seed=7,
                              cross_check=True)
    assert vars(parser.parse_args(["state"])) == dict(
        command="state", config=None, set=[], out=None, preset="", dump_mesh=False,
        seed=None, cross_check=False)


def test_overflowing_conjecture_forms_exit_2_writing_nothing(tmp_path, capsys):
    # g of order 1e300 keeps the states finite, but (g, g)_H overflows float64
    out = tmp_path / "run"
    code = main(["conjecture", "--set", "g_low=-1e300", "--set", "g_high=1e300",
                 "--set", "n=4", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert not (out / "conjecture.csv").exists()


@pytest.mark.parametrize("where", ["mesh", "lu"])
def test_out_of_memory_exits_3(tmp_path, capsys, monkeypatch, where):
    def no_memory(*args, **kwargs):
        raise MemoryError

    if where == "mesh":
        monkeypatch.setattr(cli.convergence, "build_unit_square", no_memory)
    else:  # n = 16 makes blocks above DENSE_MAX, which SuperLU factors
        monkeypatch.setattr(vi_solver, "spla", SimpleNamespace(splu=no_memory))
    code = main(["state", "--preset", "contact-v1", "--set", "n=16",
                 "--out", str(tmp_path / "run")])
    assert code == 3
    assert capsys.readouterr().err == "solver failure: out of memory\n"


@pytest.mark.parametrize("argv", [
    ("optimize", "--set", "n=4", "--set", "b=1e300"),
    ("optimize", "--set", "n=4", "--set", "b=1e300", "--set", "opt_method=coord_search"),
    ("diagram", "--set", "diagram_levels=2,4", "--set", "diagram_alphas=2,4", "--set", "b=1e200"),
    ("sweep-h", "--set", "b=1e300"),
    ("sweep-alpha", "--set", "n=4", "--set", "alphas=2,4", "--set", "b=1e300"),
])
def test_a_cost_or_norm_that_overflows_exits_2_without_a_warning(tmp_path, capsys, argv):
    # the H- and V-norm forms of a state of order 1e300 overflow float64; pytest
    # turns a RuntimeWarning into an error, as `-W error::RuntimeWarning` does
    code = main([*argv, "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1


def test_the_zero_control_cost_overflow_names_the_cost(tmp_path, capsys):
    code = main(["optimize", "--set", "n=4", "--set", "b=1e300", "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err == ("configuration error: the cost of the zero control, inf, "
                                       "overflows float64; scale down the data\n")


def test_non_nested_diagram_levels_exit_2_before_any_optimization(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli.convergence, "optimize", lambda *a, **kw: calls.append(a))
    code = main(["diagram", "--set", "diagram_levels=3,4", "--set", "diagram_alphas=2,4",
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err == ("configuration error: fine divisions 16 must be a "
                                       "multiple of coarse divisions 3\n")
    assert calls == []


def test_a_zero_diagram_level_exits_2_with_the_grid_message(tmp_path, capsys):
    # each level is checked as its grid would check it before the levels are
    # checked for nesting, so a zero level names itself and does not divide by zero
    code = main(["diagram", "--set", "diagram_levels=0,2", "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err == "configuration error: need n >= 1 subdivisions, got 0\n"


@pytest.mark.parametrize("levels, message", [
    ("3,4", "fine divisions 16 must be a multiple of coarse divisions 3"),
    ("0,2", "need n >= 1 subdivisions, got 0"),
])
def test_a_refused_diagram_assembles_no_grid(tmp_path, capsys, monkeypatch, levels, message):
    # refused after assembly, diagram_levels=3,128 would build the n = 512 grid
    # (335 MB) for nothing
    assembled = []
    assemble = cli.convergence.assemble
    monkeypatch.setattr(cli.convergence, "assemble",
                        lambda mesh, data: assembled.append(mesh) or assemble(mesh, data))
    code = main(["diagram", "--preset", "contact-v1", "--set", f"diagram_levels={levels}",
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert assembled == []


@pytest.mark.parametrize("setting", ["diagram_levels=2,2,4", "diagram_alphas=4,2,2"])
def test_a_repeated_diagram_level_or_alpha_exits_2_before_any_optimization(
        tmp_path, capsys, monkeypatch, setting):
    calls = []
    monkeypatch.setattr(cli.convergence, "optimize", lambda *a, **kw: calls.append(a))
    code = main(["diagram", "--preset", "contact-v1", "--set", setting,
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err == ("configuration error: diagram levels and alphas must "
                                       "not repeat a value\n")
    assert calls == []


# the root of an error's class decides the exit code and the stderr prefix
ROOTS = {errors.InvalidParameterError: (2, "configuration error: "),
         errors.NonConvergenceError: (3, "solver failure: ")}
ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if cls.__module__ == errors.__name__]


@pytest.mark.parametrize("kind", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_class_exits_with_the_code_of_its_one_root(tmp_path, capsys, monkeypatch,
                                                               kind):
    (root,) = [r for r in ROOTS if issubclass(kind, r)]
    code, prefix = ROOTS[root]

    def fail(*args, **kwargs):
        raise kind("raised in the mesh build")

    monkeypatch.setattr(cli.convergence, "build_unit_square", fail)
    out = tmp_path / "run"
    assert main(["state", "--set", "n=2", "--out", str(out)]) == code
    assert capsys.readouterr().err == f"{prefix}raised in the mesh build\n"
    assert not out.exists()


def test_an_out_that_cannot_be_made_exits_2_with_one_line(tmp_path, capsys):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    assert main(["state", "--set", "n=2", "--out", str(blocker / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1, err
