"""End-to-end command-line runs, in process, with small budgets."""

import json
import math

import numpy as np
import pytest

from contactkit.cli import _sphere_moment_oracle, main
from contactkit.manifold import ContactManifold, ProjectionError


@pytest.fixture(autouse=True)
def isolated_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def strip_timestamp(text):
    return "\n".join(line for line in text.splitlines() if '"timestamp"' not in line)


def test_contact_check_sphere(capsys):
    code, rep, _ = run_json(capsys, "contact-check", "--manifold", "sphere",
                            "--samples", "200")
    assert code == 0 and rep["pass"] is True
    assert rep["min_defect"] == pytest.approx(0.5, rel=1e-9)
    assert rep["max_alpha_residual"] <= 1e-10
    assert rep["seed"] == 0
    assert list(rep)[-1] == "timestamp"


def test_contact_check_winding_sets_defect(capsys):
    code, rep, _ = run_json(capsys, "contact-check", "--manifold", "torus3",
                            "--n", "2", "--samples", "100")
    assert code == 0
    assert rep["min_defect"] == pytest.approx(2.0, rel=1e-9)


def test_contact_check_degenerate_fails(capsys):
    code, rep, _ = run_json(capsys, "contact-check", "--manifold",
                            "degenerate-torus", "--samples", "50")
    assert code == 1 and rep["pass"] is False
    assert "reeb_error" in rep


def test_unknown_manifold_is_a_usage_error(capsys):
    code, out, err = run(capsys, "contact-check", "--manifold", "klein")
    assert code == 2 and out == ""


def test_flow_zero_time_writes_single_row(capsys, tmp_path):
    code, _, _ = run(capsys, "flow", "--manifold", "sphere", "--start", "1,0,0,0",
                     "--T", "0", "--output", str(tmp_path / "flow.json"))
    rep = json.loads((tmp_path / "flow.json").read_text())
    assert code == 0 and rep["pass"] is True
    assert rep["trajectory_csv"] == str(tmp_path / "flow.csv")
    rows = (tmp_path / "flow.csv").read_text().strip().splitlines()
    assert len(rows) == 2 and rows[0].startswith("t,")


def test_flow_without_output_writes_no_file(capsys, tmp_path):
    code, rep, _ = run_json(capsys, "flow", "--manifold", "sphere",
                            "--start", "1,0,0,0", "--T", "0.5")
    assert code == 0 and rep["pass"] is True and rep["steps"] > 0
    assert "trajectory_csv" not in rep
    assert list(tmp_path.iterdir()) == []


def test_flow_reports_the_hopf_return(capsys):
    code, rep, _ = run_json(capsys, "flow", "--manifold", "sphere",
                            "--start", "1,0,0,0", "--T", "3.2", "--t-min", "3")
    assert code == 0
    assert rep["return_time"] == pytest.approx(math.pi, abs=1e-6)
    assert rep["return_distance"] < 1e-6


def test_flow_output_stem_controls_both_files(capsys, tmp_path):
    code, _, _ = run(capsys, "flow", "--manifold", "sphere", "--start", "1,0,0,0",
                     "--T", "1", "--output", str(tmp_path / "orbit.json"))
    assert code == 0
    rep = json.loads((tmp_path / "orbit.json").read_text())
    traj = np.genfromtxt(tmp_path / "orbit.csv", delimiter=",", names=True)
    assert rep["pass"] is True and len(traj) > 2


@pytest.mark.parametrize("output", [[], ["--output", "o.json"]])
def test_flow_checks_the_observable_before_integrating(capsys, tmp_path, output):
    code, out, err = run(capsys, "flow", "--manifold", "torus3", "--start", "0.1,0.2,0.3",
                         "--T", "0.5", "--observable", "re-z0zb1", *output)
    assert code == 2 and out == ""
    assert "needs ambient dimension >= 4" in err
    assert list(tmp_path.iterdir()) == []


def test_flow_projection_failure_is_a_report(capsys, monkeypatch):
    def fail(self, pts, *args, **kwargs):
        raise ProjectionError("projection did not converge")

    monkeypatch.setattr(ContactManifold, "project", fail)
    code, rep, _ = run_json(capsys, "flow", "--manifold", "sphere",
                            "--start", "1,0,0,0", "--T", "1")
    assert code == 1 and rep["pass"] is False
    assert "projection did not converge" in rep["error"]


def test_flow_takes_a_negative_start(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("start = 1,0,0,0\n")
    code, rep, _ = run_json(capsys, "flow", "--manifold", "sphere", "--T", "0",
                            "--start", "-1,0,0,0", "--config", str(cfg))
    assert code == 0 and rep["start"] == [-1.0, 0.0, 0.0, 0.0]


def test_flow_needs_a_start(capsys):
    code, out, err = run(capsys, "flow", "--manifold", "sphere")
    assert code == 2 and "start" in err


def test_closed_form_field_is_weighted_only(capsys):
    code, out, err = run(capsys, "flow", "--manifold", "sphere",
                         "--start", "1,0,0,0", "--field", "weighted-closed-form")
    assert code == 2


def test_toric_table_csv_and_coefficients(capsys, tmp_path):
    code, _, _ = run(capsys, "cw", "toric-table", "--kmax", "2",
                     "--A", "0.8", "--B", "-0.6",
                     "--output", str(tmp_path / "table.json"))
    assert code == 0
    rep = json.loads((tmp_path / "table.json").read_text())
    assert rep["pass"] is True
    even = rep["rows"][1]
    assert even["coefficient"] == pytest.approx(4.0 * math.pi ** 3, rel=1e-10)
    header = (tmp_path / "table.csv").read_text().splitlines()[0]
    assert header == "k,value,coefficient,parity_residual"


def test_sphere_table_small_budget(capsys):
    code, rep, _ = run_json(capsys, "cw", "sphere-table", "--manifold", "sphere",
                            "--rows", "3", "--budget", "8192")
    assert code == 0 and rep["pass"] is True
    assert all(row["ok"] for row in rep["rows"])


def test_pullback_of_a_diagonal_element_on_the_three_sphere(capsys):
    code, rep, _ = run_json(capsys, "cw", "pullback", "--manifold", "sphere",
                            "--action", "diagonal", "--element", "1,2", "--k", "2",
                            "--budget", "8192")
    assert code == 0 and rep["pass"] is True
    assert list(rep) == ["command", "seed", "manifold", "action", "k", "budget", "value",
                         "std_error", "method", "samples", "pass", "timestamp"]
    assert (rep["command"], rep["manifold"], rep["action"]) == \
        ("cw pullback", "sphere(n=1)", "diagonal-torus")
    assert (rep["k"], rep["budget"], rep["samples"]) == (2, 8192, 8192)
    # I(a, a) = pi^2 / 24 ((a_0 + a_1)^2 + a_0^2 + a_1^2) on S^3, from the
    # Dirichlet moments of |z_j|^2 on the simplex
    exact = math.pi ** 2 / 24.0 * ((1.0 + 2.0) ** 2 + 1.0 + 4.0)
    assert _sphere_moment_oracle(1, 1.0, np.array([1.0, 2.0]), np.array([1.0, 2.0])) == \
        pytest.approx(exact, rel=1e-15)
    assert abs(rep["value"] - exact) <= 3.0 * rep["std_error"]
    assert rep["value"] == pytest.approx(exact, rel=1e-3)


def test_volume_of_the_round_sphere(capsys):
    code, rep, _ = run_json(capsys, "cw", "volume", "--manifold", "sphere",
                            "--budget", "4096")
    assert code == 0
    assert rep["value"] == pytest.approx(math.pi ** 2, rel=1e-12)


def test_positivity_for_the_identity_generator(capsys):
    code, rep, _ = run_json(capsys, "cw", "positivity", "--manifold", "sphere",
                            "--action", "unitary", "--element", "iI",
                            "--budget", "4096")
    assert code == 0 and rep["certified"] is True
    assert rep["value"] == pytest.approx(math.pi ** 2 / 4.0, rel=1e-12)


def test_positivity_rejects_the_zero_element(capsys):
    code, out, err = run(capsys, "cw", "positivity", "--manifold", "sphere",
                         "--element", "0,0")
    assert code == 2 and "error" in err


def test_preq_passes_with_default_gates(capsys):
    code, rep, _ = run_json(capsys, "preq", "--trials", "8")
    assert code == 0 and rep["pass"] is True
    assert rep["fiber_constant_expected"] == pytest.approx(math.pi)
    assert rep["euler"]["value"] == pytest.approx(0.5, rel=1e-9)
    assert rep["euler"]["warning"] is not None
    assert all(r["ok"] for r in rep["relations"])


def test_preq_normalized_euler_is_one(capsys):
    code, rep, _ = run_json(capsys, "preq", "--normalize-period", "2pi",
                            "--trials", "8")
    assert code == 0
    assert rep["euler"]["value"] == pytest.approx(1.0, rel=1e-9)
    assert rep["euler"]["warning"] is None


def test_preq_dispersion_gate_fails_at_low_budget(capsys, monkeypatch):
    # both rules are exact, so no budget spreads the fiber ratios; a check that
    # reports the right constant with dispersion 1e-2 must fail the 1e-3 gate
    # alone, and the exit code with it
    import contactkit.cli as cli

    monkeypatch.setattr(cli, "fiber_integration_check",
                        lambda preq, **kwargs: (preq.fiber_period, 1e-2))
    code, rep, _ = run_json(capsys, "preq", "--trials", "4", "--budget", "2048")
    assert code == 1 and rep["pass"] is False
    assert rep["dispersion_ok"] is False and rep["fiber_constant_ok"] is True


def test_reports_are_reproducible_modulo_timestamp(capsys):
    args = ("cw", "sphere-table", "--manifold", "sphere", "--rows", "2",
            "--budget", "4096", "--seed", "7")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert strip_timestamp(first) == strip_timestamp(second)
    _, other, _ = run(capsys, *args[:-1], "8")
    assert strip_timestamp(other) != strip_timestamp(first)


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nsamples = 123\nseed = 9\n")
    code, rep, _ = run_json(capsys, "contact-check", "--manifold", "sphere",
                            "--config", str(cfg))
    assert code == 0 and rep["samples"] == 123 and rep["seed"] == 9


def test_explicit_flags_beat_the_config(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 123\n")
    code, rep, _ = run_json(capsys, "contact-check", "--manifold", "sphere",
                            "--config", str(cfg), "--samples", "77")
    assert code == 0 and rep["samples"] == 77


def test_unknown_config_key_is_rejected(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bananas = 4\n")
    code, out, err = run(capsys, "contact-check", "--manifold", "sphere",
                         "--config", str(cfg))
    assert code == 2 and "bananas" in err


def test_help_exits_cleanly(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "flow", "--help")[0] == 0


def test_unknown_command_is_a_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2
