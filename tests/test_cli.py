import io
import json

import numpy as np
import pytest

from bellkron import (
    GaussianSpec,
    PolyFn,
    bell_multivariate,
    compose_poly,
    kron,
    mgf_exponent_poly,
    poly_jet,
    raw_moment_vector,
)
from bellkron import cli
from bellkron.cli import main

SIGMA = [[2.0, 0.5], [0.5, 1.0]]


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run(argv)
    return code, json.loads(text)


def quadratic_file(tmp_path, name="g.json"):
    spec = GaussianSpec(2, np.zeros(2), np.array(SIGMA))
    path = tmp_path / name
    path.write_text(json.dumps(mgf_exponent_poly(spec).to_json_dict()))
    return str(path)


# ---------------------------------------------------------------------------
# bell


def test_bell_3_2_single_term():
    code, report = run_json(["bell", "--n", "3", "--k", "2"])
    assert code == 0
    assert report["zero"] is False
    assert len(report["terms"]) == 1
    term = report["terms"][0]
    assert term["coefficient"] == 3
    assert term["factor_orders"] == [1, 2]
    assert term["j"] == [1, 1]


def test_bell_4_2_terms_in_lexicographic_order():
    code, report = run_json(["bell", "--n", "4", "--k", "2"])
    assert code == 0
    assert [t["j"] for t in report["terms"]] == [[0, 2, 0], [1, 0, 1]]
    coeffs = {tuple(t["j"]): t["coefficient"] for t in report["terms"]}
    assert coeffs == {(0, 2, 0): 3, (1, 0, 1): 4}


def test_bell_zero_polynomial_exits_2():
    code, report = run_json(["bell", "--n", "2", "--k", "3"])
    assert code == 2
    assert report["zero"] is True
    assert report["terms"] == []


def test_bell_rejects_nonpositive_arguments():
    code, _ = run(["bell", "--n", "0", "--k", "1"])
    assert code == 2


def test_bell_evaluates_against_library(tmp_path):
    g_path = quadratic_file(tmp_path)
    code, report = run_json(["bell", "--n", "3", "--k", "2",
                             "--g", g_path, "--at", "[0.3,-0.2]"])
    assert code == 0
    spec = GaussianSpec(2, np.zeros(2), np.array(SIGMA))
    jet = poly_jet(mgf_exponent_poly(spec), [0.3, -0.2], 2)
    expected = bell_multivariate(3, 2, jet)
    assert np.array_equal(np.array(report["matrix"]), expected)
    assert report["shape"] == [1, 8]


# ---------------------------------------------------------------------------
# moments


def test_moments_scalar_query():
    code, report = run_json(["moments", "--mean", "[0,0]", "--cov", json.dumps(SIGMA),
                             "--order", "4", "--symmetrize", "--scalar", "2,2"])
    assert code == 0
    assert report["value"] == 2.5
    assert report["exponents"] == [2, 2]
    assert report["symmetrized"] is True


def test_moments_order_one_echoes_mean():
    code, report = run_json(["moments", "--mean", "[1.5,-2.0]", "--cov",
                             json.dumps(SIGMA), "--order", "1"])
    assert code == 0
    assert report["moment"] == [1.5, -2.0]


def test_moments_raw_fourth_order_structure():
    code, report = run_json(["moments", "--mean", "[0,0]", "--cov", json.dumps(SIGMA),
                             "--order", "4"])
    assert code == 0
    vec = np.array(SIGMA).reshape(1, 4)
    expected = (3.0 * kron(vec, vec)).reshape(-1)
    assert np.array_equal(np.array(report["moment"]), expected)
    assert report["symmetrized"] is False
    assert report["dim"] == 2 and report["order"] == 4


def test_moments_invalid_covariance_exits_2(capsys):
    code, _ = run(["moments", "--mean", "[0,0]", "--cov", "[[1,0.2],[0.3,1]]",
                   "--order", "2"])
    assert code == 2
    assert "symmetric" in capsys.readouterr().err


def test_moments_size_cap_exits_3():
    code, _ = run(["--size-cap", "10", "moments", "--mean", "[0,0]",
                   "--cov", json.dumps(SIGMA), "--order", "8"])
    assert code == 3


def test_moments_size_cap_env_override(monkeypatch):
    monkeypatch.setenv("BELLKRON_SIZE_CAP", "10")
    code, _ = run(["moments", "--mean", "[0,0]", "--cov", json.dumps(SIGMA),
                   "--order", "8"])
    assert code == 3


def test_moments_reads_inputs_from_files(tmp_path):
    mean_path = tmp_path / "mean.json"
    cov_path = tmp_path / "cov.json"
    mean_path.write_text("[0, 0]")
    cov_path.write_text(json.dumps(SIGMA))
    code, report = run_json(["moments", "--mean", str(mean_path),
                             "--cov", str(cov_path), "--order", "2"])
    assert code == 0
    assert report["dim"] == 2


# ---------------------------------------------------------------------------
# compose


def test_compose_exp_of_quadratic_matches_moments(tmp_path):
    g_path = quadratic_file(tmp_path)
    code, report = run_json(["compose", "--f", "exp", "--g", g_path,
                             "--at", "[0,0]", "--order", "4"])
    assert code == 0
    spec = GaussianSpec(2, np.zeros(2), np.array(SIGMA))
    expected = raw_moment_vector(spec, 4).data
    assert np.max(np.abs(np.array(report["matrix"][0]) - expected)) < 1e-12


def test_compose_first_order_is_jacobian_product(tmp_path):
    g = PolyFn(2, 2, [[(1.0, (1, 0)), (0.5, (0, 1))], [(2.0, (1, 1))]])
    f = PolyFn(2, 1, [[(1.0, (2, 0)), (1.0, (0, 1))]])
    g_path = tmp_path / "g.json"
    f_path = tmp_path / "f.json"
    g_path.write_text(json.dumps(g.to_json_dict()))
    f_path.write_text(json.dumps(f.to_json_dict()))
    x = [0.3, -0.7]
    code, report = run_json(["compose", "--f", str(f_path), "--g", str(g_path),
                             "--at", json.dumps(x), "--order", "1"])
    assert code == 0
    g_jet = poly_jet(g, x, 1)
    f_jet = poly_jet(f, g_jet.value, 1)
    expected = f_jet.matrix(1) @ g_jet.matrix(1)
    assert np.max(np.abs(np.array(report["matrix"]) - expected)) < 1e-14


def test_compose_symmetrized_matches_composition_oracle(tmp_path):
    g = PolyFn(1, 1, [[(1.0, (1,)), (1.0, (0,))]])
    f = PolyFn(1, 1, [[(1.0, (2,))]])
    g_path = tmp_path / "g.json"
    f_path = tmp_path / "f.json"
    g_path.write_text(json.dumps(g.to_json_dict()))
    f_path.write_text(json.dumps(f.to_json_dict()))
    code, report = run_json(["compose", "--f", str(f_path), "--g", str(g_path),
                             "--at", "[0.4]", "--order", "2", "--symmetrize"])
    assert code == 0
    truth = poly_jet(compose_poly(f, g), [0.4], 2).matrix(2)
    assert np.max(np.abs(np.array(report["matrix"]) - truth)) < 1e-12


def test_compose_emits_differential(tmp_path):
    g_path = quadratic_file(tmp_path)
    code, report = run_json(["compose", "--f", "exp", "--g", g_path,
                             "--at", "[0,0]", "--order", "2", "--dx", "[1,0]"])
    assert code == 0
    # second differential of the MGF along e1 at 0 is E[X_1^2] = sigma_11
    assert abs(report["differential"][0] - 2.0) < 1e-12


def test_compose_size_cap_names_the_contraction(tmp_path, capsys):
    # Every jet fits a cap of 100; the 4 x 81 order-4 result does not.
    g = PolyFn(3, 1, [[(1.0, (2, 1, 1)), (0.5, (1, 0, 0))]])
    f = PolyFn(1, 4, [[(1.0, (e,))] for e in range(1, 5)])
    g_path = tmp_path / "g.json"
    f_path = tmp_path / "f.json"
    g_path.write_text(json.dumps(g.to_json_dict()))
    f_path.write_text(json.dumps(f.to_json_dict()))
    code, _ = run(["--size-cap", "100", "compose", "--f", str(f_path), "--g", str(g_path),
                   "--at", "[0.1,0.2,0.3]", "--order", "4"])
    assert code == 3
    err = capsys.readouterr().err
    assert ("faa_total_derivative, Bell index j=(0, 0, 0, 1): "
            "contraction intermediate of shape 4 x 81") in err


def test_compose_dimension_mismatch_exits_4(tmp_path):
    g = PolyFn(1, 2, [[(1.0, (1,))], [(1.0, (2,))]])
    g_path = tmp_path / "g2.json"
    g_path.write_text(json.dumps(g.to_json_dict()))
    code, _ = run(["compose", "--f", "exp", "--g", str(g_path),
                   "--at", "[0.1]", "--order", "2"])
    assert code == 4


def test_compose_schema_violation_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_x": 1, "components": []}')
    code, _ = run(["compose", "--f", "exp", "--g", str(bad),
                   "--at", "[0]", "--order", "1"])
    assert code == 2


# ---------------------------------------------------------------------------
# output formats and determinism


def test_json_output_round_trips_bit_for_bit():
    spec = GaussianSpec(2, np.zeros(2), np.array(SIGMA))
    _, report = run_json(["moments", "--mean", "[0,0]", "--cov", json.dumps(SIGMA),
                          "--order", "3", "--symmetrize"])
    from bellkron import symmetrized_moment_vector

    expected = symmetrized_moment_vector(spec, 3).data
    parsed = np.array(report["moment"])
    assert np.array_equal(parsed, expected)


def test_reports_are_byte_identical_for_identical_inputs():
    first = run(["verify", "--suite", "symmetrizer", "--seed", "42"])
    second = run(["verify", "--suite", "symmetrizer", "--seed", "42"])
    assert first == second


def test_csv_and_pretty_formats():
    code, text = run(["moments", "--mean", "[0,0]", "--cov", json.dumps(SIGMA),
                      "--order", "2", "--format", "csv"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "index,value"
    assert lines[1].startswith('"1,1",')
    code, text = run(["moments", "--mean", "[0,0]", "--cov", json.dumps(SIGMA),
                      "--order", "2", "--format", "pretty"])
    assert code == 0
    assert "moment vector" in text


def test_json_format_calls_no_csv_or_pretty_renderer(monkeypatch, tmp_path):
    def refuse(payload):
        raise AssertionError("a json request rendered csv or pretty output")

    renderers = [name for name in vars(cli) if name.startswith("_")
                 and name.endswith(("_csv", "_pretty"))]
    assert len(renderers) == 10
    for name in renderers:
        monkeypatch.setattr(cli, name, refuse)
    g_path = quadratic_file(tmp_path)
    moments = ["moments", "--mean", "[0,0]", "--cov", json.dumps(SIGMA)]
    for argv in (moments + ["--order", "3", "--symmetrize"],
                 moments + ["--scalar", "2,1"],
                 ["compose", "--f", "exp", "--g", g_path, "--at", "[0,0]", "--order", "2"],
                 ["bell", "--n", "4", "--k", "2"],
                 ["verify", "--suite", "recurrence", "--seed", "0"]):
        code, _ = run_json(argv + ["--format", "json"])
        assert code == 0


def test_config_file_sets_format_and_flag_wins(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_format": "pretty"}))
    code, text = run(["--config", str(cfg), "bell", "--n", "3", "--k", "2"])
    assert code == 0
    assert text.startswith("B_{3,2}")
    code, text = run(["--config", str(cfg), "bell", "--n", "3", "--k", "2",
                      "--format", "json"])
    assert code == 0
    assert json.loads(text)["terms"][0]["coefficient"] == 3


def test_config_rejects_unknown_fields(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _ = run(["--config", str(cfg), "bell", "--n", "3", "--k", "2"])
    assert code == 2


@pytest.mark.parametrize("fields", [
    {"size_cap": "abc"}, {"size_cap": True}, {"dense_cap": 4096.0},
    {"sym_arity_cap": 10.5}, {"fd_step_first": "1e-5"}, {"fd_step_higher": float("nan")},
    {"output_format": 3}, ["size_cap"],
])
def test_config_rejects_wrongly_typed_values(tmp_path, fields, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fields))
    code, _ = run(["--config", str(cfg), "bell", "--n", "3", "--k", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert ("must hold a JSON object" if isinstance(fields, list)
            else f"config field {next(iter(fields))} must be") in err


# ---------------------------------------------------------------------------
# input boundary: no coercion, no non-finite numbers, no tracebacks


def write_poly(tmp_path, obj, name="p.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_moments_scalar_rejects_an_order_that_disagrees(capsys):
    moments = ["moments", "--mean", "[0,0]", "--cov", json.dumps(SIGMA), "--scalar", "2,0"]
    code, _ = run(moments + ["--order", "5"])
    assert code == 2
    assert "--order 5 disagrees" in capsys.readouterr().err
    code, report = run_json(moments + ["--order", "2"])
    assert code == 0 and report["value"] == 2.0


@pytest.mark.parametrize("exponent", [1.5, True])
def test_poly_rejects_non_integer_exponents(tmp_path, exponent):
    # g(x) = x^1.5 used to be read as x^1, so exp(g) at 1 came out e, not 1.5 e.
    g = write_poly(tmp_path, {"n_x": 1, "n_y": 1,
                              "components": [[{"coeff": 1.0, "exponents": [exponent]}]]})
    code, _ = run(["compose", "--f", "exp", "--g", g, "--at", "[1.0]", "--order", "1"])
    assert code == 2
    with pytest.raises(ValueError, match="integers"):
        PolyFn.from_json_dict({"n_x": 1, "n_y": 1,
                               "components": [[{"coeff": 1.0, "exponents": [exponent]}]]})


@pytest.mark.parametrize("bad", [
    {"n_x": True, "n_y": 1, "components": [[{"coeff": 1.0, "exponents": [1]}]]},
    {"n_x": 1, "n_y": 1, "components": [[{"coeff": True, "exponents": [1]}]]},
    {"n_x": 1, "n_y": 1, "components": [[{"coeff": 1.0, "exponents": 1}]]},
])
def test_poly_json_rejects_booleans_and_malformed_monomials(tmp_path, bad):
    code, _ = run(["compose", "--f", "exp", "--g", write_poly(tmp_path, bad),
                   "--at", "[1.0]", "--order", "1"])
    assert code == 2


def test_json_true_is_not_read_as_one(tmp_path):
    g_path = quadratic_file(tmp_path)
    moments = ["moments", "--order", "2"]
    compose = ["compose", "--f", "exp", "--g", g_path, "--order", "2"]
    for argv in (moments + ["--mean", "[true,0]", "--cov", json.dumps(SIGMA)],
                 moments + ["--mean", "[0,0]", "--cov", "[[true,0],[0,1]]"],
                 compose + ["--at", "[true,0]"],
                 compose + ["--at", "[0,0]", "--dx", "[true,0]"]):
        code, _ = run(argv)
        assert code == 2, argv


def test_non_finite_inputs_are_rejected(capsys):
    code, _ = run(["moments", "--mean", "[NaN]", "--cov", "[[1.0]]", "--order", "2"])
    assert code == 2
    assert "--mean" in capsys.readouterr().err


def test_non_finite_results_exit_2_naming_the_field(capsys):
    for fmt in ("json", "csv", "pretty"):
        code, text = run(["moments", "--mean", "[1e200]", "--cov", "[[1.0]]",
                          "--order", "3", "--format", fmt])
        assert code == 2 and text == ""
        assert "report field moment[0] is not finite" in capsys.readouterr().err


def test_compose_exp_overflow_exits_2(tmp_path, capsys):
    g = write_poly(tmp_path, {"n_x": 1, "n_y": 1,
                              "components": [[{"coeff": 1000.0, "exponents": [0]}]]})
    code, _ = run(["compose", "--f", "exp", "--g", g, "--at", "[0.5]", "--order", "2"])
    assert code == 2
    assert "overflows" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


@pytest.mark.parametrize("suite", ["recurrence", "symmetrizer", "moments", "compose"])
def test_verify_suites_pass(suite):
    code, report = run_json(["verify", "--suite", suite, "--seed", "0"])
    assert code == 0
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])


def test_verify_compose_seed_7007_passes():
    # A plain central ray difference leaves a 1.24e-4 residual at this seed.
    code, report = run_json(["verify", "--suite", "compose", "--seed", "7007"])
    assert code == 0
    assert report["passed"] is True


def test_verify_all_runs_every_suite():
    code, report = run_json(["verify", "--suite", "all", "--seed", "1"])
    assert code == 0
    assert {c["suite"] for c in report["checks"]} == {
        "recurrence", "symmetrizer", "moments", "compose"}
