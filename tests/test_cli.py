"""Command line interface: exit codes, determinism, payload fidelity."""

import json
import subprocess
import sys

import numpy as np
import pytest

from mroot import spray
from mroot.classify import classify_dually_flat
from mroot.cli import main
from mroot.errors import ConfigurationError
from mroot.field import SymTensorField
from mroot.geodesic import integrate
from mroot.metricfile import parse_metric_file
from mroot.probes import generate_probe_set

from conftest import CORE, DATA_DIR


def path(name):
    return str(DATA_DIR / f"{name}.metric")


def test_passing_metric_exits_zero(capsys):
    assert main(["report-all", path("quartic2")]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert "identities" in out and "antonelli" in out


def test_failing_verdict_exits_one(capsys):
    assert main(["report-all", path("perturbed_funk1")]) == 1
    assert "overall: FAIL" in capsys.readouterr().out


def test_missing_file_exits_two(capsys):
    assert main(["identities", "/no/such/file.metric"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.metric"
    bad.write_text("n = 1\nm = 2\nbox.1 = -1,1\n1 1 : pow(x1, -2)\n")
    assert main(["identities", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 4" in err


@pytest.mark.parametrize("body, where", [
    (b"n = 1\nm = 2\nbox.1 = -1,1  # caf\xe9\n1 1 : 1\n",
     "line 3, column 20"),
    (b"n = 1\nm = 2\nbox.1 = -1,1\n1 1 : x" + b"1" * 5000 + b"\n",
     "line 4, column 7"),
    (b"n = 1\nm = 2\nbox.1 = -1,1\nbox.1 = -1,1\n1 1 : 1\n",
     "line 4, column 1"),
], ids=["latin1_comment", "5000_digit_coordinate", "repeated_box"])
def test_input_defects_exit_two_without_a_traceback(body, where, tmp_path,
                                                   capsys):
    bad = tmp_path / "bad.metric"
    bad.write_bytes(body)
    assert main(["report-all", str(bad)]) == 2
    assert where in capsys.readouterr().err


def test_degenerate_explicit_probe_exits_three(capsys):
    # the explicit probe sits on the quartic cone axis where the
    # y-Hessian is singular
    assert main(["identities", path("quartic2_degenerate")]) == 3
    assert "positive definite" in capsys.readouterr().err


def test_isotropic_on_one_dimensional_metric_exits_two(capsys):
    assert main(["classify-isotropic", path("funk1")]) == 2
    assert "n >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("fan", ["0", "-3"])
def test_non_positive_fan_exits_two_naming_the_size(fan, capsys):
    assert main(["report-all", path("quartic2"), "--fan", fan]) == 2
    err = capsys.readouterr().err
    assert f"fan size must be >= 1, got {fan}" in err


def test_bad_usage_exits_two(capsys):
    assert main(["no-such-command", path("quartic2")]) == 2
    assert main(["geodesic", path("funk1"), "--x0", "0"]) == 2


@pytest.mark.parametrize("name", CORE)
def test_report_all_is_byte_identical_across_runs(name, tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    main(["report-all", path(name), "--out", str(out1)])
    main(["report-all", path(name), "--out", str(out2)])
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_different_seed_changes_report(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    main(["report-all", path("quartic2_scaled"), "--out", str(out1)])
    main(["report-all", path("quartic2_scaled"), "--seed", "9",
          "--out", str(out2)])
    capsys.readouterr()
    assert out1.read_bytes() != out2.read_bytes()


def test_json_payload_matches_library_call_exactly(tmp_path, capsys):
    out = tmp_path / "df.json"
    code = main(["classify-dually-flat", path("quartic2_scaled"),
                 "--seed", "3", "--fan", "8", "--bases", "4",
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 1
    doc = json.loads(out.read_text())

    cfg = parse_metric_file(path("quartic2_scaled"))
    ps = generate_probe_set(cfg.field, 4, 8, 3)
    verdict = classify_dually_flat(cfg.field, ps, 1e-7)
    got = doc["verdicts"][0]
    assert got["residual"] == verdict.residual
    assert got["passed"] == verdict.passed
    assert got["details"]["raw_pde_residual"] == (
        verdict.details["raw_pde_residual"])


def test_metadata_resolution_order(tmp_path, capsys):
    # funk1_probe.metric pins seed = 5; flags override the file header
    out = tmp_path / "r.json"
    main(["identities", path("funk1_probe"), "--out", str(out)])
    capsys.readouterr()
    assert json.loads(out.read_text())["seed"] == 5

    main(["identities", path("funk1_probe"), "--seed", "11",
          "--out", str(out)])
    capsys.readouterr()
    assert json.loads(out.read_text())["seed"] == 11


def test_fan_defaults_to_four_n_squared(tmp_path, capsys):
    out = tmp_path / "r.json"
    main(["identities", path("quartic2"), "--out", str(out)])
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["fan"] == 16
    assert doc["probe_count"] == 4 * 16


def test_explicit_probes_bypass_generation(tmp_path, capsys):
    out = tmp_path / "r.json"
    main(["spray", path("funk1_probe"), "--out", str(out)])
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["explicit_probes"] is True
    assert doc["probe_count"] == 1
    # the file probe is x = 0, y = 1 where G = 1/2
    assert doc["samples"][0]["G"][0] == 0.5


def test_report_all_includes_corollary_only_when_theta_fits(tmp_path, capsys):
    out = tmp_path / "r.json"
    main(["report-all", path("euclid2"), "--out", str(out)])
    capsys.readouterr()
    names = [v["name"] for v in json.loads(out.read_text())["verdicts"]]
    assert "riemann_corollary" in names

    main(["report-all", path("hessian2"), "--out", str(out)])
    capsys.readouterr()
    names = [v["name"] for v in json.loads(out.read_text())["verdicts"]]
    # dually flat, but no direction-independent 1-form fits
    assert "riemann_corollary" not in names


def test_report_all_skips_isotropic_in_dimension_one(tmp_path, capsys):
    out = tmp_path / "r.json"
    main(["report-all", path("funk1"), "--out", str(out)])
    capsys.readouterr()
    names = [v["name"] for v in json.loads(out.read_text())["verdicts"]]
    assert "isotropic_mean_berwald" not in names
    assert "weakly_berwald" in names


def test_geodesic_csv_matches_integrate(tmp_path, capsys):
    out = tmp_path / "path.csv"
    code = main(["geodesic", path("funk1"), "--x0", "0", "--y0", "1",
                 "--t-end", "0.375", "--steps", "100", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "speed drift" in captured.err

    lines = out.read_text().splitlines()
    assert lines[0] == "t,x1,y1,F"
    assert len(lines) == 102

    cfg = parse_metric_file(path("funk1"))
    ref = integrate(cfg.field, [0.0], [1.0], 0.375, 100)
    for k in (0, 1, 50, 100):
        t, x1, y1, F = (float(v) for v in lines[k + 1].split(","))
        assert t == ref.t[k]
        assert x1 == ref.x[k][0]
        assert y1 == ref.y[k][0]
        assert F == ref.metric_speed[k]


def test_geodesic_csv_to_stdout(capsys):
    code = main(["geodesic", path("funk1"), "--x0", "0", "--y0", "1",
                 "--t-end", "0.1", "--steps", "4"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[0] == "t,x1,y1,F"
    assert len(captured.out.splitlines()) == 6


def test_geodesic_rejects_bad_vectors(capsys):
    assert main(["geodesic", path("quartic2"), "--x0", "0",
                 "--y0", "1,1", "--t-end", "0.1", "--steps", "4"]) == 2
    assert "components" in capsys.readouterr().err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mroot.cli", "identities", path("quartic2")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "identities" in proc.stdout


def test_human_table_on_stdout_json_only_behind_out(tmp_path, capsys):
    out = tmp_path / "r.json"
    main(["identities", path("quartic2"), "--out", str(out)])
    captured = capsys.readouterr()
    assert captured.out.startswith("metric:")
    assert "{" not in captured.out
    assert out.read_text().startswith("{")


SUBCOMMANDS = [
    ["identities"], ["spray"], ["curvature"], ["classify-dually-flat"],
    ["classify-antonelli"], ["classify-isotropic"], ["report-all"],
    ["geodesic", "--x0", "0,0", "--y0", "1,1", "--t-end", "0.1",
     "--steps", "4"],
]


@pytest.mark.parametrize("flags, message", [
    (["--fan", "0"], "fan size must be >= 1, got 0"),
    (["--bases", "0"], "base count must be >= 1, got 0"),
    (["--bases", "-2"], "base count must be >= 1, got -2"),
    (["--tol", "nan"], "tol must be finite and >= 0, got nan"),
    (["--tol", "-1"], "tol must be finite and >= 0, got -1.0"),
    (["--tol", "inf"], "tol must be finite and >= 0, got inf"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
], ids=["fan_0", "bases_0", "bases_negative", "tol_nan", "tol_negative",
        "tol_inf", "seed_negative"])
@pytest.mark.parametrize("command", SUBCOMMANDS, ids=lambda c: c[0])
def test_bad_run_parameters_exit_two_before_any_work(command, flags, message,
                                                     tmp_path, capsys):
    out = tmp_path / "r.out"
    argv = [command[0], path("quartic2")] + command[1:] + flags
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("header, message", [
    ("tol = nan", "tol must be finite and >= 0, got nan"),
    ("tol_fit = -1e-7", "tol_fit must be finite and >= 0, got -1e-07"),
    ("tol_c = inf", "tol_c must be finite and >= 0, got inf"),
    ("tol_e = nan", "tol_e must be finite and >= 0, got nan"),
], ids=["tol_nan", "tol_fit_negative", "tol_c_inf", "tol_e_nan"])
@pytest.mark.parametrize("command", SUBCOMMANDS, ids=lambda c: c[0])
def test_bad_header_tolerances_exit_two(command, header, message, tmp_path,
                                        capsys):
    bad = tmp_path / "bad.metric"
    bad.write_text(header + "\n" + (DATA_DIR / "quartic2.metric").read_text())
    assert main([command[0], str(bad)] + command[1:]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", SUBCOMMANDS, ids=lambda c: c[0])
def test_negative_header_seed_exits_two(command, tmp_path, capsys):
    bad = tmp_path / "bad.metric"
    bad.write_text("seed = -4\n" + (DATA_DIR / "quartic2.metric").read_text())
    assert main([command[0], str(bad)] + command[1:]) == 2
    captured = capsys.readouterr()
    assert "seed must be >= 0, got -4" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["classify-isotropic", path("quartic2"), "--inject-c", "nan"],
     "--inject-c must be finite, got nan"),
    (["geodesic", path("funk1"), "--x0", "0", "--y0", "1", "--t-end", "inf",
      "--steps", "3"], "integration time must be positive and finite, got inf"),
    (["geodesic", path("quartic2"), "--x0", "0,0", "--y0", "nan,1",
      "--t-end", "0.1", "--steps", "4"],
     "--y0 components must be finite, got 'nan,1'"),
    (["geodesic", path("quartic2"), "--x0", "0,0", "--y0", "inf,1",
      "--t-end", "0.1", "--steps", "4"],
     "--y0 components must be finite, got 'inf,1'"),
    (["geodesic", path("quartic2"), "--x0", "nan,0", "--y0", "1,0",
      "--t-end", "0.1", "--steps", "4"],
     "--x0 components must be finite, got 'nan,0'"),
], ids=["inject_c_nan", "t_end_inf", "y0_nan", "y0_inf", "x0_nan"])
def test_non_finite_command_values_exit_two(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_explicit_probes_do_not_hide_a_bad_fan(capsys):
    # funk1_probe's file probes never use the fan, which is still checked
    assert main(["identities", path("funk1_probe"), "--fan", "0"]) == 2
    assert "fan size must be >= 1, got 0" in capsys.readouterr().err


def test_unserializable_report_prints_nothing_and_writes_no_file(
        tmp_path, capsys, monkeypatch):
    def broken(report):
        raise ConfigurationError("cannot serialize this report")

    monkeypatch.setattr("mroot.cli.render_json", broken)
    out = tmp_path / "r.json"
    assert main(["identities", path("quartic2"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "cannot serialize this report" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("header, message", [
    ("probe = 0 0 ; nan 1", "line 5, column 15: non-finite number in probe "
                            "direction: 'nan 1'"),
    ("probe = 0 inf ; 1 1", "line 5, column 11: non-finite number in probe "
                            "point: '0 inf'"),
], ids=["probe_direction_nan", "probe_point_inf"])
def test_non_finite_file_probe_exits_two(header, message, tmp_path, capsys):
    bad = tmp_path / "bad.metric"
    bad.write_text("n = 2\nm = 2\nbox.1 = -1,1\nbox.2 = -1,1\n" + header
                   + "\n1 1 : 1\n2 2 : 1\n")
    assert main(["identities", str(bad)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("entry, message", [
    ("recip(0)", "line 5, column 7: recip divides by zero"),
    ("exp(1000)", "line 5, column 7: exp overflows"),
    ("pow(1e200, 2)", "line 5, column 7: pow overflows"),
    ("1e400", "line 5, column 7: number 1e400 is out of range"),
    ("mul(1e200, 1e200)", "line 5, column 7: mul overflows"),
    ("exp(mul(1000, sum(x1, 1)))", "coefficient (1, 1) is not finite at x=["),
], ids=["recip_zero", "exp_overflow", "pow_overflow", "literal_overflow",
        "mul_overflow", "overflow_at_evaluation"])
def test_non_finite_coefficient_exits_two(entry, message, tmp_path, capsys):
    bad = tmp_path / "bad.metric"
    bad.write_text("n = 2\nm = 2\nbox.1 = -0.5,0.5\nbox.2 = -0.5,0.5\n"
                   f"1 1 : {entry}\n2 2 : 1\n")
    assert main(["report-all", str(bad)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "admissible" not in captured.err
    assert captured.out == ""


HORNER = ("sum(1, ", "mul(x1, ")
EXP_CHAIN = ("exp(", "mul(0.1, ")


def nested_entry(heads, calls):
    """``calls`` nested calls around x1, cycling through ``heads`` from
    the outside in, and the offset of the innermost call's name."""
    opened = [heads[k % len(heads)] for k in range(calls)]
    return "".join(opened) + "x1" + ")" * calls, len("".join(opened[:-1]))


@pytest.mark.parametrize("heads", [HORNER, EXP_CHAIN], ids=["horner", "exp"])
def test_calls_nest_at_most_200_deep(heads, tmp_path, capsys):
    text = ("n = 2\nm = 2\nbox.1 = -0.5,0.5\nbox.2 = -0.5,0.5\n"
            "1 1 : {}\n2 2 : 1\n")
    at_bound = tmp_path / "at_bound.metric"
    at_bound.write_text(text.format(nested_entry(heads, 200)[0]))
    assert main(["report-all", str(at_bound)]) in (0, 1)
    capsys.readouterr()
    deeper = tmp_path / "deeper.metric"
    expr, offset = nested_entry(heads, 201)
    deeper.write_text(text.format(expr))
    assert main(["report-all", str(deeper)]) == 2
    # the 201st call, after the entry's "1 1 : " prefix
    captured = capsys.readouterr()
    assert (f"line 5, column {7 + offset}: calls nest deeper than 200"
            in captured.err)
    assert captured.out == ""


def test_oversized_coefficient_array_exits_two(tmp_path, capsys):
    # rejected before anything is allocated: 10^12 slots would take 7 TiB
    bad = tmp_path / "big.metric"
    bad.write_text("n = 10\nm = 12\n"
                   + "".join(f"box.{i} = -1,1\n" for i in range(1, 11))
                   + "1 " * 12 + ": 1\n")
    assert main(["report-all", str(bad)]) == 2
    captured = capsys.readouterr()
    assert "n = 10, m = 12 is too large" in captured.err
    assert "n^m = 10^12 slots" in captured.err
    assert captured.out == ""


# report-all stops at quartic2_degenerate's explicit probe with exit 3
CHECKED_MEMBERS = sorted(p.stem for p in DATA_DIR.glob("*.metric")
                         if p.stem != "quartic2_degenerate")
SINGLE_CHECKS = {
    "identities": "identities",
    "spray": "spray_agreement",
    "curvature": "curvature_consistency",
    "classify-dually-flat": "dually_flat",
    "classify-antonelli": "antonelli",
    "classify-isotropic": "isotropic_mean_berwald",
}


@pytest.mark.parametrize("name", CHECKED_MEMBERS)
def test_single_check_subcommands_match_report_all(name, tmp_path, capsys):
    def run(command):
        out = tmp_path / f"{command}.json"
        main([command, path(name), "--seed", "3", "--out", str(out)])
        return json.loads(out.read_text())

    full = {v["name"]: v for v in run("report-all")["verdicts"]}
    for command, verdict in SINGLE_CHECKS.items():
        if verdict in full:
            assert run(command)["verdicts"] == [full[verdict]], command
    # the isotropic check is the only one report-all leaves out, and only
    # in dimension 1
    missing = set(SINGLE_CHECKS.values()) - set(full)
    n = parse_metric_file(path(name)).field.n
    assert missing == ({"isotropic_mean_berwald"} if n == 1 else set())
    capsys.readouterr()


BASE_KEYS = ["command", "metric", "n", "m", "seed", "tol", "fan", "bases"]
PROBE_KEYS = ["explicit_probes", "probe_count"]
END_KEYS = ["verdicts", "overall"]


@pytest.mark.parametrize("command, member, keys", [
    ("identities", "quartic2", PROBE_KEYS),
    ("spray", "quartic2", PROBE_KEYS),
    ("spray", "funk1_probe", PROBE_KEYS + ["samples"]),
    ("curvature", "funk1_probe", PROBE_KEYS),
    ("classify-dually-flat", "funk1_probe", []),
    ("classify-antonelli", "quartic2", []),
    ("classify-isotropic", "quartic2", []),
    ("report-all", "funk1_probe", PROBE_KEYS),
])
def test_report_keys_in_order(command, member, keys, tmp_path, capsys):
    out = tmp_path / "r.json"
    main([command, path(member), "--bases", "2", "--out", str(out)])
    capsys.readouterr()
    assert list(json.loads(out.read_text())) == BASE_KEYS + keys + END_KEYS


def test_vacuous_isotropic_pass_is_shown_in_the_table(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["classify-isotropic", path("random_cubic3"),
                 "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith(
        "isotropic_mean_berwald   PASS  vacuous, fit residual 3.89")
    assert lines[2].endswith("e+07  (tol_fit 1.0e-07)")
    verdict = json.loads(out.read_text())["verdicts"][0]
    assert verdict["passed"] is True and verdict["residual"] == 0.0
    assert verdict["details"]["fit_ok"] is False


def test_report_all_computes_each_probe_once_with_many_bases(monkeypatch,
                                                             capsys):
    # 20 bases is more than the 16 base points a field keeps by default;
    # every check walks the bases in order, so each base point and each
    # probe must still be computed once per run
    counts = {"coeff_array": 0, "spray": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(SymTensorField, "coeff_array",
                        counted("coeff_array", SymTensorField.coeff_array))
    monkeypatch.setattr(spray, "SprayEval",
                        counted("spray", spray.SprayEval))
    bases, fan = 20, 8
    assert main(["report-all", path("quartic2_scaled"), "--bases",
                 str(bases), "--fan", str(fan)]) == 1
    capsys.readouterr()
    n = 2
    probes = bases * fan                 # Q: every probe of the set
    shared = (bases - 1) * fan           # S: antonelli's shared directions
    assert counts["coeff_array"] == (1 + n) * bases
    assert counts["spray"] == probes + shared
