"""Command-line interface: configuration resolution, output formats,
exit statuses, and the report record."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from qvirasoro import correlators, qspecial, relations
from qvirasoro.cli import DEFAULTS, SUITES, SuiteConfig, main, run
from qvirasoro.errors import PoleError
from qvirasoro.report import _scan_report


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _cp():
    """The correlator parameters eval builds from --q 0.49 --t 0.7 alone."""
    return correlators.CorrelatorParams(params=qspecial.QParams(0.49, 0.7), L=1.0)


def strip_runtime(records):
    return [{k: v for k, v in r.items() if k != "runtime_ms"} for r in records]


class TestExitStatus:
    def test_pass_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "qspecial")
        assert code == 0
        assert "[PASS]" in out

    def test_failure_is_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "qspecial", "--tol", "1e-30"
        )
        assert code == 1
        assert "[FAIL]" in out

    def test_inconclusive_is_two(self, capsys):
        # L = 3 pushes the lattice exponent b below zero
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "four-point", "--L", "3.0"
        )
        assert code == 2
        assert "[INCONCLUSIVE]" in out

    def test_poles_of_the_scalar_layer_are_inconclusive(self, capsys):
        # t = q^2: the four-point closed form sits on a q-gamma pole and
        # the connection matrix is singular at u = 0; every other check
        # still gives its record
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "all", "--q", "0.5", "--t", "0.25"
        )
        assert code == 2
        lines = out.splitlines()
        assert lines[-1] == "18 checks: 16 passed, 0 failed, 2 inconclusive"
        assert "[INCONCLUSIVE] four-point" in out and "pole" in out

    @pytest.mark.parametrize(
        "q, t, ell",
        [("1e-20", "0.5", "1"), ("1e-20", "0.5", "3"), ("0.5", "1e-20", "3"), ("0.999", "1e-8", "1")],
    )
    @pytest.mark.parametrize("suite", list(SUITES))
    def test_extreme_points_exit_with_a_status(self, capsys, suite, q, t, ell):
        # an overflow, an underflow or a pole anywhere in a check, its
        # set-up included, decides that check: no traceback escapes, and
        # no numpy warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run_cli(
                capsys, "verify", "--suite", suite, "--q", q, "--t", t, "--ell", ell,
                "--degree", "3", "--window", "2",
            )
        assert code in (0, 1, 2, 3)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_float_overflow_records_read_as_eval_prints_them(self, capsys):
        # the exchange checks and argument-shift overflow in Python float
        # powers here, whose error is errno's bare pair
        # (34, 'Numerical result out of range'): each record names it as
        # ``eval`` does
        _, out, _ = run_cli(
            capsys, "verify", "--suite", "all", "--q", "1e-20", "--t", "0.5",
            "--degree", "3", "--window", "2", "--json",
        )
        locations = [row["worst_location"] for row in json.loads(out)]
        named = [loc for loc in locations if loc == "overflow (Numerical result out of range)"]
        assert len(named) == 7
        assert not [loc for loc in locations if "(34," in loc]

    @pytest.mark.parametrize("ell", ["1", "3"])
    def test_oversized_pair_form_is_inconclusive(self, capsys, ell):
        # the pair form would need over 1e9 factors here: it is refused
        # before it is allocated, not a MemoryError
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "two-point", "--q", "0.999", "--t", "0.999999",
            "--ell", ell,
        )
        assert code == 2
        assert "[INCONCLUSIVE] two-point" in out and "factors" in out

    def test_overflowing_connection_is_inconclusive(self, capsys):
        # Gamma_q(a + b) once underflowed here, and beta_q's division by
        # it escaped as a ZeroDivisionError traceback
        code, out, err = run_cli(
            capsys, "verify", "--suite", "connection", "--q", "0.4", "--t", "0.02",
            "--L", "10",
        )
        assert code == 2
        assert "[INCONCLUSIVE] connection" in out and err == ""

    def test_overflowing_connection_leaks_no_warning(self, capsys):
        # the scalar kernels overflow here; they evaluate under
        # np.errstate, so no numpy RuntimeWarning may escape
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(
                capsys, "verify", "--suite", "connection", "--q", "0.4", "--t", "0.02",
                "--L", "10",
            )
        assert code == 2 and err == ""

    def test_pole_in_one_suite_keeps_the_other_records(self, capsys):
        # t = q^{3/2}: the composite exchange's product form has a pole at
        # its support; that check alone becomes inconclusive
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "all", "--q", "0.64", "--t", "0.512",
            "--ell", "2", "--json",
        )
        assert code == 2
        records = json.loads(out)
        assert len(records) == 18
        (rec,) = [r for r in records if r["identity"] == "composite-exchange"]
        assert rec["pass"] is False and math.isinf(rec["residual"])
        assert "pole" in rec["worst_location"]

    def test_pole_is_decided_per_check(self, monkeypatch):
        # a pole in one check of a suite leaves its siblings' records
        exact = relations._exchange_setup

        def setup(ell, params, variant):
            if variant == "theta":
                raise PoleError("product form has a pole at x=1.0")
            return exact(ell, params, variant)

        monkeypatch.setattr(relations, "_exchange_setup", setup)
        cfg = SuiteConfig(
            q=0.49, t=0.7, ell=1, k=1, L=0.5, r=None, degree=3, window=3, tol=None,
            seed=1, suites=("vertex-exchange",),
        )
        reports = run(cfg)
        assert [(r.identity, r.status) for r in reports] == [
            ("vertex-exchange", "pass"),
            ("vertex-exchange-theta", "inconclusive"),
            ("vertex-exchange-mirror", "pass"),
        ]
        assert "pole" in reports[1].worst_location

    def test_equal_deformation_parameters_are_refused(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--suite", "qspecial", "--q", "0.5", "--t", "0.5"
        )
        assert code == 3
        assert "q = t is excluded" in err

    def test_unknown_suite_lists_names(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "nonsense")
        assert code == 3
        assert "valid names" in err
        for name in ("defining-relation", "connection", "qspecial"):
            assert name in err

    @pytest.mark.parametrize(
        "source, value",
        [
            ("flag", ""),
            ("flag", ","),
            ("environment", " "),
            ("environment", ","),
            ("file", ""),
            ("file", " , "),
        ],
    )
    def test_empty_suite_selection_is_config_error(
        self, capsys, tmp_path, monkeypatch, source, value
    ):
        # zero checks run would otherwise exit 0, "all passed"
        argv = ["verify"]
        if source == "flag":
            argv += ["--suite", value]
        elif source == "environment":
            monkeypatch.setenv("QVIR_SUITE", value)
        else:
            cfgfile = tmp_path / "run.cfg"
            cfgfile.write_text(f"suite = {value}\n")
            argv += ["--config", str(cfgfile)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "no suite selected" in err

    def test_degree_window_consistency(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--suite", "qspecial", "--degree", "2", "--window", "4"
        )
        assert code == 3
        assert "degree cap" in err

    @pytest.mark.parametrize("source", ["flag", "env", "file"])
    @pytest.mark.parametrize(
        "key, value",
        [("tol", "nan"), ("tol", "-1"), ("r", "nan"), ("L", "nan"), ("L", "inf"),
         ("seed", "-1"), ("ell", "0"), ("k", "0")],
    )
    def test_bad_value_is_config_error(
        self, capsys, monkeypatch, tmp_path, source, key, value
    ):
        argv = ["verify", "--suite", "qspecial"]
        if source == "flag":
            argv.append(f"--{key}={value}")
        elif source == "env":
            monkeypatch.setenv(f"QVIR_{key.upper()}", value)
        else:
            cfgfile = tmp_path / "run.cfg"
            cfgfile.write_text(f"{key} = {value}\n")
            argv += ["--config", str(cfgfile)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("key, value", [("degree", "1.5"), ("q", "abc")])
    def test_malformed_environment_value_is_config_error(
        self, capsys, monkeypatch, key, value
    ):
        monkeypatch.setenv(f"QVIR_{key.upper()}", value)
        code, out, err = run_cli(capsys, "verify", "--suite", "qspecial")
        assert code == 3
        assert out == ""
        assert repr(key) in err and repr(value) in err

    @pytest.mark.parametrize(
        "kind, key, value", [("int", "degree", "1.5"), ("float", "q", "abc")]
    )
    def test_malformed_flag_value_is_config_error(self, capsys, kind, key, value):
        # flags are read by the same parser as the environment and the file
        code, out, err = run_cli(
            capsys, "verify", "--suite", "qspecial", f"--{key}", value
        )
        assert code == 3
        assert out == ""
        assert err == f"error: {kind} key {key!r} got {value!r}\n"

    def test_malformed_config_file_value_is_config_error(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("seed = x\n")
        code, out, err = run_cli(
            capsys, "verify", "--suite", "qspecial", "--config", str(cfgfile)
        )
        assert code == 3
        assert out == ""
        assert "'seed'" in err and "'x'" in err

    @pytest.mark.parametrize("source", ["flag", "env", "file"])
    def test_json_and_csv_are_exclusive(self, capsys, monkeypatch, tmp_path, source):
        argv = ["verify", "--suite", "qspecial", "--json"]
        if source == "flag":
            argv.append("--csv")
        elif source == "env":
            monkeypatch.setenv("QVIR_CSV", "1")
        else:
            cfgfile = tmp_path / "run.cfg"
            cfgfile.write_text("csv = true\n")
            argv += ["--config", str(cfgfile)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "exclusive" in err

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 3


class TestJson:
    def test_record_schema(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "qspecial", "--json")
        assert code == 0
        records = json.loads(out)
        assert len(records) == 1
        rec = records[0]
        assert set(rec) == {
            "identity",
            "pass",
            "residual",
            "tolerance",
            "worst_location",
            "params",
            "truncation",
            "runtime_ms",
        }
        assert set(rec["params"]) == {"q", "t", "ell", "k", "L", "r", "seed"}
        assert set(rec["truncation"]) == {"degree", "window"}
        assert rec["identity"] == "qspecial"
        assert rec["pass"] is True
        # default period resolves to 1/beta = log q / log t = 2
        assert rec["params"]["r"] == pytest.approx(2.0)
        assert rec["params"]["seed"] == DEFAULTS["seed"]

    def test_inconclusive_has_infinite_residual(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "four-point", "--L", "3.0", "--json"
        )
        assert code == 2
        rec = json.loads(out)[0]
        assert rec["pass"] is False
        assert math.isinf(rec["residual"])

    def test_deterministic_modulo_runtime(self, capsys):
        argv = ("verify", "--suite", "delta-identity", "--seed", "777", "--json")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert strip_runtime(json.loads(out1)) == strip_runtime(json.loads(out2))

    def test_vertex_exchange_emits_three_records(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "vertex-exchange", "--degree", "3",
            "--window", "3", "--json",
        )
        assert code == 0
        assert [r["identity"] for r in json.loads(out)] == [
            "vertex-exchange",
            "vertex-exchange-theta",
            "vertex-exchange-mirror",
        ]


class TestCsv:
    def test_header_and_float_repr(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "qspecial", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == (
            "identity,pass,residual,tolerance,worst_location,"
            "q,t,ell,k,L,r,seed,degree,window,runtime_ms"
        )
        cells = lines[1].split(",")
        assert cells[0] == "qspecial"
        assert cells[5] == "0.49"  # floats round-trip via repr
        assert float(cells[2]) <= float(cells[3])


class TestPrecedence:
    def test_config_env_flag_order(self, capsys, tmp_path, monkeypatch):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("q = 0.6\nsuite = qspecial\njson = true\n")
        # config file alone
        code, out, _ = run_cli(capsys, "verify", "--config", str(cfgfile))
        assert code == 0
        assert json.loads(out)[0]["params"]["q"] == 0.6
        # environment overrides the file
        monkeypatch.setenv("QVIR_Q", "0.55")
        _, out, _ = run_cli(capsys, "verify", "--config", str(cfgfile))
        assert json.loads(out)[0]["params"]["q"] == 0.55
        # flags override both
        _, out, _ = run_cli(capsys, "verify", "--config", str(cfgfile), "--q", "0.45")
        assert json.loads(out)[0]["params"]["q"] == 0.45

    def test_config_r_auto(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("r = auto\nsuite = qspecial\njson = 1\n")
        code, out, _ = run_cli(capsys, "verify", "--config", str(cfgfile))
        assert code == 0
        assert json.loads(out)[0]["params"]["r"] == pytest.approx(2.0)

    def test_flag_r_auto_overrides_the_file(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("r = 3\n")
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "qspecial", "--json", "--config", str(cfgfile),
            "--r", "auto",
        )
        assert code == 0
        assert json.loads(out)[0]["params"]["r"] == pytest.approx(2.0)

    @pytest.mark.parametrize("line", ["degree 5", "json"])
    def test_config_line_without_equals_is_config_error(self, capsys, tmp_path, line):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{line}\n")
        code, out, err = run_cli(
            capsys, "verify", "--suite", "qspecial", "--config", str(cfgfile)
        )
        assert code == 3
        assert out == ""
        assert "expected 'key = value'" in err

    def test_unknown_environment_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("QVIR_THREADS", "2")
        code, _, err = run_cli(capsys, "verify", "--suite", "qspecial")
        assert code == 3
        assert "QVIR_THREADS" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--config", "/nonexistent.cfg")
        assert code == 3
        assert "cannot read config file" in err


class TestEval:
    def test_phi21_at_origin(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "phi21", "--a", "0.3", "--b", "0.5", "--c", "0.8",
            "--q", "0.5", "--z", "0",
        )
        assert code == 0
        assert out.strip() == "1"

    def test_bracket_requires_period(self, capsys):
        code, _, err = run_cli(capsys, "eval", "bracket", "--u", "0.4", "--q", "0.49")
        assert code == 3
        assert "--r" in err

    def test_four_point_methods_agree(self, capsys):
        values = []
        for method in ("closed", "jackson"):
            code, out, _ = run_cli(
                capsys, "eval", "four-point", "--q", "0.49", "--t", "0.7",
                "--z", "1", "--w", "0.4", "--method", method,
            )
            assert code == 0
            values.append(float(out))
        # 2.0078040842749934 (closed) and 2.0078040842749747 (jackson)
        assert values[0] == pytest.approx(values[1], rel=1e-12)

    @pytest.mark.parametrize(
        "argv",
        [
            ("two-point", "--q", "0.49", "--t", "0.7", "--z", "1", "--w", "0.4"),
            ("screening-wave", "--q", "0.49", "--t", "0.7", "--x", "0.4"),
            ("four-point", "--q", "0.49", "--t", "0.7", "--z", "1", "--w", "0.4"),
            ("bracket", "--u", "0.4", "--q", "0.49", "--r", "2"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_ell_zero_is_not_read_as_one(self, capsys, argv):
        code, out, err = run_cli(capsys, "eval", *argv, "--ell", "0")
        assert code == 1
        assert out == ""
        assert ">= 1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("screening-wave", "--q", "0.49", "--t", "0.7", "--x", "0.3", "--r", "nan"),
            ("four-point", "--q", "0.49", "--t", "0.7", "--z", "1", "--w", "0.4",
             "--L", "nan"),
            ("phi21", "--a", "0.3", "--b", "0.5", "--c", "0.8", "--q", "0.5",
             "--z", "inf"),
            ("gamma-q", "--x=-inf", "--q", "0.5"),
        ],
        ids=["r-nan", "L-nan", "z-inf", "x-minus-inf"],
    )
    def test_non_finite_flag_is_config_error(self, capsys, argv):
        # --r nan once printed a value and --L nan a convergence error
        with pytest.raises(SystemExit) as exc:
            main(["eval", *argv])
        assert exc.value.code == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert "expected a finite number" in out.err

    def test_negative_qpoch_length_is_config_error(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "qpoch", "--a", "0.3", "--q", "0.5", "--n", "-1"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "--n" in err

    @pytest.mark.parametrize(
        "function, flags, required, value",
        [
            ("phi21", {"a": 0.3, "b": 0.5, "c": 0.8, "q": 0.5, "z": 0.2},
             "abcqz", lambda: qspecial.phi21(0.3, 0.5, 0.8, 0.5, 0.2)),
            ("qpoch", {"a": 0.3, "q": 0.5}, "aq", lambda: qspecial.qpoch_inf(0.3, 0.5)),
            ("qpoch", {"a": 0.3, "q": 0.5, "n": 4}, "aq",
             lambda: qspecial.qpoch(0.3, 0.5, 4)),
            ("gamma-q", {"x": 2.5, "q": 0.5}, "xq", lambda: qspecial.gamma_q(2.5, 0.5)),
            ("beta-q", {"a": 1.5, "b": 2.5, "q": 0.5}, "abq",
             lambda: qspecial.beta_q(1.5, 2.5, 0.5)),
            ("theta-q", {"z": 0.7, "q": 0.5}, "zq", lambda: qspecial.theta_q(0.7, 0.5)),
            ("bracket", {"u": 0.4, "q": 0.49, "r": 2.0}, "uqr",
             lambda: qspecial.bracket(0.4, qspecial.BracketParams(q=0.49, ell=1, r=2.0))),
            ("two-point", {"z": 1.0, "w": 0.4, "q": 0.49, "t": 0.7}, "zwqt",
             lambda: correlators.two_point(1.0, 0.4, _cp())),
            ("screening-wave", {"x": 0.4, "q": 0.49, "t": 0.7}, "xqt",
             lambda: correlators.screening_wave(0.4, _cp())),
            ("four-point", {"z": 1.0, "w": 0.4, "q": 0.49, "t": 0.7}, "zwqt",
             lambda: correlators.four_point_closed("plus", 1.0, 0.4, _cp())),
        ],
        ids=[
            "phi21", "qpoch-inf", "qpoch-n", "gamma-q", "beta-q", "theta-q",
            "bracket", "two-point", "screening-wave", "four-point",
        ],
    )
    def test_every_function_prints_the_library_value(
        self, capsys, function, flags, required, value
    ):
        argv = [f for name, v in flags.items() for f in (f"--{name}", str(v))]
        code, out, _ = run_cli(capsys, "eval", function, *argv)
        assert code == 0
        assert out == f"{value():.17g}\n"
        # with only the flags before it given, each required flag is the
        # one reported missing
        for i, name in enumerate(required):
            given = [f for n in required[:i] for f in (f"--{n}", str(flags[n]))]
            code, out, err = run_cli(capsys, "eval", function, *given)
            assert code == 3
            assert out == ""
            assert err == f"error: eval function missing required --{name}\n"

    @pytest.mark.parametrize(
        "argv, value",
        [
            (("two-point", "--q", "0.49", "--t", "0.7", "--z", "0", "--w", "0.4"), None),
            (("four-point", "--q", "0.49", "--t", "0.7", "--z", "0", "--w", "0.4"), None),
            (("beta-q", "--a", "-2000", "--b", "1", "--q", "0.5"), None),
            (("gamma-q", "--x", "-2000.5", "--q", "0.5"), None),
            (("qpoch", "--a", "1e308", "--q", "0.5"), lambda: qspecial.qpoch_inf(1e308, 0.5)),
            (("screening-wave", "--q", "0.49", "--t", "0.7", "--x", "1e308"), None),
            (
                ("two-point", "--q", "0.01", "--t", "0.5", "--z", "1", "--w", "1.7e308", "--ell", "3"),
                lambda: correlators.two_point(
                    1.0, 1.7e308, correlators.CorrelatorParams(qspecial.QParams(0.01, 0.5), ell=3)
                ),
            ),
            (("two-point", "--q", "0.01", "--t", "0.5", "--z", "1e-300", "--w", "1e8", "--ell", "3"), None),
        ],
        ids=["two-point-z0", "four-point-z0", "beta-q-overflow", "gamma-q-overflow",
             "qpoch-huge", "screening-wave-huge", "two-point-huge-reach", "two-point-huge-pole"],
    )
    def test_arithmetic_edges_give_no_traceback(self, capsys, argv, value):
        # each once escaped main as a ZeroDivisionError, an OverflowError
        # or a "math domain error", or printed nan (screening-wave); the
        # pair form's bound at a reach near the float limit once warned of
        # an overflow in rows * reach
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "eval", *argv)
        assert not caught, [str(w.message) for w in caught]
        assert "Traceback" not in err
        if value is None:
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {argv[0]}: ")
            if argv[0] in ("beta-q", "gamma-q", "screening-wave"):
                assert err.startswith(f"error: {argv[0]}: overflow (")
        else:
            assert (code, out, err) == (0, f"{value():.17g}\n", "")

    def test_pole_is_runtime_error_not_config(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "two-point", "--q", "0.49", "--t", "0.7",
            "--z", "1", "--w", str(1 / 0.49),
        )
        assert code == 1
        assert "pole" in err


class TestReportRecord:
    def test_status_derived_from_residual(self):
        def report(residual):
            return _scan_report("x", [(residual, "here")], 1e-8)

        assert report(1e-10).passed
        assert report(1e-6).status == "fail"
        assert report(math.inf).status == "fail"
        rep = report(math.nan)
        assert rep.status == "inconclusive" and math.isinf(rep.residual)

    def test_summary_line_and_notes(self):
        pairs = [(2e-9, "mode 3")]
        rep = _scan_report("demo", pairs, 1e-8, ["extra"])
        line = rep.summary_line()
        assert line.startswith("[PASS]")
        assert "demo" in line and "mode 3" in line
        assert rep.notes == ["extra"]

    def test_suite_registry_is_complete(self):
        assert len(SUITES) == 16


class TestSuiteTable:
    # every identity of `--suite all`, in registry order, with its default
    # tolerance
    EXPECTED = [
        ("defining-relation", 1e-8),
        ("screening", 1e-8),
        ("screening-mirror", 1e-8),
        ("vertex-exchange", 1e-8),
        ("vertex-exchange-theta", 1e-8),
        ("vertex-exchange-mirror", 1e-8),
        ("current-vertex-exchange", 1e-8),
        ("adjoint-shift", 1e-8),
        ("exchange-rewrite", 1e-8),
        ("composite-exchange", 1e-8),
        ("fusion", 1e-10),
        ("argument-shift", 1e-10),
        ("delta-identity", 1e-10),
        ("qspecial", 1e-12),
        ("two-point", 1e-12),
        ("four-point", 1e-8),
        ("pseudo-constant", 1e-10),
        ("connection", 1e-6),
    ]
    ARGV = ("verify", "--suite", "all", "--degree", "2", "--window", "2", "--json")

    def test_order_and_default_tolerances(self, capsys):
        _, out, _ = run_cli(capsys, *self.ARGV)
        got = [(r["identity"], r["tolerance"]) for r in json.loads(out)]
        assert got == self.EXPECTED

    def test_tol_replaces_every_default(self, capsys):
        _, out, _ = run_cli(capsys, *self.ARGV, "--tol", "1e-3")
        records = json.loads(out)
        assert [r["identity"] for r in records] == [i for i, _ in self.EXPECTED]
        assert {r["tolerance"] for r in records} == {1e-3}

    def test_window_sets_adjoint_shift_modes(self, capsys, monkeypatch):
        seen = []
        check = relations.check_adjoint_shift

        def spy(ell, params, modes, *args, **kwargs):
            seen.append(list(modes))
            return check(ell, params, modes, *args, **kwargs)

        monkeypatch.setattr(relations, "check_adjoint_shift", spy)
        for window in ("1", "3"):
            code, _, _ = run_cli(
                capsys, "verify", "--suite", "adjoint-shift", "--degree", "3",
                "--window", window,
            )
            assert code == 0
        assert seen == [[-1, 0, 1], [-3, -2, -1, 0, 1, 2, 3]]


def _child_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_closed_pipe_gives_no_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "qvirasoro", "verify", "--suite", "delta-identity"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    # the reader is gone before the report is written
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 0
    assert "Traceback" not in err, err


def test_verify_does_not_import_numpy_random():
    # importing numpy.random costs a fresh process 10-16 ms and 19 modules;
    # pytest's own plugins may load it, so the run needs a process of its own
    script = (
        "import sys\n"
        "from qvirasoro.cli import main\n"
        "code = main(['verify', '--suite', 'all', '--json'])\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


# Appended to a child's script: prints the child's own peak RSS in KiB.
# ru_maxrss would not do: on Linux a child keeps its parent's peak across
# fork and exec, so it reads the test runner's peak, not the child's.
PRINT_PEAK = (
    "with open('/proc/self/status') as fh:\n"
    "    peak = [ln.split()[1] for ln in fh if ln.startswith('VmHWM:')][0]\n"
    "print(peak, file=sys.stderr)\n"
)


@pytest.mark.parametrize("degree, bound_mb", [(7, 40), (10, 46), (12, 62), (14, 106)])
def test_deep_suite_memory(degree, bound_mb):
    # every operator is applied as the leading blocks the check compares,
    # never as a whole N x N matrix, on a basis that stops where the
    # structure series' zeros allow: about 33, 39, 52 and 90 MB at degrees
    # 7, 10, 12 and 14, where whole matrices sliced to the corner took 41,
    # 71 and 142 MB at the first three, and products over the whole basis
    # 1158 MB at degree 7.  The operator data that the checks of a point
    # share stays within its budget: unbounded, it took 89 MB at degree 12
    # and 214 MB at degree 14
    script = (
        "import sys\n"
        "from qvirasoro.cli import main\n"
        "code = main(sys.argv[1:])\n"
        + PRINT_PEAK
        + "sys.exit(code)\n"
    )
    argv = ["verify", "--suite", "all", "--degree", str(degree), "--json"]
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stderr.split()[-1]) / 1024
    assert peak_mb < bound_mb, f"peak RSS {peak_mb:.0f} MB"


def test_scalar_layer_memory():
    # check_two_point at the scalar-sweep sites (the 20 off-diagonal
    # centres of a 5 x 5 grid over [0.05, 0.95]^2) and ell 1, 2, 3: about
    # 35 MB with each form freed after its check; 47 MB when the largest
    # form (at (0.86, 0.68), ell 3) had all 444,960 factors where 119,596
    # can move its value at x = 0.55, and 157 MB when up to 32 forms were
    # cached
    script = (
        "import sys\n"
        "from qvirasoro.correlators import check_two_point\n"
        "from qvirasoro.qspecial import QParams\n"
        "c = [0.05 + 0.9 * (i + 0.5) / 5 for i in range(5)]\n"
        "for q in c:\n"
        "    for t in c:\n"
        "        if abs(q - t) > 0.05:\n"
        "            for ell in (1, 2, 3):\n"
        "                check_two_point(QParams(q, t), ell)\n"
        + PRINT_PEAK
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stderr.split()[-1]) / 1024
    assert peak_mb < 60, f"peak RSS {peak_mb:.0f} MB"


def test_two_point_residual_does_not_depend_on_blas_threads():
    # a BLAS dot product splits its sum by thread count: summed with
    # np.dot, the log of the pair form read 0x1.f2f0953d9b615p-45 with one
    # OpenBLAS thread and 0x1.207316479dd44p-45 with two
    script = (
        "from qvirasoro.correlators import check_two_point\n"
        "from qvirasoro.qspecial import QParams\n"
        "print(check_two_point(QParams(0.86, 0.68), 3).residual.hex())\n"
    )
    residuals = []
    for threads in ("1", "2"):
        env = {**_child_env(), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        residuals.append(proc.stdout.strip())
    assert residuals[0] == residuals[1]
