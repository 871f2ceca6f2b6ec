"""End-to-end CLI runs: exit codes, artifacts, and byte determinism."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from datetime import date, timedelta

import numpy as np
import pytest

import regarch
from regarch import cli
from regarch.data import daily_log_returns, load_daily_prices
from regarch.garch import RATIONAL, GarchParams
from regarch.simulate import simulate_garch

_SIM_ARGS = [
    "simulate",
    "--days", "150",
    "--steps-per-day", "78",
    "--model", "garch-re",
    "--omega", "2.8e-4",
    "--alpha", "0.132",
    "--beta", "0.768",
    "--a", "1.57",
    "--rho2", "2.5e-7",
    "--seed", "3",
]
# small chains keep the CLI tests quick; determinism and flag plumbing do
# not depend on chain length
_FAST_CHAIN = ["--burn-in", "300", "--samples", "600", "--adapt-interval", "100"]


def _read_csv(path):
    """(header, data rows) of a CSV, with leading # comments separated."""
    comments, rows = [], []
    with open(path, newline="", encoding="utf-8") as stream:
        for line in stream:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                rows.append(next(csv.reader([line])))
    return comments, rows[0], rows[1:]


def _column(rows, idx):
    return np.array([float(r[idx]) for r in rows])


@pytest.fixture(scope="module")
def market(tmp_path_factory):
    out = tmp_path_factory.mktemp("market")
    assert cli.main(_SIM_ARGS + ["--out-dir", str(out)]) == 0
    return out


class TestParsing:
    def test_version(self, capsys):
        assert cli.main(["--version"]) == 0
        assert "regarch" in capsys.readouterr().out

    def test_no_command(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "deltas", ["30,abc", "30,-60", "0", ""],
    )
    def test_bad_delta_list(self, deltas, tmp_path, capsys):
        code = cli.main(["rv", "--ticks", "x.csv", "--delta-list", deltas])
        assert code == 2

    def test_bad_start_date(self, capsys):
        assert cli.main(["simulate", "--start-date", "01/02/2006"]) == 2

    def test_missing_required_flag(self, capsys):
        assert cli.main(["fit", "--data", "x.csv"]) == 2  # no --model

    def test_bad_model_choice(self, capsys):
        code = cli.main(["fit", "--model", "egarch", "--data", "x.csv"])
        assert code == 2


# For one argv of each subcommand: the recorded configuration, in order, and
# the CSV comment lines made from it.  The output directory is not recorded.
_INVOCATION_GOLDEN = {
    "fit": (
        ["fit", "--model", "garch-re", "--data", "d.csv", "--samples", "900",
         "--nu", "7.5", "--seed", "4", "--out-dir", "fits"],
        [("command", "fit"), ("model", "garch-re"), ("data", "d.csv"),
         ("burn_in", 6000), ("samples", 900), ("adapt_interval", 500),
         ("nu", 7.5), ("seed", 4)],
        ["regarch fit", "model = garch-re", "data = d.csv", "burn-in = 6000",
         "samples = 900", "adapt-interval = 500", "nu = 7.5", "seed = 4"],
    ),
    "compare": (
        ["compare", "--data", "d.csv", "--paper-literal-aic", "--burn-in", "800",
         "--out-dir", "fits"],
        [("command", "compare"), ("data", "d.csv"), ("burn_in", 800),
         ("samples", 50000), ("adapt_interval", 500), ("nu", 10.0),
         ("paper_literal_aic", True), ("seed", 0)],
        ["regarch compare", "data = d.csv", "burn-in = 800", "samples = 50000",
         "adapt-interval = 500", "nu = 10.0", "paper-literal-aic = True",
         "seed = 0"],
    ),
    "rv": (
        ["rv", "--ticks", "t.csv", "--delta-list", "60,1800,3600", "--out-dir", "rv"],
        [("command", "rv"), ("ticks", "t.csv"), ("calendar", None), ("data", None),
         ("delta_list", [60.0, 1800.0, 3600.0]), ("seed", 0)],
        ["regarch rv", "ticks = t.csv", "calendar = None", "data = None",
         "delta-list = 60,1800,3600", "seed = 0"],
    ),
    "rmspe": (
        ["rmspe", "--data", "d.csv", "--ticks", "t.csv", "--calendar", "cal.json",
         "--rv-as-vols", "--adapt-interval", "250", "--seed", "9"],
        [("command", "rmspe"), ("data", "d.csv"), ("ticks", "t.csv"),
         ("calendar", "cal.json"),
         ("delta_list", [30.0, 60.0, 300.0, 900.0, 1800.0, 3600.0]),
         ("burn_in", 6000), ("samples", 50000), ("adapt_interval", 250),
         ("nu", 10.0), ("paper_literal_rmspe", False), ("rv_as_vols", True),
         ("seed", 9)],
        ["regarch rmspe", "data = d.csv", "ticks = t.csv", "calendar = cal.json",
         "delta-list = 30,60,300,900,1800,3600", "burn-in = 6000",
         "samples = 50000", "adapt-interval = 250", "nu = 10.0",
         "paper-literal-rmspe = False", "rv-as-vols = True", "seed = 9"],
    ),
    "simulate": (
        ["simulate", "--days", "30", "--model", "garch-re", "--rho2", "5e-7",
         "--day-variance", "0.0001", "--start-date", "2007-03-01", "--seed", "2",
         "--out-dir", "m"],
        [("command", "simulate"), ("days", 30), ("steps_per_day", 390),
         ("model", "garch-re"), ("omega", 1e-05), ("alpha", 0.1), ("beta", 0.85),
         ("a", 2.0), ("day_variance", 0.0001), ("rho2", 5e-07),
         ("overnight_fraction", 0.0), ("start_price", 2500.0),
         ("start_date", "2007-03-01"), ("calendar", None), ("seed", 2)],
        ["regarch simulate", "days = 30", "steps-per-day = 390",
         "model = garch-re", "omega = 1e-05", "alpha = 0.1", "beta = 0.85",
         "a = 2.0", "day-variance = 0.0001", "rho2 = 5e-07",
         "overnight-fraction = 0.0", "start-price = 2500.0",
         "start-date = 2007-03-01", "calendar = None", "seed = 2"],
    ),
}


class TestInvocationRecord:
    @pytest.mark.parametrize("command", sorted(_INVOCATION_GOLDEN))
    def test_golden_record(self, command):
        argv, items, lines = _INVOCATION_GOLDEN[command]
        invocation = cli._invocation(cli.build_parser().parse_args(argv))
        assert list(invocation.items()) == items
        assert cli._comment_lines(invocation) == lines


# (arguments, sha256 of daily.csv, ticks.csv and truth.csv)
_SIMULATE_GOLDEN = {
    "garch-re": (
        ["--days", "30", "--steps-per-day", "40", "--model", "garch-re",
         "--omega", "2.8e-4", "--alpha", "0.132", "--beta", "0.768",
         "--a", "1.57", "--rho2", "5e-7", "--seed", "5"],
        ["5c06b99ac1873282b432aa2396364d296036b985a0cd73880feaf577c6f5135d",
         "aa8a6f7d32843441b7ef5abf045fb0a62fb416413275305e39eb4c42b6ba1dd6",
         "a13a135cee8aaf04aeb4c292ea2bce12a66dd3de62e315605230461814739d9d"],
    ),
    "garch-n-overnight": (
        ["--days", "25", "--steps-per-day", "37", "--model", "garch-n",
         "--overnight-fraction", "0.3", "--rho2", "2.5e-7", "--seed", "11"],
        ["e5bb16b6823ed5e9122cd292a007077360043dc5d0da5d1842715aa0ad42b80c",
         "e21fc6101f18c0cbb9b968f9d36ada363faea2fc0cda7a62babf52cc5878dab3",
         "cc09caf1357d84c20ea45b420ffc5904cca529ae827a81a5580685ac8b0a2089"],
    ),
    "day-variance": (
        ["--days", "20", "--steps-per-day", "1", "--day-variance", "1e-4",
         "--overnight-fraction", "0.5", "--seed", "2"],
        ["dd885f00dc8ec755d1d2e7439fb179db8d5f2e5b0699b5a87d194602d8286c31",
         "11629327f27250a6a3091dcf02c5738efeb13e9134bcd601fc6910a4d0ec97f6",
         "6aaa489ffa8423405d0a8c74238cf782ee5a6c30c6a5ccb86362f7544c4ba021"],
    ),
    "one-day": (
        ["--days", "1", "--steps-per-day", "400", "--seed", "7"],
        ["b5494ab2f96c8d5e3eaac82f807c87b88098f9910e994846320b6f04f860ca57",
         "f5d4b0a6beaef725f61e41fe4bb5d0b98b6b76e7fa437985b6e216d0b702ee04",
         "c99e5d01f5405fb1cb4b48b56fb24900855155e0cbf58964ae496454b7c0043d"],
    ),
}  # fmt: skip


class TestSimulate:
    def test_artifacts(self, market):
        for name in ("daily.csv", "ticks.csv", "truth.csv"):
            assert (market / name).is_file()
        comments, header, rows = _read_csv(market / "truth.csv")
        assert header == [
            "date", "integrated_variance", "total_variance", "true_return"
        ]
        assert len(rows) == 150
        assert comments[0] == "# regarch simulate"
        assert "# seed = 3" in comments
        assert "# model = garch-re" in comments

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--days", "40", "--steps-per-day", "78", "--seed", "9"]
        assert cli.main(args + ["--out-dir", str(a)]) == 0
        assert cli.main(args + ["--out-dir", str(b)]) == 0
        for name in ("daily.csv", "ticks.csv", "truth.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        base = ["simulate", "--days", "40", "--steps-per-day", "78"]
        assert cli.main(base + ["--seed", "1", "--out-dir", str(a)]) == 0
        assert cli.main(base + ["--seed", "2", "--out-dir", str(b)]) == 0
        assert (a / "ticks.csv").read_bytes() != (b / "ticks.csv").read_bytes()

    def test_noise_free_round_trip(self, tmp_path):
        # without observation noise the written closes reproduce the true
        # close-to-close returns
        out = tmp_path / "clean"
        args = [
            "simulate", "--days", "60", "--steps-per-day", "78",
            "--rho2", "0.0", "--seed", "5", "--out-dir", str(out),
        ]
        assert cli.main(args) == 0
        returns = daily_log_returns(load_daily_prices(out / "daily.csv"))
        _, _, rows = _read_csv(out / "truth.csv")
        truth = _column(rows, 3)
        np.testing.assert_allclose(returns.values, truth[1:], rtol=0, atol=1e-12)

    def test_day_variance_mode(self, tmp_path):
        out = tmp_path / "flat"
        args = [
            "simulate", "--days", "10", "--steps-per-day", "78",
            "--day-variance", "1e-4", "--out-dir", str(out),
        ]
        assert cli.main(args) == 0
        _, _, rows = _read_csv(out / "truth.csv")
        assert (_column(rows, 1) == 1e-4).all()

    def test_invalid_days(self, tmp_path, capsys):
        assert cli.main(["simulate", "--days", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_calendar_without_trading_weekday(self, tmp_path, capsys):
        cal_path = tmp_path / "cal.json"
        cal_path.write_text(json.dumps({"weekday_sessions": {}}))
        args = ["simulate", "--days", "5", "--calendar", str(cal_path)]
        assert cli.main(args + ["--out-dir", str(tmp_path / "out")]) == 2
        assert "no trading weekday" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(_SIMULATE_GOLDEN))
    def test_golden_artifacts(self, case, tmp_path, capsys):
        # the same seed writes the same bytes, release after release; the
        # digests depend on NumPy's exp, and were recorded with NumPy 2.4
        # on x86-64
        argv, digests = _SIMULATE_GOLDEN[case]
        assert cli.main(["simulate", *argv, "--out-dir", str(tmp_path)]) == 0
        for name, digest in zip(("daily.csv", "ticks.csv", "truth.csv"), digests):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


class TestFit:
    def test_missing_data_file(self, capsys):
        code = cli.main(["fit", "--model", "garch-n", "--data", "/nope/void.csv"])
        assert code == 2
        assert "void.csv" in capsys.readouterr().err

    def test_fit_artifacts(self, market, tmp_path, capsys):
        out = tmp_path / "fit"
        args = [
            "fit", "--model", "garch-n", "--data", str(market / "daily.csv"),
            "--seed", "1", "--out-dir", str(out),
        ] + _FAST_CHAIN
        assert cli.main(args) == 0

        summary = json.loads((out / "summary_garch-n.json").read_text())
        assert summary["model"] == "garch-n"
        assert summary["invocation"]["command"] == "fit"
        assert summary["invocation"]["seed"] == 1
        assert set(summary["parameters"]) == {"omega", "alpha", "beta"}
        assert 0.0 < summary["acceptance_rate"] <= 1.0

        _, header, rows = _read_csv(out / "chain_garch-n.csv")
        assert header == ["omega", "alpha", "beta"]
        assert len(rows) == 600
        assert (_column(rows, 0) > 0).all()

        stdout = capsys.readouterr().out
        assert "tau_int" in stdout
        assert "garch-n fit" in stdout

    def test_rational_fit_has_shape_parameter(self, market, tmp_path):
        out = tmp_path / "fit_re"
        args = [
            "fit", "--model", "garch-re", "--data", str(market / "daily.csv"),
            "--out-dir", str(out),
        ] + _FAST_CHAIN
        assert cli.main(args) == 0
        _, header, _ = _read_csv(out / "chain_garch-re.csv")
        assert header == ["omega", "alpha", "beta", "a"]

    def test_improper_ridge_exits_1(self, tmp_path, capsys):
        # 31 closes on which the garch-re chain runs off along a -> inf
        truth = GarchParams(1.3e-5, 0.148, 0.836, law=RATIONAL, a=1.57)
        returns, _ = simulate_garch(truth, 30, np.random.default_rng(1002))
        closes = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(returns.values)]))
        data = tmp_path / "daily.csv"
        data.write_text(
            "date,close\n"
            + "".join(
                f"{date(2006, 1, 2) + timedelta(days=i)},{c!r}\n"
                for i, c in enumerate(closes.tolist())
            )
        )
        args = [
            "fit", "--model", "garch-re", "--data", str(data),
            "--burn-in", "1000", "--samples", "3000", "--out-dir", str(tmp_path),
        ]
        assert cli.main(args) == 1
        assert "improper ridge" in capsys.readouterr().err


class TestCompare:
    def test_comparison_artifacts(self, market, tmp_path, capsys):
        out = tmp_path / "cmp"
        args = [
            "compare", "--data", str(market / "daily.csv"),
            "--out-dir", str(out),
        ] + _FAST_CHAIN
        assert cli.main(args) == 0

        report = json.loads((out / "comparison.json").read_text())
        assert report["aic_preferred"] in ("garch-n", "garch-re")
        assert report["dic_preferred"] in ("garch-n", "garch-re")
        assert report["criteria_agree"] == (
            report["aic_preferred"] == report["dic_preferred"]
        )
        assert [s["model"] for s in report["scores"]] == ["garch-n", "garch-re"]
        assert report["invocation"]["command"] == "compare"
        for model in ("garch-n", "garch-re"):
            assert (out / f"chain_{model}.csv").is_file()
            assert (out / f"summary_{model}.json").is_file()

        stdout = capsys.readouterr().out
        assert "AIC" in stdout and "DIC" in stdout
        assert "criteria" in stdout


    # the garch-re posterior mean here has alpha + beta >= 1
    @pytest.mark.filterwarnings("ignore:alpha \\+ beta >= 1")
    def test_stdout_layout(self, market, tmp_path, capsys):
        out = tmp_path / "cmp"
        args = [
            "compare", "--data", str(market / "daily.csv"),
            "--out-dir", str(out),
        ] + _FAST_CHAIN
        assert cli.main(args) == 0
        assert capsys.readouterr().out == (
            "garch-n fit: 149 observations, acceptance 0.600\n"
            "parameter  mean         tau_int\n"
            "omega      0.00104(37)  5.2\n"
            "alpha      0.40(18)     4.4\n"
            "beta       0.36(14)     5.0\n"
            "log-likelihood at posterior mean: 231.544\n"
            "\n"
            "garch-re fit: 149 observations, acceptance 0.490\n"
            "parameter  mean          tau_int\n"
            "omega      7.9(5.5)e-04  3.9\n"
            "alpha      0.55(37)      6.2\n"
            "beta       0.50(13)      5.8\n"
            "a          1.93(44)      5.5\n"
            "log-likelihood at posterior mean: 247.301\n"
            "\n"
            "criterion  garch-n   garch-re  preferred\n"
            "AIC        -457.089  -486.602  garch-re\n"
            "DIC        -458.683  -490.647  garch-re\n"
            "criteria agree: garch-re preferred by both\n"
            f"wrote {out / 'comparison.json'}\n"
        )


class TestRv:
    def test_rv_artifacts(self, market, tmp_path):
        out = tmp_path / "rv"
        args = [
            "rv", "--ticks", str(market / "ticks.csv"),
            "--data", str(market / "daily.csv"),
            "--delta-list", "300,900", "--out-dir", str(out),
        ]
        assert cli.main(args) == 0

        for name in ("rv_300s.csv", "rv_900s.csv", "signature.csv", "hl.csv"):
            assert (out / name).is_file()

        _, header, rows = _read_csv(out / "hl.csv")
        assert header == ["delta_seconds", "hl_factor"]
        assert _column(rows, 0).tolist() == [300.0, 900.0]
        hl = _column(rows, 1)

        _, sig_header, sig_rows = _read_csv(out / "signature.csv")
        assert sig_header == ["delta_seconds", "avg_rv", "hl_factor"]
        np.testing.assert_array_equal(_column(sig_rows, 2), hl)

        # per-period file: adjusted column is raw rv times the HL factor
        _, rv_header, rv_rows = _read_csv(out / "rv_300s.csv")
        assert rv_header == ["date", "rv", "c_adjusted_rv"]
        np.testing.assert_allclose(
            _column(rv_rows, 2), _column(rv_rows, 1) * hl[0], rtol=1e-12
        )

    def test_closes_default_to_last_tick(self, market, tmp_path):
        out = tmp_path / "rv_bare"
        args = [
            "rv", "--ticks", str(market / "ticks.csv"),
            "--delta-list", "900", "--out-dir", str(out),
        ]
        assert cli.main(args) == 0
        assert (out / "hl.csv").is_file()

    def test_calendar_flag(self, market, tmp_path):
        cal_path = tmp_path / "cal.json"
        sessions = [["09:00", "11:00"], ["12:30", "15:00"]]
        cal_path.write_text(json.dumps({
            "weekday_sessions": {
                d: sessions for d in ("mon", "tue", "wed", "thu", "fri")
            }
        }))
        out = tmp_path / "rv_cal"
        args = [
            "rv", "--ticks", str(market / "ticks.csv"),
            "--calendar", str(cal_path),
            "--delta-list", "900", "--out-dir", str(out),
        ]
        assert cli.main(args) == 0
        # the JSON calendar matches the default, so results agree
        default = tmp_path / "rv_default"
        assert cli.main([
            "rv", "--ticks", str(market / "ticks.csv"),
            "--delta-list", "900", "--out-dir", str(default),
        ]) == 0
        _, _, a = _read_csv(out / "hl.csv")
        _, _, b = _read_csv(default / "hl.csv")
        assert a == b

    def test_deterministic_bytes(self, market, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert cli.main([
                "rv", "--ticks", str(market / "ticks.csv"),
                "--delta-list", "300,900", "--out-dir", str(d),
            ]) == 0
        for name in ("rv_300s.csv", "rv_900s.csv", "signature.csv", "hl.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_missing_ticks(self, capsys):
        assert cli.main(["rv", "--ticks", "/nope/ticks.csv"]) == 2


class TestRmspe:
    def test_rv_as_vols_oracle_is_zero(self, market, tmp_path):
        out = tmp_path / "oracle"
        args = [
            "rmspe", "--data", str(market / "daily.csv"),
            "--ticks", str(market / "ticks.csv"),
            "--delta-list", "300,900", "--rv-as-vols",
            "--out-dir", str(out),
        ]
        assert cli.main(args) == 0
        comments, header, rows = _read_csv(out / "rmspe.csv")
        assert header == ["delta_seconds", "hl_factor", "rmspe_oracle"]
        assert (_column(rows, 2) == 0.0).all()
        assert "# rv-as-vols = True" in comments

    def test_model_scores(self, market, tmp_path):
        out = tmp_path / "scores"
        args = [
            "rmspe", "--data", str(market / "daily.csv"),
            "--ticks", str(market / "ticks.csv"),
            "--delta-list", "300,900", "--out-dir", str(out),
        ] + _FAST_CHAIN
        assert cli.main(args) == 0
        _, header, rows = _read_csv(out / "rmspe.csv")
        assert header == [
            "delta_seconds", "hl_factor", "rmspe_garch_n", "rmspe_garch_re"
        ]
        assert len(rows) == 2
        for idx in (2, 3):
            col = _column(rows, idx)
            assert np.isfinite(col).all() and (col > 0).all()
        # both fits are exported alongside the score table
        for model in ("garch-n", "garch-re"):
            assert (out / f"chain_{model}.csv").is_file()
            assert (out / f"summary_{model}.json").is_file()

    def test_literal_form_flag_recorded(self, market, tmp_path):
        out = tmp_path / "literal"
        args = [
            "rmspe", "--data", str(market / "daily.csv"),
            "--ticks", str(market / "ticks.csv"),
            "--delta-list", "900", "--rv-as-vols", "--paper-literal-rmspe",
            "--out-dir", str(out),
        ]
        assert cli.main(args) == 0
        comments, _, rows = _read_csv(out / "rmspe.csv")
        assert "# paper-literal-rmspe = True" in comments
        assert (_column(rows, 2) == 0.0).all()


class TestImports:
    def test_cli_import_loads_no_scipy(self):
        # every command process pays for what importing the CLI loads; the
        # runtime needs only NumPy
        src = os.path.dirname(os.path.dirname(regarch.__file__))
        probe = (
            "import sys, regarch.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]"
