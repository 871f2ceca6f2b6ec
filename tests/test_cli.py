"""End-to-end CLI runs: exit codes, artifacts, and byte determinism."""

import csv
import hashlib
import json
import logging
import os
import pickle
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from datetime import date, timedelta
from unittest import mock

import numpy as np
import pytest

import regarch
from regarch import cli, data, mcmc, selection
from regarch.data import daily_log_returns, load_daily_prices
from regarch.exceptions import NumericalError, ParseError
from regarch.garch import RATIONAL, GarchParams
from regarch.simulate import simulate_garch
from conftest import _no_child_left

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

    @pytest.mark.parametrize("deltas", ["nan", "inf", "300,-inf", "30,NaN"])
    @pytest.mark.parametrize("command", ["rv", "rmspe"])
    def test_non_finite_delta_list(self, command, deltas, tmp_path, capsys):
        args = [command, "--ticks", "x.csv", "--delta-list", deltas]
        if command == "rmspe":
            args += ["--data", "x.csv"]
        assert cli.main([*args, "--out-dir", str(tmp_path / "out")]) == 2
        assert "sampling periods must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_start_date(self, capsys):
        assert cli.main(["simulate", "--start-date", "01/02/2006"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--model", "garch-n", "--data", "x.csv"],
            ["compare", "--data", "x.csv"],
            ["rv", "--ticks", "x.csv"],
            ["rmspe", "--data", "x.csv", "--ticks", "x.csv"],
            ["rmspe", "--data", "x.csv", "--ticks", "x.csv", "--rv-as-vols"],
            ["simulate", "--days", "5"],
        ],
        ids=["fit", "compare", "rv", "rmspe", "rmspe-rv-as-vols", "simulate"],
    )
    @pytest.mark.parametrize("seed", ["-1", "1.5"])
    def test_bad_seed_exits_2(self, argv, seed, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main([*argv, "--seed", seed, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"bad seed {seed!r}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--model", "garch-n", "--data", "x.csv"],
            ["compare", "--data", "x.csv"],
            ["rv", "--ticks", "x.csv"],
            ["rmspe", "--data", "x.csv", "--ticks", "x.csv"],
            ["rmspe", "--data", "x.csv", "--ticks", "x.csv", "--rv-as-vols"],
            ["simulate", "--days", "5"],
        ],
        ids=["fit", "compare", "rv", "rmspe", "rmspe-rv-as-vols", "simulate"],
    )
    @pytest.mark.parametrize("below", [False, True])
    def test_out_dir_through_a_file_exits_2_before_any_work(
        self, argv, below, tmp_path, capsys
    ):
        # refused before any input is read or chain drawn; nothing is created
        afile = tmp_path / "afile"
        afile.write_text("kept")
        out = afile / "sub" if below else afile
        work = AssertionError("the command started its work")
        with mock.patch.multiple(
            cli,
            _fit=mock.Mock(side_effect=work),
            _load_returns=mock.Mock(side_effect=work),
            load_ticks=mock.Mock(side_effect=work),
            simulate_intraday=mock.Mock(side_effect=work),
        ):
            assert cli.main([*argv, "--out-dir", str(out)]) == 2
            assert not cli._fit.called
        assert capsys.readouterr().err == (
            f"error: --out-dir {out}: {afile} is not a directory\n"
        )
        assert afile.read_text() == "kept"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("price", ["inf", "nan"])
    def test_non_finite_start_price_exits_2(self, price, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["simulate", "--days", "5", "--start-price", price, "--out-dir", str(out)]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err == "error: start_price must be positive and finite\n"
        assert not out.exists()

    def test_missing_required_flag(self, capsys):
        assert cli.main(["fit", "--data", "x.csv"]) == 2  # no --model

    def test_bad_model_choice(self, capsys):
        code = cli.main(["fit", "--model", "egarch", "--data", "x.csv"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["fit", "--model", "garch-n", "--data", "BAD"],
             b"date,close\n2006-01-02,2500\xff\n"),
            (["rv", "--ticks", "BAD"],
             b"timestamp,price\n2006-01-02T09:00:00,2500\xff\n"),
            (["rv", "--ticks", "TICKS", "--calendar", "BAD"],
             b'{"holidays": ["2006-01-0\xff"]}'),
        ],
        ids=["fit-data", "rv-ticks", "rv-calendar"],
    )  # fmt: skip
    def test_non_utf8_input_exits_2(self, market, tmp_path, capsys, argv, text):
        # an input error, reported as one: exit 2 and no traceback
        bad = tmp_path / "bad"
        bad.write_bytes(text)
        files = {"BAD": str(bad), "TICKS": str(market / "ticks.csv")}
        out = tmp_path / "out"
        args = [files.get(a, a) for a in argv] + ["--out-dir", str(out)]
        assert cli.main(args) == 2
        assert "not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.filterwarnings("error")
    def test_explosive_path_exits_2_without_a_warning(self, tmp_path, capsys):
        args = ["simulate", "--alpha", "3", "--beta", "0.9", "--days", "3000"]
        assert cli.main(args + ["--out-dir", str(tmp_path)]) == 2
        assert "the GARCH path overflowed" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_tick_writer_child_is_reaped(self, tmp_path):
        # 120 days of 78 steps write more than 8192 ticks: the tick file is
        # formatted with a forked child, which is gone when simulate returns
        args = ["simulate", "--days", "120", "--steps-per-day", "78", "--seed", "9"]
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            assert cli.main(args + ["--out-dir", str(tmp_path)]) == 0
        assert fork.call_count == 1
        with open(tmp_path / "ticks.csv", encoding="utf-8") as ticks:
            assert sum(1 for line in ticks if line[0].isdigit()) >= 8192
        _no_child_left()

    def test_path_with_line_break_keeps_daily_csv_loadable(self, tmp_path):
        # the calendar path is recorded as a comment in every artifact
        cal_path = tmp_path / "ca\nl.json"
        sessions = [["09:00", "11:00"], ["12:30", "15:00"]]
        cal_path.write_text(json.dumps({"weekday_sessions": {"mon": sessions}}))
        args = ["simulate", "--days", "20", "--calendar", str(cal_path)]
        assert cli.main(args + ["--out-dir", str(tmp_path / "out")]) == 0
        assert len(load_daily_prices(tmp_path / "out" / "daily.csv")) == 20

    def test_path_with_quote_keeps_daily_csv_loadable(self, tmp_path):
        # ',"' in the recorded calendar path opens no quoted field
        cal_path = tmp_path / 'ca,"l.json'
        sessions = [["09:00", "11:00"], ["12:30", "15:00"]]
        cal_path.write_text(json.dumps({"weekday_sessions": {"mon": sessions}}))
        args = ["simulate", "--days", "20", "--calendar", str(cal_path)]
        assert cli.main(args + ["--out-dir", str(tmp_path / "out")]) == 0
        assert len(load_daily_prices(tmp_path / "out" / "daily.csv")) == 20

    def test_calendar_without_trading_weekday(self, tmp_path, capsys):
        cal_path = tmp_path / "cal.json"
        cal_path.write_text(json.dumps({"weekday_sessions": {}}))
        args = ["simulate", "--days", "5", "--calendar", str(cal_path)]
        assert cli.main(args + ["--out-dir", str(tmp_path / "out")]) == 2
        assert "no trading weekday" in capsys.readouterr().err

    def test_days_past_9999_exit_2(self, tmp_path, capsys):
        args = ["simulate", "--start-date", "9999-12-27", "--steps-per-day", "5"]
        out = tmp_path / "out"
        assert cli.main(args + ["--days", "6", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: 6 trading days from 9999-12-27 run past 9999-12-31\n"
        )
        assert not out.exists()
        assert cli.main(args + ["--days", "5", "--out-dir", str(out)]) == 0
        assert "to 9999-12-31" in capsys.readouterr().out

    @pytest.mark.parametrize("case", sorted(_SIMULATE_GOLDEN))
    def test_golden_artifacts(self, case, tmp_path, capsys):
        # the same seed writes the same bytes, release after release; the
        # digests depend on NumPy's exp, and were recorded with NumPy 2.4
        # on x86-64
        argv, digests = _SIMULATE_GOLDEN[case]
        assert cli.main(["simulate", *argv, "--out-dir", str(tmp_path)]) == 0
        for name, digest in zip(("daily.csv", "ticks.csv", "truth.csv"), digests):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def _ridge_closes(tmp_path):
    """31 closes on which the garch-re chain runs off along a -> inf, and
    the garch-n chain does not."""
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
    return data


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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--adapt-interval", "2"], "adapt_interval must be at least 5"),
            (["--samples", "1"], "samples must be at least 2"),
            # refused before the start search, which would warn on them
            (["--nu", "nan"], "proposal dof must be finite and exceed 2"),
            (["--nu", "inf"], "proposal dof must be finite and exceed 2"),
            (["--nu", "1e306"], "exceed 2, at most 5e+305"),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_unusable_chain_lengths_exit_2(self, market, tmp_path, capsys, flags, message):
        args = [
            "fit", "--model", "garch-n", "--data", str(market / "daily.csv"),
            "--out-dir", str(tmp_path),
        ] + _FAST_CHAIN + flags
        assert cli.main(args) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_large_nu_fits(self, market, tmp_path, capsys):
        args = [
            "fit", "--model", "garch-n", "--data", str(market / "daily.csv"),
            "--nu", "1e200", "--out-dir", str(tmp_path),
        ] + _FAST_CHAIN
        assert cli.main(args) == 0
        assert "error:" not in capsys.readouterr().err

    def test_improper_ridge_exits_1(self, tmp_path, capsys):
        args = [
            "fit", "--model", "garch-re", "--data", str(_ridge_closes(tmp_path)),
            "--burn-in", "1000", "--samples", "3000", "--out-dir", str(tmp_path),
        ]
        assert cli.main(args) == 1
        assert "improper ridge" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_flat_prices_exit_2_without_a_warning(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        days = [date(2006, 1, 2) + timedelta(days=i) for i in range(40)]
        path.write_text("date,close\n" + "".join(f"{d},2500\n" for d in days))
        args = ["fit", "--model", "garch-n", "--data", str(path)]
        assert cli.main([*args, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "error: initial variance must be positive, got 0.0\n"
        assert not (tmp_path / "out").exists()

    def test_adaptation_failure_exits_1(self, market, tmp_path, capsys):
        args = [
            "fit", "--model", "garch-n", "--data", str(market / "daily.csv"),
            "--out-dir", str(tmp_path / "out"),
        ] + _FAST_CHAIN
        with mock.patch.object(mcmc, "mh_step", return_value=False):
            assert cli.main(args) == 1
        assert capsys.readouterr().err == (
            "error: acceptance rate 0.00% after adaptation; the proposal never "
            "matched the posterior (data too short, or burn-in too small)\n"
        )
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.filterwarnings("ignore:alpha \\+ beta >= 1")
    def test_criteria_disagree(self, market, tmp_path, capsys):
        # DIC made to prefer the model AIC does not
        def disagreeing(first, second):
            report = selection.compare(first, second)
            other = {first.model, second.model} - {report.aic_preferred}
            return replace(report, dic_preferred=other.pop())

        out = tmp_path / "cmp"
        args = ["compare", "--data", str(market / "daily.csv"), "--out-dir", str(out)]
        with mock.patch.object(cli, "compare", side_effect=disagreeing):
            assert cli.main(args + _FAST_CHAIN) == 0
        stdout = capsys.readouterr().out
        assert f"criteria disagree\nwrote {out / 'comparison.json'}\n" in stdout
        assert "criteria agree" not in stdout
        assert json.loads((out / "comparison.json").read_text())["criteria_agree"] is False

    @pytest.mark.parametrize("command", ["compare", "rmspe"])
    def test_short_adapt_interval_refused_before_either_chain(
        self, market, tmp_path, capsys, command
    ):
        # 5 draws refit a garch-n proposal but not a garch-re one, and the
        # garch-n chain runs first
        args = [command, "--data", str(market / "daily.csv")]
        args += ["--out-dir", str(tmp_path)]
        if command == "rmspe":
            args += ["--ticks", str(market / "ticks.csv"), "--delta-list", "900"]
        args += _FAST_CHAIN + ["--adapt-interval", "5"]
        started = AssertionError("a chain started")
        with mock.patch.object(mcmc, "_start", side_effect=started):
            assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert "adapt_interval must be at least 6 for garch-re" in err
        assert not list(tmp_path.iterdir())


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

    def test_period_beyond_int64_exits_0(self, market, tmp_path):
        # 1e13 s is past int64 in microseconds; like 1e12 s it samples each
        # session at its open and close
        out = {}
        for delta in ("1e12", "1e13"):
            out[delta] = tmp_path / delta
            args = [
                "rv", "--ticks", str(market / "ticks.csv"),
                "--delta-list", delta, "--out-dir", str(out[delta]),
            ]  # fmt: skip
            assert cli.main(args) == 0
        _, _, a = _read_csv(out["1e12"] / "rv_1e+12s.csv")
        _, _, b = _read_csv(out["1e13"] / "rv_1e+13s.csv")
        assert a == b

    @pytest.mark.parametrize("deltas", ["300,300.0000001", "1234.567,1234.568"])
    def test_nearby_periods_keep_files_of_their_own(
        self, market, tmp_path, capsys, deltas
    ):
        # two periods that print alike under :g are two files, and the
        # record and the table name each period exactly
        args = [
            "rv", "--ticks", str(market / "ticks.csv"),
            "--delta-list", deltas, "--out-dir", str(tmp_path),
        ]  # fmt: skip
        assert cli.main(args) == 0
        periods = deltas.split(",")
        table = capsys.readouterr().out.split("hl_factor\n")[1].splitlines()
        assert [row.split()[0] for row in table[: len(periods)]] == periods
        assert sorted(p.name for p in tmp_path.glob("rv_*")) == sorted(
            f"rv_{period}s.csv" for period in periods
        )
        for name in ("signature.csv", *(f"rv_{period}s.csv" for period in periods)):
            comments, _, _ = _read_csv(tmp_path / name)
            assert f"# delta-list = {deltas}" in comments
        _, _, rows = _read_csv(tmp_path / "hl.csv")
        assert _column(rows, 0).tolist() == [float(period) for period in periods]

    def test_tick_reader_child_is_reaped(self, market, tmp_path):
        # the market's tick file is more than 256 KB: it is read with a
        # forked child, which is gone when rv returns
        assert (market / "ticks.csv").stat().st_size >= 4 << 16
        args = [
            "rv", "--ticks", str(market / "ticks.csv"),
            "--delta-list", "900", "--out-dir", str(tmp_path),
        ]  # fmt: skip
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            assert cli.main(args) == 0
        assert fork.call_count == 1
        _no_child_left()

    def test_reader_child_keeps_stderr(self, market, tmp_path):
        # a row with a UTC offset late in the file sends the child's half
        # back to this process, which warns once, as one process does; the
        # child writes nothing to the stderr it shares
        lines = (market / "ticks.csv").read_text(encoding="utf-8").splitlines()
        stamp, price = lines[-100].split(",")
        lines[-100] = f"{stamp}+00:00,{price}"
        ticks = tmp_path / "ticks.csv"
        ticks.write_text("\n".join(lines) + "\n", encoding="utf-8")
        src = os.path.dirname(os.path.dirname(regarch.__file__))
        stderr = {}
        for fork in ("split", "one"):
            code = "import os, sys\n"
            if fork == "one":
                code += "del os.fork\n"
            code += "from regarch.cli import main\nsys.exit(main(sys.argv[1:]))\n"
            run = subprocess.run(
                [sys.executable, "-c", code, "rv", "--ticks", str(ticks),
                 "--delta-list", "900", "--out-dir", str(tmp_path / fork)],
                env=dict(os.environ, PYTHONPATH=src),
                capture_output=True,
                text=True,
                check=True,
                timeout=120,
            )  # fmt: skip
            stderr[fork] = run.stderr
        assert stderr["split"].count("timezone") == 1
        assert stderr["split"] == stderr["one"]

    def test_failure_leaves_no_out_dir(self, market, tmp_path, capsys):
        out = tmp_path / "new"
        args = [
            "rv", "--ticks", str(market / "ticks.csv"),
            "--delta-list", "1e-9", "--out-dir", str(out),
        ]
        assert cli.main(args) == 2
        assert "below timestamp resolution" in capsys.readouterr().err
        assert not out.exists()


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

    def test_failure_leaves_no_out_dir(self, market, tmp_path, capsys):
        out = tmp_path / "new"
        args = [
            "rmspe", "--data", str(market / "daily.csv"),
            "--ticks", str(market / "ticks.csv"),
            "--delta-list", "900", "--out-dir", str(out),
        ] + _FAST_CHAIN + ["--adapt-interval", "5"]
        assert cli.main(args) == 2
        assert "adapt_interval must be at least 6" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _flat_day_market(tmp_path, day):
        """A 60-day simulated market whose ticks on ``day`` are all at one
        price, so that day's RV is zero."""
        market = tmp_path / "market"
        sim = ["simulate", "--days", "60", "--steps-per-day", "78", "--seed", "3"]
        assert cli.main([*sim, "--out-dir", str(market)]) == 0
        ticks = market / "ticks.csv"
        lines = ticks.read_text().splitlines(keepends=True)
        rows = [i for i, line in enumerate(lines) if line.startswith(day)]
        price = lines[rows[0]].split(",")[1]
        for i in rows:
            lines[i] = lines[i].split(",")[0] + "," + price
        ticks.write_text("".join(lines))
        return market

    @pytest.mark.filterwarnings("ignore:alpha \\+ beta >= 1")
    def test_zero_rv_day_exits_2_with_or_without_fits(self, tmp_path, capsys):
        # one day of ticks at one price: the same input error whether the
        # forecasts are the fits or the adjusted RV itself
        market = self._flat_day_market(tmp_path, "2006-01-10")
        capsys.readouterr()
        errors = []
        for flags in (["--rv-as-vols"], _FAST_CHAIN):
            args = [
                "rmspe", "--data", str(market / "daily.csv"),
                "--ticks", str(market / "ticks.csv"),
                "--delta-list", "900", "--out-dir", str(tmp_path / "out"), *flags,
            ]
            assert cli.main(args) == 2
            errors.append(capsys.readouterr().err.splitlines()[-1])
        assert errors == ["error: adjusted RV is zero on 1 day(s): 2006-01-10"] * 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore:alpha \\+ beta >= 1")
    def test_zero_rv_first_day_is_dropped_with_or_without_fits(self, tmp_path, caplog):
        # the first day has no return, so no fit forecasts it: the oracle
        # leaves it out too, and both score the other days
        market = self._flat_day_market(tmp_path, "2006-01-02")
        dropped = []
        for out, flags in (("oracle", ["--rv-as-vols"]), ("fits", _FAST_CHAIN)):
            caplog.clear()
            args = [
                "rmspe", "--data", str(market / "daily.csv"),
                "--ticks", str(market / "ticks.csv"),
                "--delta-list", "900", "--out-dir", str(tmp_path / out), *flags,
            ]
            assert cli.main(args) == 0
            dropped.append({m for m in caplog.messages if "unmatched" in m})
        # the fits log the last line once a model
        assert dropped[0] == dropped[1] == {
            "dropped 1 unmatched day(s) aligning daily returns and realized variance",
            "dropped 1 unmatched day(s) aligning model variances and RV",
        }
        _, _, rows = _read_csv(tmp_path / "oracle" / "rmspe.csv")
        assert (_column(rows, 2) == 0.0).all()


# (arguments, run in the market directory; sha256 of each artifact)
_MARKET_GOLDEN = {
    "fit": (
        ["fit", "--model", "garch-re", "--data", "daily.csv", "--seed", "1",
         *_FAST_CHAIN],
        {
            "chain_garch-re.csv":
                "fef2b6bfd69b50d7724b3ad8345238214d0da309901a3c755867e21de794a223",
            "summary_garch-re.json":
                "b4389b84fc3510fa359fcf8469fec26e8742f92f72e247d925fe1c5d781d8244",
        },
    ),
    "compare": (
        ["compare", "--data", "daily.csv", *_FAST_CHAIN],
        {
            "chain_garch-n.csv":
                "29e35b2987133510e7b72f323fcee42a719129d63b5de5f6cd0903bbaec7a3c6",
            "chain_garch-re.csv":
                "928833aa43f19888546bf67d06805f34eda70314a59eb978268ed1b6eebf578e",
            "comparison.json":
                "6c55f312af14baacfc29bd837946060fb0f6841060a26dd1dfeaaadaf86fbea7",
            "summary_garch-n.json":
                "76f848be51ddda35c4a8e0162bc545492c0b97dbd7a26efeb46e1e014997dd0d",
            "summary_garch-re.json":
                "5a6f90f5e5eeab4c36f77e453df842366343e02316d7a52fb3a9dd95a7d9637f",
        },
    ),
    "rv": (
        ["rv", "--ticks", "ticks.csv", "--data", "daily.csv",
         "--delta-list", "300,900"],
        {
            "hl.csv":
                "710856d094b7baa91c6d11f2fb0954e4b4022cb3bf49d6edc03852b2fbbd8350",
            "rv_300s.csv":
                "c371f220fd91e9f12478cb74149464cbe098b3b3aa3bda60dc9d9feb0b1deed7",
            "rv_900s.csv":
                "d86613a82723f117da22ac790b40310201aa71e26f639a5163cd30df6ac86aee",
            "signature.csv":
                "a9c72dedb8f4f730dc0c09f1a01ee1ec8ce5854840e0855f474fecf75d57ed38",
        },
    ),
    "rmspe": (
        ["rmspe", "--data", "daily.csv", "--ticks", "ticks.csv",
         "--delta-list", "300,900", *_FAST_CHAIN],
        {
            "chain_garch-n.csv":
                "fa77aee8667fb294e3be9aef2ea8d18f3d8c67305b6f0ea5f2821180dc4e1a2f",
            "chain_garch-re.csv":
                "15cdc82f03fa1fac42ded004d868b69f9f05a78bd723f830df57e9ec3fd281be",
            "rmspe.csv":
                "5e8e1593901652ac3216a6a8097d45e8160af414429a5a5237448fb7b093a4cd",
            "summary_garch-n.json":
                "52872e4c4430620eb8f45c47626baa95d8e5db59f89ea8752243b1e87f907aa8",
            "summary_garch-re.json":
                "96c71e005c5218870c6b91749149569b1c0eddb39667190f3b17faa6b10dcbda",
        },
    ),
    "rmspe-rv-as-vols": (
        ["rmspe", "--data", "daily.csv", "--ticks", "ticks.csv",
         "--delta-list", "300,900", "--rv-as-vols"],
        {
            "rmspe.csv":
                "11ac8893455bb921cfbef5ba2a7f114f35fc7f23a4151191b2570d051b0fc0f4",
        },
    ),
}  # fmt: skip


class TestGoldenArtifacts:
    @pytest.mark.parametrize("case", sorted(_MARKET_GOLDEN))
    # the garch-re posterior means of these short chains have alpha + beta >= 1
    @pytest.mark.filterwarnings("ignore:alpha \\+ beta >= 1")
    def test_golden_artifacts(self, case, market, tmp_path, monkeypatch):
        # the same inputs and seed write the same bytes, release after
        # release; the digests depend on NumPy's exp and log, and were
        # recorded with NumPy 2.4 on x86-64.  The inputs are named relative
        # to the market directory, as the invocation records them.
        argv, digests = _MARKET_GOLDEN[case]
        monkeypatch.chdir(market)
        assert cli.main([*argv, "--out-dir", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(digests)
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("case, forks", [("rv", 1), ("rmspe", 2)])
    @pytest.mark.filterwarnings("ignore:alpha \\+ beta >= 1")
    def test_split_tick_reader_keeps_the_digests(
        self, case, forks, market, tmp_path, monkeypatch
    ):
        # the tick file is read on two cores, the child's half taken (rmspe
        # also forks its garch-re fit); where os.fork does not exist it is
        # read in this process; the bytes are the same
        argv, digests = _MARKET_GOLDEN[case]
        monkeypatch.chdir(market)
        real_take, taken = data._take_half, []

        def take_half(child, times, prices):
            taken.append(real_take(child, times, prices))
            return taken[-1]

        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            with mock.patch.object(data, "_take_half", side_effect=take_half):
                assert cli.main([*argv, "--out-dir", str(tmp_path / "split")]) == 0
        assert fork.call_count == forks
        assert taken == [True]
        _no_child_left()
        monkeypatch.delattr(os, "fork")
        assert cli.main([*argv, "--out-dir", str(tmp_path / "one")]) == 0
        for out in ("split", "one"):
            for name, digest in digests.items():
                text = (tmp_path / out / name).read_bytes()
                assert hashlib.sha256(text).hexdigest() == digest


class TestForkedWorker:
    """``compare`` and ``rmspe`` draw the garch-re chain in a forked child
    while garch-n is fitted here; nothing but the wall time may tell."""

    def _compare(self, market, tmp_path):
        args = ["compare", "--data", str(market / "daily.csv")]
        return args + ["--out-dir", str(tmp_path)] + _FAST_CHAIN

    def test_worker_warning_reaches_this_process(self, market, tmp_path):
        # only the garch-re posterior mean here has alpha + beta >= 1
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            with pytest.warns(RuntimeWarning, match="alpha") as caught:
                assert cli.main(self._compare(market, tmp_path)) == 0
        assert fork.call_count == 1
        assert len(caught) == 1
        assert caught[0].filename == mcmc.__file__
        _no_child_left()

    @pytest.mark.parametrize("command", ["compare", "rmspe"])
    def test_stderr_in_model_order(self, market, tmp_path, command):
        args = [command, "--data", "daily.csv", "--out-dir", str(tmp_path)]
        if command == "rmspe":
            args += ["--ticks", "ticks.csv", "--delta-list", "900"]
        src = os.path.dirname(os.path.dirname(regarch.__file__))
        run = subprocess.run(
            [sys.executable, "-m", "regarch.cli", *args, *_FAST_CHAIN],
            cwd=market,
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        # garch-n's record, then garch-re's warning and record, as when the
        # two chains ran one after another in one process
        lines = [
            line
            for line in run.stderr.splitlines()
            if line.startswith(("INFO regarch.mcmc", f"{mcmc.__file__}:"))
        ]
        assert len(lines) == 3
        assert lines[0].startswith("INFO regarch.mcmc: garch-n chain: acceptance")
        assert lines[1].endswith(
            "RuntimeWarning: alpha + beta >= 1: variance is not covariance stationary"
        )
        assert lines[2].startswith("INFO regarch.mcmc: garch-re chain: acceptance")

    @pytest.mark.parametrize("command", ["compare", "rmspe"])
    def test_child_writes_nothing(self, market, tmp_path, command):
        # every stderr byte is the command's own: the same with the forked
        # children (rmspe also forks its tick reader) as with none
        args = [command, "--data", "daily.csv", *_FAST_CHAIN]
        if command == "rmspe":
            args += ["--ticks", "ticks.csv", "--delta-list", "900"]
        src = os.path.dirname(os.path.dirname(regarch.__file__))
        stderr = {}
        for fork in ("forked", "one"):
            code = "import os, sys\n"
            if fork == "one":
                code += "del os.fork\n"
            code += "from regarch.cli import main\nsys.exit(main(sys.argv[1:]))\n"
            run = subprocess.run(
                [sys.executable, "-c", code, *args, "--out-dir", str(tmp_path / fork)],
                cwd=market,
                env=dict(os.environ, PYTHONPATH=src),
                capture_output=True,
                check=True,
                timeout=120,
            )
            stderr[fork] = run.stderr
        assert stderr["forked"].count(b"INFO regarch.mcmc") == 2
        assert stderr["forked"] == stderr["one"]

    # the garch-n posterior mean here has alpha + beta >= 1
    @pytest.mark.filterwarnings("ignore:alpha \\+ beta >= 1")
    def test_worker_error_exits_1(self, tmp_path, capsys):
        args = [
            "compare", "--data", str(_ridge_closes(tmp_path)),
            "--burn-in", "1000", "--samples", "3000",
            "--out-dir", str(tmp_path / "out"),
        ]  # fmt: skip
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            assert cli.main(args) == 1
        assert fork.call_count == 1
        err = capsys.readouterr().err
        assert "error: garch-re: the start search found no mode" in err
        assert "improper ridge" in err
        assert not (tmp_path / "out").exists()
        _no_child_left()

    def test_worker_traceback_kept_as_a_note(self, market, tmp_path):
        # an unexpected error in the worker keeps its frames, as text
        real_start = mcmc._start

        def start(target, nu):
            if target.model == "garch-re":
                raise TypeError("garch-re broke")
            return real_start(target, nu)

        with mock.patch.object(mcmc, "_start", side_effect=start):
            with pytest.raises(TypeError, match="garch-re broke") as caught:
                cli.main(self._compare(market, tmp_path))
        assert "in _chains" in caught.value.__notes__[-1]
        _no_child_left()

    @pytest.mark.parametrize("error", [NumericalError, KeyboardInterrupt])
    def test_first_model_failure_kills_the_worker(
        self, market, tmp_path, capsys, error
    ):
        # both chains fail, garch-re only after a long wait: the garch-n
        # error is the one reported, and the worker is killed, not awaited
        def start(target, nu):
            if target.model == "garch-re":
                time.sleep(60)
            raise error(f"{target.model} cannot start")

        began = time.monotonic()
        with mock.patch.object(mcmc, "_start", side_effect=start):
            if error is KeyboardInterrupt:
                with pytest.raises(KeyboardInterrupt, match="garch-n cannot start"):
                    cli.main(self._compare(market, tmp_path))
            else:
                assert cli.main(self._compare(market, tmp_path)) == 1
                err = capsys.readouterr().err
                assert "error: garch-n cannot start" in err
                assert "garch-re" not in err
        assert time.monotonic() - began < 30
        _no_child_left()

    def test_worker_without_a_result_is_a_typed_error(self, market, tmp_path, capsys):
        parent, real_start = os.getpid(), mcmc._start

        def start(target, nu):
            if target.model == "garch-re":
                assert os.getpid() != parent, "garch-re was fitted in this process"
                os._exit(3)
            return real_start(target, nu)

        with mock.patch.object(mcmc, "_start", side_effect=start):
            assert cli.main(self._compare(market, tmp_path)) == 1
        err = capsys.readouterr().err
        assert (
            "error: garch-re: the forked fit ended (exit code 3) without a result"
        ) in err
        _no_child_left()

    @pytest.mark.filterwarnings("ignore:alpha \\+ beta >= 1")
    def test_same_bytes_without_fork(self, market, tmp_path, monkeypatch):
        # where os.fork does not exist, both chains run here, one after another
        argv, digests = _MARKET_GOLDEN["compare"]
        monkeypatch.chdir(market)
        monkeypatch.delattr(os, "fork")
        assert cli.main([*argv, "--out-dir", str(tmp_path)]) == 0
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    @pytest.mark.filterwarnings("ignore:alpha \\+ beta >= 1")
    def test_same_bytes_when_fork_fails(self, market, tmp_path, monkeypatch):
        # a failed fork takes the one-process path of a missing os.fork,
        # and leaves no pipe open
        argv, digests = _MARKET_GOLDEN["compare"]
        monkeypatch.chdir(market)
        fds = sorted(os.listdir("/proc/self/fd"))
        with mock.patch.object(os, "fork", side_effect=BlockingIOError(11, "no pid")):
            assert cli.main([*argv, "--out-dir", str(tmp_path)]) == 0
        assert sorted(os.listdir("/proc/self/fd")) == fds
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
        _no_child_left()

    def test_errors_survive_the_pipe(self):
        # the worker's exception crosses the pipe pickled
        for error, attr, value in [
            (NumericalError("variance not finite", index=4), "index", 4),
            (ParseError("bad close", line=7), "line", 7),
        ]:
            again = pickle.loads(pickle.dumps(error))
            assert type(again) is type(error)
            assert str(again) == str(error)
            assert getattr(again, attr) == value

    def test_chain_arrays_arrive_writeable(self, market, tmp_path):
        # the chain's arrays cross as frames of their own, and this process
        # may still write to them, as to a chain fitted here
        chains, real_export = [], cli._export_chain

        def export(chain, out, invocation):
            chains.append(chain)
            return real_export(chain, out, invocation)

        with mock.patch.object(cli, "_export_chain", side_effect=export):
            with mock.patch.object(os, "fork", wraps=os.fork) as fork:
                with pytest.warns(RuntimeWarning, match="alpha"):
                    assert cli.main(self._compare(market, tmp_path)) == 0
        assert fork.call_count == 1
        assert [chain.model for chain in chains] == ["garch-n", "garch-re"]
        for chain in chains:
            for values in (chain.samples, chain.log_posteriors, chain.log_likelihoods):
                assert values.flags.writeable
        _no_child_left()

    def test_no_message_is_a_typed_error(self):
        # a child that exits before its whole message has sent no result
        class Stopped:
            def receive(self):
                return None

            def close(self):
                return 3

        with pytest.raises(cli.WorkerError) as error:
            cli._received("garch-re", Stopped())
        assert str(error.value) == (
            "garch-re: the forked fit ended (exit code 3) without a result"
        )


class TestDrawStage:
    """``draw_chain``, all that the forked worker runs, reports nothing;
    ``summarize``, run by the command, makes every report of a chain."""

    _CONFIG = mcmc.ChainConfig(burn_in=300, samples=600, adapt_interval=100)

    @pytest.mark.parametrize("model", ["garch-n", "garch-re"])
    def test_draws_log_and_warn_nothing(self, market, model, caplog):
        returns = daily_log_returns(load_daily_prices(market / "daily.csv"))
        caplog.set_level(logging.DEBUG)
        caplog.set_level(logging.DEBUG, logger="regarch")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = mcmc.draw_chain(model, returns, self._CONFIG)
        assert caplog.records == []
        # the summary reports what the draws did not: here the garch-re
        # posterior mean has alpha + beta >= 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mcmc.summarize(draws, returns)
        stationary = "alpha + beta >= 1: variance is not covariance stationary"
        assert [str(w.message) for w in caught] == (
            [stationary] if model == "garch-re" else []
        )
        assert [r.getMessage().split(":")[0] for r in caplog.records] == [
            f"{model} chain"
        ]

    @pytest.mark.parametrize("model", ["garch-n", "garch-re"])
    @pytest.mark.filterwarnings("ignore:alpha \\+ beta >= 1")
    def test_summary_of_pickled_draws_equals_run_chain(self, market, model):
        # the draws cross the pipe as the worker sends them, with each array
        # as a buffer of its own, and summarise to run_chain's chain, bit for bit
        returns = daily_log_returns(load_daily_prices(market / "daily.csv"))
        chain = mcmc.run_chain(model, returns, self._CONFIG)
        arrays = []
        body = pickle.dumps(
            mcmc.draw_chain(model, returns, self._CONFIG),
            protocol=5,
            buffer_callback=arrays.append,
        )
        frames = [bytearray(array.raw()) for array in arrays]
        assert len(frames) == 3
        again = mcmc.summarize(pickle.loads(body, buffers=frames), returns)
        for name in ("samples", "samples_log", "log_posteriors", "log_likelihoods"):
            assert getattr(again, name).tobytes() == getattr(chain, name).tobytes()
        assert again.summaries == chain.summaries
        assert again.lnl_at_mean == chain.lnl_at_mean
        assert again.summary_dict() == chain.summary_dict()


class TestImports:
    # every command process pays for what importing the CLI loads

    @staticmethod
    def _loaded(package):
        """The modules of ``package`` that importing the CLI loads."""
        src = os.path.dirname(os.path.dirname(regarch.__file__))
        probe = (
            "import sys, regarch.cli; "
            f"print([m for m in sys.modules if (m + '.').startswith('{package}.')])"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()

    def test_cli_import_loads_no_scipy(self):
        # the runtime needs only NumPy
        assert self._loaded("scipy") == "[]"

    def test_cli_import_loads_no_numpy_random(self):
        # rv draws nothing: loaded with the package, numpy.random added
        # about 9 ms to every command's start-up and 1.8 MB to rv's peak RSS
        assert self._loaded("numpy.random") == "[]"
