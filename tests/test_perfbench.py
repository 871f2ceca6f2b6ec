"""The committed benchmark's tracer still fits the program it traces."""

import json
import os
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np

import regarch
from regarch.garch import GarchParams
from regarch.simulate import simulate_garch

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_compare_counts_every_mh_step(tmp_path):
    returns, _ = simulate_garch(GarchParams(5e-5, 0.1, 0.8), 120, np.random.default_rng(4))
    closes = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(returns.values)]))
    data = tmp_path / "daily.csv"
    data.write_text(
        "date,close\n"
        + "".join(
            f"{date(2006, 1, 2) + timedelta(days=i)},{c!r}\n"
            for i, c in enumerate(closes.tolist())
        )
    )
    burn_in, samples = 200, 300
    record_path = tmp_path / "record.json"
    command = [
        "compare", "--data", str(data), "--burn-in", str(burn_in),
        "--samples", str(samples), "--adapt-interval", "100",
        "--out-dir", str(tmp_path / "out"),
    ]
    src = os.path.dirname(os.path.dirname(regarch.__file__))
    subprocess.run(
        [sys.executable, str(_PERFBENCH / "launch.py"), str(record_path), "--trace", "--"]
        + command,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    trace = json.loads(record_path.read_text())["trace"]
    calls = {name: span[0] for name, span in trace["spans"].items()}
    assert calls["cli.compare"] == 1
    assert calls["mcmc.run_chain"] == 2
    # one mh_step call per MH step of each model's chain; the first and last
    # of a chain mark its start search and its post-chain summaries
    assert calls["mcmc.mh_step"] == 2 * (burn_in + samples)
    # the tracer wraps the scalar kernels on the kernel module, which garch
    # looks up by name on each call: a stored reference would time nothing
    assert calls.get("garch.kernel.normal", 0) > 0
    assert calls.get("garch.kernel.rational", 0) > 0
    assert [c["model"] for c in trace["chains"]] == ["garch-n", "garch-re"]
    for chain in trace["chains"]:
        assert chain["start_search_s"] > 0.0
        assert chain["post_chain_s"] > 0.0
