"""End-to-end and per-layer benchmark of the ``regarch`` command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload tick-dense --seed 1 --seconds 60 --trace 0

Each run generates its own market from ``--seed`` (see ``market.py``), then
runs rounds of ``regarch simulate``, ``regarch rv`` and ``regarch compare``,
each command in a fresh interpreter, one at a time, and checks every
artifact (see ``checks.py``).  A round is started only while the rounds so
far plus one more fit in ``--seconds``; at least one round always runs.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics: start-up time (``setup_s``: interpreter, ``import regarch.cli``
and argument parsing, the median over every command process of the run),
per command the median over rounds of the time from the command's start to
process exit, and its peak resident memory.  Times are scaled for host speed
by ``probe.py``, timed before each command.  With ``--trace 1`` the commands
run with ``tracer.py`` spans around the public functions of each module and
the line reports the per-layer metrics instead.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
from market import Truth, make_market, write_inputs  # noqa: E402

DEADLINE_S = 165.0  # a run must end within 180 s
# Times are scaled to a host on which probe.py takes this long: the host
# this benchmark was written on, when calm.
PROBE_REF_S = 0.35
BURN_IN, SAMPLES = 1000, 3000
DELTAS = (30, 60, 300, 900, 1800, 3600)  # the CLI's default sampling periods


@dataclass(frozen=True)
class Workload:
    days: int
    steps_per_day: int
    long_series: bool  # enough returns to check recovery and the preferred law


# tick-dense: per-tick work (tick parsing, bridge loop, tick writing) and a
# short daily series, so per MH step the work outside the kernel outweighs
# the kernel.  long-history: per-day work (resample_grid's day loop, per-day
# simulate set-up) and a long daily series, so the likelihood does most of
# each MH step.
WORKLOADS = {
    "tick-dense": Workload(250, 400, False),
    "long-history": Workload(1500, 40, True),
}
COMMANDS = ("simulate", "rv", "compare")


def command_args(command, workload, seed, work):
    truth = Truth()
    if command == "simulate":
        return [
            "simulate",
            "--days", str(workload.days),
            "--steps-per-day", str(workload.steps_per_day),
            "--model", "garch-re",
            "--omega", repr(truth.omega),
            "--alpha", repr(truth.alpha),
            "--beta", repr(truth.beta),
            "--a", repr(truth.a),
            "--rho2", repr(truth.rho2),
            "--seed", str(seed),
            "--out-dir", f"{work}/simulate",
        ]  # fmt: skip
    if command == "rv":
        return [
            "rv",
            "--ticks", f"{work}/inputs/ticks.csv",
            "--data", f"{work}/inputs/daily.csv",
            "--out-dir", f"{work}/rv",
        ]  # fmt: skip
    return [
        "compare",
        "--data", f"{work}/inputs/daily.csv",
        "--burn-in", str(BURN_IN),
        "--samples", str(SAMPLES),
        "--seed", str(seed),
        "--out-dir", f"{work}/compare",
    ]  # fmt: skip


class Runner:
    """Launches fresh ``regarch`` processes and keeps the operation tally."""

    def __init__(self, work, deadline, trace):
        self.work = work
        self.deadline = deadline
        self.trace = trace
        self.attempted = 0
        self.failures = []
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                p for p in ("src", os.environ.get("PYTHONPATH")) if p
            ),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def count(self, name, ok, detail):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok

    def spawn(self, cmd, log_name):
        """Run ``cmd`` to its end; (exit code or "timeout", start, end) clocks."""
        with open(ROOT / self.work / log_name, "w") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log, stderr=log)
            # a pidfd wakes us when the process ends; Popen.wait(timeout)
            # polls with sleeps of up to 50 ms
            pidfd = os.pidfd_open(proc.pid)
            try:
                timeout = max(1.0, self.deadline - time.monotonic())
                ended = select.select([pidfd], [], [], timeout)[0]
            finally:
                os.close(pidfd)
            t_exit = time.monotonic()
            if ended:
                return proc.wait(), t0, t_exit
            proc.kill()
            proc.wait()
            return "timeout", t0, t_exit

    def probe(self):
        """Wall time of ``probe.py`` in a fresh interpreter, or None."""
        code, t0, t_exit = self.spawn([sys.executable, str(HERE / "probe.py")], "probe.log")
        return t_exit - t0 if self.count("probe", code == 0, f"exit {code}") else None

    def launch(self, args):
        """(setup_s, command_s, record) of one fresh process; None on failure."""
        record_path = ROOT / self.work / "launch.json"
        record_path.unlink(missing_ok=True)
        flags = ["--trace"] if self.trace else []
        cmd = [sys.executable, str(HERE / "launch.py"), str(record_path), *flags, "--", *args]
        code, t0, t_exit = self.spawn(cmd, f"{args[0]}.log")
        if not self.count(args[0], code == 0 and record_path.exists(), f"exit {code}"):
            return None
        record = json.loads(record_path.read_text())
        return record["begin"] - t0, t_exit - record["begin"], record

    def check(self, fn, *args):
        try:
            results = fn(*args)
        except Exception as exc:  # a broken artifact fails its checks, not the run
            results = [(fn.__name__, False, f"{type(exc).__name__}: {exc}")]
        for name, ok, detail in results:
            self.count(name, ok, detail)
            print(f"  {'ok  ' if ok else 'FAIL'} {name}: {detail}")


def exit_after_main(seconds, record):
    """Time from ``main`` returning to the end of the process."""
    return seconds - (record["end"] - record["begin"])


def run_round(runner, workload, seed, market, setups, probes, reference):
    """One round of the three commands; returns per-command measurements.

    The first round checks every artifact against the truth and records
    its digests in ``reference``; later rounds check that each command
    wrote the same bytes again.
    """
    work = runner.work
    out = {}
    for command in COMMANDS:
        args = command_args(command, workload, seed, work)
        out_dir = ROOT / work / command
        shutil.rmtree(out_dir, ignore_errors=True)
        if not runner.trace:
            probes.append(runner.probe())
        result = runner.launch(args)
        if result:
            setup, seconds, record = result
            setups.append(setup)
            out[command] = (seconds, record)
            print(f"{command}: start-up {setup:.3f} s, command {seconds:.3f} s "
                  f"(exit after main {exit_after_main(seconds, record):.3f} s), "
                  f"peak RSS {record['maxrss_kb'] / 1024:.1f} MB")
        if command in reference:
            same = digests(out_dir) == reference[command]
            runner.count(f"{command}.same_artifacts", same, "artifacts differ from round 1")
            continue
        reference[command] = digests(out_dir)
        if command == "simulate":
            runner.check(checks.check_simulate, out_dir, workload, Truth())
        elif command == "rv":
            runner.check(checks.check_rv, out_dir, DELTAS, market, Truth())
        else:
            runner.check(
                checks.check_compare, out_dir, market, Truth(), workload.long_series
            )
    return out


def digests(directory):
    """sha256 of every CSV and JSON file under ``directory``, by relative path."""
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(directory).rglob("*"))
        if path.suffix in (".csv", ".json") and path.name != "launch.json"
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    if not (ROOT / "src" / "regarch" / "cli.py").is_file():
        print(f"error: no regarch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = f".perfbench_out/{args.workload}"
    shutil.rmtree(ROOT / work, ignore_errors=True)
    (ROOT / work / "inputs").mkdir(parents=True)
    market = make_market(workload.days, workload.steps_per_day, Truth(), args.seed)
    write_inputs(
        market,
        ROOT / work / "inputs" / "ticks.csv",
        ROOT / work / "inputs" / "daily.csv",
        f"perfbench {args.workload} seed {args.seed}",
    )

    runner = Runner(work, started + DEADLINE_S, bool(args.trace))
    setups, probes, rounds, reference = [], [], [], {}
    first = time.monotonic()
    while True:
        t0 = time.monotonic()
        print(f"round {len(rounds) + 1}")
        rounds.append(
            run_round(runner, workload, args.seed, market, setups, probes, reference)
        )
        took = time.monotonic() - t0
        now = time.monotonic()
        if now - first + took > args.seconds or now + 1.5 * took > runner.deadline:
            break

    complete = [r for r in rounds if len(r) == len(COMMANDS)]
    metrics = {}
    if complete and args.trace:
        per_round = []
        for r in complete:
            layers = tracer.layer_metrics({c: r[c][1]["trace"] for c in COMMANDS})
            layers["cli.exit_s"] = (sum(exit_after_main(*r[c]) for c in COMMANDS), "s")
            per_round.append(layers)
        for name, (_, unit) in per_round[0].items():
            metrics[name] = {
                "value": statistics.median(m[name][0] for m in per_round),
                "unit": unit,
            }
        for command in COMMANDS:
            spans = complete[0][command][1]["trace"]["spans"]
            root = spans[f"cli.{command}"][1]
            own = sum(s[2] for s in spans.values())
            seconds, record = complete[0][command]
            print(f"trace {command}: command {seconds:.3f} s, traced span {root:.3f} s, "
                  f"sum of self times {own:.3f} s, "
                  f"exit after main {exit_after_main(seconds, record):.3f} s")
    elif complete and None not in probes:
        host = PROBE_REF_S / statistics.median(probes)
        print(f"probe median {statistics.median(probes):.3f} s over {len(probes)}: "
              f"times scaled by {host:.3f}")
        raw = {"setup_s": statistics.median(setups)}
        for command in COMMANDS:
            raw[f"{command}_s"] = statistics.median(r[command][0] for r in complete)
        for name, seconds in raw.items():
            print(f"{name}: median {seconds:.3f} s as measured, {seconds * host:.3f} s scaled")
            metrics[name] = {"value": seconds * host, "unit": "s"}
        for command in COMMANDS:
            metrics[f"{command}_rss_mb"] = {
                "value": statistics.median(r[command][1]["maxrss_kb"] for r in complete)
                / 1024,
                "unit": "MB",
            }
    for name, digest in digests(ROOT / work).items():
        print(f"sha256 {digest} {name}")
    for failure in runner.failures:
        print(f"failed: {failure}")
    print(f"{len(rounds)} round(s) in {time.monotonic() - started:.1f} s")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
