"""Command-line interface: reproducible fit, selection, RV, and simulation runs.

Subcommands
-----------
fit        estimate one model on daily closes; chain CSV + summary JSON
compare    fit both error laws on the same data; AIC/DIC comparison
rv         realized variance per sampling period from ticks; signature curve
rmspe      fit both models and score them against c-adjusted RV per period
simulate   synthetic market: daily closes, ticks, and the exact truth

Every artifact embeds the resolved configuration and seed: CSV files as
leading ``#`` comment lines, JSON files under an ``invocation`` key.  All
outputs are deterministic bytes for fixed inputs, flags, and seed.

``compare`` and ``rmspe`` fit their two models at once: the second draws
its chain in a forked :class:`~regarch.forked.Child`, which sends back its
draws and error as one object and writes nothing; the command summarises
the draws, so every log record and warning is its own (see :func:`_fit`).

Exit codes: 0 success, 1 numerical or adaptation failure (or a forked fit
that ended without a result, or a stdout closed by its reader), 2 usage or
input error.  Every command writes all its artifacts before its first
stdout line, so a reader that stops early still gets every file.

:func:`main` returns the exit code.  On every way out it flushes stdout
and freezes the objects the garbage collector tracks, so that the
interpreter's exit does not walk them.
"""

from __future__ import annotations

import argparse
import gc
import logging
import math
import os
import sys
import traceback
from dataclasses import replace
from datetime import date
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    SessionCalendar,
    daily_closes_from_ticks,
    daily_log_returns,
    load_daily_prices,
    load_ticks,
    write_csv,
    write_daily_csv,
    write_json,
    write_ticks_csv,
)
from .exceptions import (
    AdaptationFailureError,
    DomainError,
    InsufficientDataError,
    NumericalError,
    ParseError,
    ValidationError,
    WorkerError,
)
from .forked import Child
from .garch import PARAM_NAMES, GarchParams, volatility_recursion
from .mcmc import (
    MODEL_NORMAL,
    MODEL_RATIONAL,
    ChainConfig,
    check_adapt_interval,
    draw_chain,
    model_law,
    run_chain,
    summarize,
)
from .realized import (
    NoiseModel,
    SignatureCurve,
    hl_adjusted_rv,
    rmspe,
    scale_to_daily_variance,
    write_rv_csv,
    write_signature_csv,
)
from .selection import AIC_LEGACY, AIC_STANDARD, compare, score_chain
from .simulate import DiffusionSpec, simulate_intraday

_MODELS = (MODEL_NORMAL, MODEL_RATIONAL)
_DEFAULT_DELTAS = "30,60,300,900,1800,3600"


def _delta_list(text):
    try:
        deltas = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad sampling period list {text!r}")
    if not deltas:
        raise argparse.ArgumentTypeError("empty sampling period list")
    # a NaN fails every comparison, so test for a number in (0, inf)
    if not all(0.0 < d < math.inf for d in deltas):
        raise argparse.ArgumentTypeError("sampling periods must be positive and finite")
    return deltas


def _seed(text):
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"bad seed {text!r} (want an integer >= 0)")
    return seed


def _iso_date(text):
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad date {text!r} (want YYYY-MM-DD)")


def _add_chain_flags(sub):
    sub.add_argument("--burn-in", type=int, default=6000, help="burn-in sweeps")
    sub.add_argument("--samples", type=int, default=50000, help="posterior samples")
    sub.add_argument(
        "--adapt-interval",
        type=int,
        default=500,
        help="sweeps between proposal refits during burn-in",
    )
    sub.add_argument(
        "--nu", type=float, default=10.0, help="Student-t proposal degrees of freedom"
    )


def _add_tick_flags(sub):
    sub.add_argument("--ticks", required=True, help="tick CSV (timestamp,price)")
    sub.add_argument("--calendar", help="session calendar JSON (default: Tokyo)")


def _add_delta_list(sub):
    sub.add_argument(
        "--delta-list",
        type=_delta_list,
        default=_delta_list(_DEFAULT_DELTAS),
        help=f"comma-separated sampling periods in seconds (default {_DEFAULT_DELTAS})",
    )


def _add_common(sub):
    sub.add_argument("--seed", type=_seed, default=0, help="master RNG seed")
    sub.add_argument("--out-dir", default=".", help="directory for artifacts")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="regarch",
        description="GARCH(1,1) estimation with normal or rational errors, "
        "model selection, and realized-volatility evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"regarch {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    fit = commands.add_parser("fit", help="fit one model on daily closes")
    fit.add_argument("--model", choices=_MODELS, required=True)
    fit.add_argument("--data", required=True, help="daily close CSV (date,close)")
    _add_chain_flags(fit)
    _add_common(fit)
    fit.set_defaults(func=cmd_fit)

    comp = commands.add_parser("compare", help="fit both models and score AIC/DIC")
    comp.add_argument("--data", required=True, help="daily close CSV (date,close)")
    _add_chain_flags(comp)
    comp.add_argument(
        "--paper-literal-aic",
        action="store_true",
        help="use the legacy -lnL - 2k form instead of -2 lnL + 2k",
    )
    _add_common(comp)
    comp.set_defaults(func=cmd_compare)

    rv = commands.add_parser("rv", help="realized variance and signature curve")
    _add_tick_flags(rv)
    rv.add_argument(
        "--data",
        help="daily close CSV for HL factors (default: last tick of each day)",
    )
    _add_delta_list(rv)
    _add_common(rv)
    rv.set_defaults(func=cmd_rv)

    rm = commands.add_parser(
        "rmspe", help="score fitted model volatilities against c-adjusted RV"
    )
    rm.add_argument("--data", required=True, help="daily close CSV (date,close)")
    _add_tick_flags(rm)
    _add_delta_list(rm)
    _add_chain_flags(rm)
    rm.add_argument(
        "--paper-literal-rmspe",
        action="store_true",
        help="omit the 1/N mean inside the square root (legacy root-sum form)",
    )
    rm.add_argument(
        "--rv-as-vols",
        action="store_true",
        help="diagnostic: use the c-adjusted RV itself as the variance forecast "
        "(skips fitting; RMSPE is identically zero)",
    )
    _add_common(rm)
    rm.set_defaults(func=cmd_rmspe)

    sim = commands.add_parser(
        "simulate", help="synthetic daily closes, ticks, and exact truth"
    )
    sim.add_argument("--days", type=int, default=250, help="trading days")
    sim.add_argument(
        "--steps-per-day", type=int, default=390, help="diffusion steps per day"
    )
    sim.add_argument("--model", choices=_MODELS, default=MODEL_NORMAL)
    sim.add_argument("--omega", type=float, default=1e-5)
    sim.add_argument("--alpha", type=float, default=0.1)
    sim.add_argument("--beta", type=float, default=0.85)
    sim.add_argument("--a", type=float, default=2.0, help="rational shape parameter")
    sim.add_argument(
        "--day-variance",
        type=float,
        default=None,
        help="constant in-session daily variance instead of a GARCH path",
    )
    sim.add_argument(
        "--rho2", type=float, default=0.0, help="microstructure noise variance"
    )
    sim.add_argument("--overnight-fraction", type=float, default=0.0)
    sim.add_argument("--start-price", type=float, default=2500.0)
    sim.add_argument("--start-date", type=_iso_date, default=date(2006, 1, 2))
    sim.add_argument("--calendar", help="session calendar JSON (default: Tokyo)")
    _add_common(sim)
    sim.set_defaults(func=cmd_simulate)

    return parser


_NOT_RECORDED = ("command", "func", "out_dir")


def _invocation(args):
    """Resolved configuration recorded in every artifact.

    Every option of the subcommand, in the order the parser defines them,
    except the output directory, which does not change any artifact.
    """
    out = {"command": args.command}
    for key, value in vars(args).items():
        if key in _NOT_RECORDED:
            continue
        if isinstance(value, date):
            value = value.isoformat()
        out[key] = value
    return out


def _period(delta):
    """A sampling period as text: ``:g`` where that reads back as the same
    float, else ``repr``, so that two periods never share a name."""
    text = f"{delta:g}"
    return text if float(text) == delta else repr(float(delta))


def _comment_lines(invocation):
    lines = [f"regarch {invocation['command']}"]
    for key, value in invocation.items():
        if key == "command":
            continue
        if isinstance(value, list):
            value = ",".join(map(_period, value))
        lines.append(f"{key.replace('_', '-')} = {value}")
    return lines


def _out_dir(args):
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _calendar(args):
    if getattr(args, "calendar", None):
        return SessionCalendar.from_json(args.calendar)
    return SessionCalendar.tokyo()


def _chain_config(args):
    return ChainConfig(
        burn_in=args.burn_in,
        samples=args.samples,
        adapt_interval=args.adapt_interval,
        nu=args.nu,
        seed=args.seed,
    )


def _table(rows):
    """Left-aligned columns, two spaces apart, no trailing blanks."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def _print_fit(chain):
    print(
        f"{chain.model} fit: {chain.n_obs} observations, "
        f"acceptance {chain.acceptance_rate:.3f}"
    )
    rows = [("parameter", "mean", "tau_int")]
    rows += [(s.name, s.formatted(), f"{s.tau_int:.1f}") for s in chain.summaries]
    print(_table(rows))
    print(f"log-likelihood at posterior mean: {chain.lnl_at_mean:.3f}")


def _load_returns(path):
    return daily_log_returns(load_daily_prices(path))


def cmd_fit(args):
    chain = _fit(args, _load_returns(args.data), [args.model])[args.model]
    chain_path, summary_path = _export_chain(chain, _out_dir(args), _invocation(args))

    _print_fit(chain)
    print(f"wrote {chain_path}")
    print(f"wrote {summary_path}")
    return 0


def _fit(args, returns, models):
    """One chain per model; every model's adaptation interval is checked
    before the first chain starts.

    Each model after the first draws its chain in a forked :class:`Child`
    while the first is fitted here, and is summarised here once the first
    is done.  Every chain is seeded by the config alone, so the chains are
    those of fitting one model after another, and their log records,
    warnings and errors, all raised in this process, come in model order.
    A model with no child, where ``os.fork`` does not exist or fails, is
    fitted here in turn; so is every model where ``run_chain`` is not this
    package's own (a test double, or the span wrappers of
    ``perfbench/tracer.py``, which record in the process that calls them).
    """
    config = _chain_config(args)
    for model in models:
        check_adapt_interval(model, config)
    own = getattr(run_chain, "__module__", None) == f"{__package__}.mcmc"
    children = {}
    try:
        for model in models[1:] if own else ():
            children[model] = Child(_worker_main, model, returns, config)
        chains = {}
        for model in models:
            child = children.get(model)
            if child is None or child.pid is None:
                chains[model] = run_chain(model, returns, config)
            else:
                chains[model] = summarize(_received(model, child), returns)
        return chains
    finally:
        for child in children.values():
            child.close()


def _received(model, child):
    """The draws ``child`` sent back for ``model``, or the child's error."""
    message = child.receive()
    if message is None:
        raise WorkerError(
            f"{model}: the forked fit ended (exit code {child.close()}) without a result"
        )
    draws, error = message
    if error is not None:
        raise error
    return draws


def _worker_main(send, model, returns, config):
    """The forked child: draw ``model``'s chain, which logs and warns
    nothing, and send (draws, error) as one message."""
    draws = error = None
    try:
        draws = draw_chain(model, returns, config)
    except Exception as exc:
        # a traceback does not pickle; its text crosses as a note
        notes = getattr(exc, "__notes__", [])
        exc.__notes__ = [*notes, "".join(traceback.format_tb(exc.__traceback__))]
        error = exc
    send((draws, error))


def _export_chain(chain, out, invocation):
    """Write the chain CSV and summary JSON of one fit; return both paths."""
    chain_path = out / f"chain_{chain.model}.csv"
    chain.export_samples_csv(chain_path, comments=_comment_lines(invocation))
    summary = chain.summary_dict()
    summary["invocation"] = invocation
    summary_path = out / f"summary_{chain.model}.json"
    write_json(summary_path, summary)
    return chain_path, summary_path


def cmd_compare(args):
    returns = _load_returns(args.data)
    chains = _fit(args, returns, _MODELS)
    aic_form = AIC_LEGACY if args.paper_literal_aic else AIC_STANDARD
    scores = {m: score_chain(chains[m], aic_form=aic_form) for m in _MODELS}
    report = compare(scores[MODEL_NORMAL], scores[MODEL_RATIONAL])

    invocation = _invocation(args)
    out = _out_dir(args)
    for model in _MODELS:
        _export_chain(chains[model], out, invocation)
    payload = report.as_dict()
    payload["invocation"] = invocation
    comparison_path = out / "comparison.json"
    write_json(comparison_path, payload)

    for model in _MODELS:
        _print_fit(chains[model])
        print()
    rows = [("criterion", MODEL_NORMAL, MODEL_RATIONAL, "preferred")]
    rows.append(
        (
            "AIC",
            f"{scores[MODEL_NORMAL].aic:.3f}",
            f"{scores[MODEL_RATIONAL].aic:.3f}",
            report.aic_preferred,
        )
    )
    rows.append(
        (
            "DIC",
            f"{scores[MODEL_NORMAL].dic:.3f}",
            f"{scores[MODEL_RATIONAL].dic:.3f}",
            report.dic_preferred,
        )
    )
    print(_table(rows))
    if report.criteria_agree:
        print(f"criteria agree: {report.aic_preferred} preferred by both")
    else:
        print("criteria disagree")
    print(f"wrote {comparison_path}")
    return 0


def cmd_rv(args):
    ticks = load_ticks(args.ticks)
    calendar = _calendar(args)
    if args.data:
        returns = _load_returns(args.data)
    else:
        returns = daily_log_returns(daily_closes_from_ticks(ticks, calendar))
    series = hl_adjusted_rv(ticks, calendar, args.delta_list, returns)
    curve = SignatureCurve.from_rv(series)

    invocation = _invocation(args)
    comments = _comment_lines(invocation)
    out = _out_dir(args)
    rv_paths = [out / f"rv_{_period(rv.delta_seconds)}s.csv" for rv in series]
    for rv, rv_path in zip(series, rv_paths):
        write_rv_csv(rv, rv_path, comments=comments)
    signature_path = out / "signature.csv"
    write_signature_csv(curve, signature_path, comments=comments)
    hl_path = out / "hl.csv"
    write_csv(
        hl_path, ("delta_seconds", "hl_factor"), (curve.deltas, curve.hl_factors), comments
    )

    for rv_path in rv_paths:
        print(f"wrote {rv_path}")
    print("delta_seconds  avg_rv        hl_factor")
    for delta, v, c in zip(curve.deltas, curve.avg_rv, curve.hl_factors):
        print(f"{_period(delta):>13}  {v:.6e}  {c:.4f}")
    print(f"wrote {signature_path}")
    print(f"wrote {hl_path}")
    return 0


def cmd_rmspe(args):
    returns = _load_returns(args.data)
    ticks = load_ticks(args.ticks)
    calendar = _calendar(args)
    chains = {} if args.rv_as_vols else _fit(args, returns, _MODELS)
    # each fit's variances at its posterior mean, rescaled to the daily variance
    scaled = {
        f"rmspe_{model.replace('-', '_')}": scale_to_daily_variance(
            volatility_recursion(chain.params_at_mean(), returns), returns
        )
        for model, chain in chains.items()
    }
    header = ["delta_seconds", "hl_factor", *(scaled or ["rmspe_oracle"])]

    rows = []
    return_days = set(returns.dates)
    for adjusted in hl_adjusted_rv(ticks, calendar, args.delta_list, returns):
        forecasts = list(scaled.values())
        if not forecasts:
            # each period's c-adjusted RV forecasts itself on the days a fit's
            # forecast covers, those with a return (rmspe refuses a zero)
            keep = [i for i, d in enumerate(adjusted.dates) if d in return_days]
            days = [adjusted.dates[i] for i in keep]
            values = adjusted.c_adjusted()[keep]
            forecasts = [replace(adjusted, dates=days, values=values, hl_factor=None)]
        errors = [
            rmspe(f, adjusted, mean_normalized=not args.paper_literal_rmspe)
            for f in forecasts
        ]
        rows.append([adjusted.delta_seconds, adjusted.hl_factor] + errors)

    invocation = _invocation(args)
    out = _out_dir(args)
    for chain in chains.values():
        _export_chain(chain, out, invocation)
    rmspe_path = out / "rmspe.csv"
    write_csv(rmspe_path, header, list(zip(*rows)), _comment_lines(invocation))

    for chain in chains.values():
        _print_fit(chain)
        print()
    print("  ".join(header))
    for delta, c, *errors in rows:
        cells = [f"{_period(delta):>13}", f"{c:9.4f}"]
        cells += [f"{e:.6f}" for e in errors]
        print("  ".join(cells))
    print(f"wrote {rmspe_path}")
    return 0


def cmd_simulate(args):
    calendar = _calendar(args)
    if args.day_variance is not None:
        garch = None
        day_variances = args.day_variance
    else:
        law = model_law(args.model)
        values = [getattr(args, name) for name in PARAM_NAMES[law]]
        garch = GarchParams.from_vector(values, law)
        day_variances = None
    spec = DiffusionSpec(
        steps_per_day=args.steps_per_day,
        day_variances=day_variances,
        garch=garch,
        noise=NoiseModel(args.rho2),
        overnight_fraction=args.overnight_fraction,
        start_price=args.start_price,
        start_date=args.start_date,
    )
    sim = simulate_intraday(spec, args.days, np.random.default_rng(args.seed), calendar)

    invocation = _invocation(args)
    comments = _comment_lines(invocation)
    out = _out_dir(args)

    daily_path = out / "daily.csv"
    write_daily_csv(sim.daily_prices, daily_path, comments=comments)
    ticks_path = out / "ticks.csv"
    write_ticks_csv(sim.ticks, ticks_path, comments=comments)

    truth_path = out / "truth.csv"
    write_csv(
        truth_path,
        ("date", "integrated_variance", "total_variance", "true_return"),
        (sim.dates, sim.session_variances, sim.total_variances, sim.true_daily_returns),
        comments,
    )

    print(
        f"simulated {args.days} trading days, {len(sim.ticks)} ticks "
        f"from {sim.dates[0].isoformat()} to {sim.dates[-1].isoformat()}"
    )
    for path in (daily_path, ticks_path, truth_path):
        print(f"wrote {path}")
    return 0


def main(argv=None):
    """Run the command ``argv`` names (default ``sys.argv[1:]``); return its
    exit code.  A caller that runs many commands keeps any reference cycle
    left over from one until it calls ``gc.unfreeze()`` (see below)."""
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("regarch").setLevel(logging.INFO)
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # the Python docs' SIGPIPE recipe: what stdout still buffers goes to
        # os.devnull, so the flush at exit raises nothing more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: standard output: {exc.strerror}", file=sys.stderr)
        return 1
    finally:
        # Most of the ~23k objects the collector tracks by now (NumPy's and
        # this package's modules) live until the process ends, and the
        # interpreter's exit runs full collections that would walk them
        # all; frozen, they are skipped.  On a 2-vCPU VM the median time
        # from here to process exit fell from 26-29 ms to 9-11 ms.
        # A frozen object is still freed when its last reference goes;
        # only a cycle among frozen objects waits for gc.unfreeze().
        gc.freeze()


def _run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # refused before any work, and nothing made: a failed run leaves no directory
        out = Path(args.out_dir)
        existing = next(path for path in (out, *out.parents) if path.exists())
        if not existing.is_dir():
            raise NotADirectoryError(f"--out-dir {out}: {existing} is not a directory")
        return args.func(args)
    except (NumericalError, AdaptationFailureError, WorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        ParseError,
        ValidationError,
        DomainError,
        InsufficientDataError,
        FileNotFoundError,
        IsADirectoryError,
        NotADirectoryError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
