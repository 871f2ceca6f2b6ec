"""Spans around the public functions of each ``regarch`` module.

The wrappers are installed from outside the program: each traced function is
replaced, in every ``regarch`` module that holds a reference to it, by a
wrapper that times the call.  A span's self time is its duration minus the
time of the traced calls it makes.  Spans are aggregated in memory by name
and written out when the command ends.
"""

from __future__ import annotations

import sys
import time


class Tracer:
    """Per-name call counts, inclusive and self times, plus MH chain marks."""

    def __init__(self):
        self.stack = []  # child time of each open span
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.chains = []  # one record per run_chain call
        self.in_step = 0  # open mh_step spans
        self.step_likelihood = [0, 0.0]  # log_likelihood calls and time in mh_step

    def wrap(self, fn, label, enter=None, leave=None):
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            name = label(args) if callable(label) else label
            child = [0.0]
            stack.append(child)
            t0 = clock()
            if enter:
                enter(args, t0)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                span = spans.setdefault(name, [0, 0.0, 0.0])
                span[0] += 1
                span[1] += dur
                span[2] += dur - child[0]
                if leave:
                    leave(args, result, t0, t1)

        return traced

    # -- marks for the MH driver ---------------------------------------------

    def _chain_enter(self, args, t0):
        self.chains.append({"model": args[0], "entry": t0, "first": None, "last": None})

    def _chain_leave(self, args, result, t0, t1):
        chain = self.chains[-1]
        chain["exit"] = t1
        chain["acceptance"] = getattr(result, "acceptance_rate", None)

    def _step_enter(self, args, t0):
        self.in_step += 1
        if self.chains and self.chains[-1]["first"] is None:
            self.chains[-1]["first"] = t0

    def _step_leave(self, args, result, t0, t1):
        self.in_step -= 1
        if self.chains:
            self.chains[-1]["last"] = t1

    def _likelihood_leave(self, args, result, t0, t1):
        if self.in_step:
            self.step_likelihood[0] += 1
            self.step_likelihood[1] += t1 - t0

    def install(self):
        """Replace the traced functions in every loaded ``regarch`` module."""
        from regarch import cli, data, garch, mcmc, rational, realized, selection, simulate

        law = lambda args: "garch.log_likelihood." + args[0].law  # noqa: E731
        targets = [
            (cli, "cmd_simulate", "cli.simulate", None, None),
            (cli, "cmd_rv", "cli.rv", None, None),
            (cli, "cmd_compare", "cli.compare", None, None),
            (data, "load_ticks", "data.load_ticks", None, None),
            (data, "resample_grid", "data.resample_grid", None, None),
            (data, "write_ticks_csv", "data.write_ticks_csv", None, None),
            (data, "load_daily_prices", "data.load_daily_prices", None, None),
            (data, "write_daily_csv", "data.write_daily_csv", None, None),
            (simulate, "simulate_intraday", "simulate.simulate_intraday", None, None),
            (simulate, "simulate_garch", "simulate.simulate_garch", None, None),
            (rational, "sample", "rational.sample", None, None),
            (realized, "rv_from_ticks", "realized.rv_from_ticks", None, None),
            (realized, "hl_factor", "realized.hl_factor", None, None),
            (realized, "write_rv_csv", "realized.write_csv", None, None),
            (realized, "write_signature_csv", "realized.write_csv", None, None),
            (garch, "log_likelihood", law, None, self._likelihood_leave),
            (garch._kernels, "normal_loglik", "garch.kernel.normal", None, None),
            (garch._kernels, "rational_loglik", "garch.kernel.rational", None, None),
            (mcmc, "run_chain", "mcmc.run_chain", self._chain_enter, self._chain_leave),
            (mcmc, "mh_step", "mcmc.mh_step", self._step_enter, self._step_leave),
            (mcmc, "adapt_proposal", "mcmc.adapt_proposal", None, None),
            (mcmc.StudentTProposal, "sample", "mcmc.proposal_sample", None, None),
            (mcmc.StudentTProposal, "log_density", "mcmc.proposal_log_density", None, None),
            (mcmc.PosteriorChain, "export_samples_csv", "mcmc.export_samples_csv", None, None),
            (selection, "score_chain", "selection.score_chain", None, None),
        ]
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "regarch" and m]
        for owner, attr, label, enter, leave in targets:
            original = getattr(owner, attr)
            traced = self.wrap(original, label, enter, leave)
            setattr(owner, attr, traced)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def report(self):
        return {
            "spans": self.spans,
            "chains": [
                {
                    "model": c["model"],
                    "run_chain_s": c["exit"] - c["entry"],
                    "start_search_s": c["first"] - c["entry"],
                    "post_chain_s": c["exit"] - c["last"],
                    "acceptance": c["acceptance"],
                }
                for c in self.chains
            ],
            "step_likelihood": self.step_likelihood,
        }


def layer_metrics(reports):
    """Per-layer metrics from the trace reports of one round's three commands."""
    spans, chains, step_ll = {}, [], [0, 0.0]
    for report in reports.values():
        for name, (calls, total, own) in report["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        chains += report["chains"]
        step_ll[0] += report["step_likelihood"][0]
        step_ll[1] += report["step_likelihood"][1]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def per_call_us(name):
        return 1e6 * total(name) / calls(name) if calls(name) else 0.0

    by_model = {c["model"]: c for c in chains}
    steps = calls("mcmc.mh_step")
    ll_calls = calls("garch.log_likelihood.normal") + calls("garch.log_likelihood.rational")
    ll_time = total("garch.log_likelihood.normal") + total("garch.log_likelihood.rational")
    kernel_time = total("garch.kernel.normal") + total("garch.kernel.rational")
    m = {
        "cli.simulate_self_s": (own("cli.simulate"), "s"),
        "cli.rv_self_s": (own("cli.rv"), "s"),
        "cli.compare_self_s": (own("cli.compare"), "s"),
        "data.load_ticks_s": (total("data.load_ticks"), "s"),
        "data.resample_grid_s": (total("data.resample_grid"), "s"),
        "data.write_ticks_csv_s": (total("data.write_ticks_csv"), "s"),
        "data.load_daily_prices_s": (total("data.load_daily_prices"), "s"),
        "data.write_daily_csv_s": (total("data.write_daily_csv"), "s"),
        "simulate.simulate_intraday_s": (own("simulate.simulate_intraday"), "s"),
        "simulate.simulate_garch_s": (own("simulate.simulate_garch"), "s"),
        "rational.sample_s": (total("rational.sample"), "s"),
        "realized.rv_from_ticks_s": (own("realized.rv_from_ticks"), "s"),
        "realized.hl_factor_s": (total("realized.hl_factor"), "s"),
        "realized.write_csv_s": (total("realized.write_csv"), "s"),
        "garch.call_overhead_us": (1e6 * (ll_time - kernel_time) / ll_calls, "us"),
        "mcmc.mh_steps": (steps, "count"),
        "mcmc.mh_step_us": (per_call_us("mcmc.mh_step"), "us"),
        "mcmc.step_outside_likelihood_us": (
            1e6 * (total("mcmc.mh_step") - step_ll[1]) / steps,
            "us",
        ),
        "mcmc.proposal_sample_us": (per_call_us("mcmc.proposal_sample"), "us"),
        "mcmc.proposal_log_density_us": (per_call_us("mcmc.proposal_log_density"), "us"),
        "mcmc.proposal_log_density_calls": (calls("mcmc.proposal_log_density"), "count"),
        "mcmc.likelihood_evals_per_step": (step_ll[0] / steps, "ratio"),
        "mcmc.start_search_s": (sum(c["start_search_s"] for c in chains), "s"),
        "mcmc.adapt_proposal_s": (total("mcmc.adapt_proposal"), "s"),
        "mcmc.post_chain_s": (sum(c["post_chain_s"] for c in chains), "s"),
        "mcmc.export_samples_csv_s": (total("mcmc.export_samples_csv"), "s"),
        "selection.score_chain_s": (total("selection.score_chain"), "s"),
    }
    for law in ("normal", "rational"):
        m[f"garch.log_likelihood_calls.{law}"] = (calls(f"garch.log_likelihood.{law}"), "count")
        m[f"garch.log_likelihood_us.{law}"] = (per_call_us(f"garch.log_likelihood.{law}"), "us")
        m[f"garch.kernel_us.{law}"] = (per_call_us(f"garch.kernel.{law}"), "us")
    for model in ("garch-n", "garch-re"):
        m[f"mcmc.run_chain_s.{model}"] = (by_model[model]["run_chain_s"], "s")
        m[f"mcmc.acceptance_rate.{model}"] = (by_model[model]["acceptance"], "ratio")
    return m
