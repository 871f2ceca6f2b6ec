"""Benchmark the compiled recursion kernels against the NumPy fallback.

Runs the variance recursion and both likelihood kernels over a grid of
series lengths, timing three implementations:

  compiled   regarch.recursions (Cython extension)
  fallback   regarch.recursions_python (float-loop recursion, NumPy terms)
  loop       a naive pure-Python reference loop

and checks that compiled and fallback agree bit for bit on every case.
Usage: python benchmarks/bench_kernels.py [--repeats 7]
"""

import argparse
import math
import timeit

import numpy as np

try:
    from regarch import recursions as compiled
except ImportError:
    compiled = None
from regarch import recursions_python as fallback

_PARAMS = {
    "calm": (1.3e-5, 0.148, 0.836),
    "persistent": (2.8e-4, 0.132, 0.850),
}
_LN_2PI = 1.8378770664093453


def _loop_normal_loglik(omega, alpha, beta, returns, init_variance):
    s = init_variance
    total = 0.0
    for t in range(returns.shape[0]):
        if t > 0:
            s = omega + alpha * returns[t - 1] ** 2 + beta * s
        total += -0.5 * (_LN_2PI + math.log(s) + returns[t] ** 2 / s)
    return total


def _time(fn, repeats):
    return min(timeit.repeat(fn, number=1, repeat=repeats))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()

    if compiled is None:
        print("compiled extension not built; timing fallback and loop only")

    rng = np.random.default_rng(0)
    print(f"{'kernel':<16} {'params':<10} {'n':>8} "
          f"{'compiled':>10} {'fallback':>10} {'loop':>10} {'speedup':>8}")
    for name, (omega, alpha, beta) in _PARAMS.items():
        uncond = omega / (1.0 - alpha - beta)
        for n in (1_000, 10_000, 100_000):
            y = rng.standard_normal(n) * math.sqrt(uncond)
            out_c = np.empty(n)
            out_f = np.empty(n)

            rows = {
                "garch_recursion": (
                    (lambda: compiled.garch_recursion(
                        omega, alpha, beta, y, uncond, out_c))
                    if compiled else None,
                    lambda: fallback.garch_recursion(
                        omega, alpha, beta, y, uncond, out_f),
                    None,
                ),
                "normal_loglik": (
                    (lambda: compiled.normal_loglik(
                        omega, alpha, beta, y, uncond))
                    if compiled else None,
                    lambda: fallback.normal_loglik(
                        omega, alpha, beta, y, uncond),
                    lambda: _loop_normal_loglik(
                        omega, alpha, beta, y, uncond),
                ),
                "rational_loglik": (
                    (lambda: compiled.rational_loglik(
                        omega, alpha, beta, 1.57, y, uncond))
                    if compiled else None,
                    lambda: fallback.rational_loglik(
                        omega, alpha, beta, 1.57, y, uncond),
                    None,
                ),
            }
            for kernel, (fn_c, fn_f, fn_loop) in rows.items():
                t_c = _time(fn_c, args.repeats) if fn_c else float("nan")
                t_f = _time(fn_f, args.repeats)
                t_loop = _time(fn_loop, max(1, args.repeats // 3)) if fn_loop else float("nan")
                speed = t_f / t_c if fn_c else float("nan")
                print(f"{kernel:<16} {name:<10} {n:>8} "
                      f"{t_c*1e3:>9.3f}m {t_f*1e3:>9.3f}m "
                      f"{t_loop*1e3:>9.3f}m {speed:>7.2f}x")

            if compiled is not None:
                compiled.garch_recursion(omega, alpha, beta, y, uncond, out_c)
                fallback.garch_recursion(omega, alpha, beta, y, uncond, out_f)
                if not np.array_equal(out_c, out_f):
                    raise SystemExit(
                        f"MISMATCH: kernels disagree for {name} n={n}"
                    )
                ll_c = compiled.normal_loglik(omega, alpha, beta, y, uncond)
                ll_f = fallback.normal_loglik(omega, alpha, beta, y, uncond)
                lr_c = compiled.rational_loglik(omega, alpha, beta, 1.57, y, uncond)
                lr_f = fallback.rational_loglik(omega, alpha, beta, 1.57, y, uncond)
                for (a_val, a_bad), (b_val, b_bad) in ((ll_c, ll_f), (lr_c, lr_f)):
                    if a_bad != b_bad or not math.isclose(
                        a_val, b_val, rel_tol=1e-12, abs_tol=0.0
                    ):
                        raise SystemExit(
                            f"MISMATCH: likelihoods disagree for {name} n={n}"
                        )
    if compiled is not None:
        print("\nagreement: compiled and fallback variance paths are bitwise "
              "equal; likelihood sums agree to 1e-12 (summation order differs)")


if __name__ == "__main__":
    main()
