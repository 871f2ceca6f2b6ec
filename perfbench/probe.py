"""Host-speed probe: fixed work in a fresh interpreter, apart from regarch.

It imports NumPy, then formats and parses a column of floats, runs an
interpreter-bound loop and many small NumPy calls: the kinds of work the
``regarch`` commands do.  ``run.py`` times it from spawn to exit before each
command; on a shared host its time follows the host's speed over a run, and
it does not change when ``regarch`` does.
"""

import numpy as np

x = np.random.default_rng(0).standard_normal(60_000)
text = "\n".join(f"2006-01-02T09:00:00.{i:06d},{v!r}" for i, v in enumerate(x.tolist()))
values = np.array([float(line.split(",")[1]) for line in text.split("\n")])
s = 0.0
for v in values.tolist():
    s = 0.9 * s + v * v
eye = np.eye(4) * 2.0
for i in range(1500):
    z = np.linalg.solve(eye, values[i : i + 4])
    s += float(z @ z)
np.cumsum(np.sort(values))
