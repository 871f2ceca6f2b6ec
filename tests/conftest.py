import io
import os

import numpy as np
import pytest
from hypothesis import settings

from regarch.forked import _send
from regarch.garch import GarchParams
from regarch.mcmc import MODEL_NORMAL, ChainConfig, run_chain
from regarch.simulate import simulate_garch

# the same examples on every run and no database of earlier ones to replay,
# so the property tests pass or fail alike on every run
settings.register_profile("fixed-examples", derandomize=True, database=None)
settings.load_profile("fixed-examples")


@pytest.fixture(scope="session")
def normal_chain():
    """One short GARCH-N fit on its own synthetic data, shared across modules."""
    params = GarchParams(5e-5, 0.1, 0.8)
    returns, _ = simulate_garch(params, 800, np.random.default_rng(10))
    return run_chain(
        MODEL_NORMAL, returns, ChainConfig(burn_in=1500, samples=5000, seed=3)
    )


def _no_child_left():
    """This process has no child left to reap."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _frames(message):
    """The frames of ``message`` as a forked child sends it, each with its
    8-byte size (from the sender bound here, which a test may replace)."""
    sent = io.BytesIO()
    _send(sent, message)
    data, frames = sent.getvalue(), []
    while data:
        end = 8 + int.from_bytes(data[:8], "little")
        frames.append(data[:end])
        data = data[end:]
    return frames
