import dataclasses

import numpy as np
import pytest

import stoqg.dynamics
from stoqg import Basis


@pytest.fixture(scope="session")
def basis16():
    return Basis(16, 1.0)


@pytest.fixture(scope="session")
def basis8():
    return Basis(8, 1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture()
def noise_fault(monkeypatch):
    """`noise_fault(scale)` mis-scales the solver's noise for the rest of the test.

    Only the stepper's OU transition std is scaled; the analytic oracles in
    `stoqg.noise` and `stoqg.analysis` keep the true spectrum. The patch lives
    in this process (a spawned or forkserver worker would not see it), so a
    faulted run keeps to one worker.
    """
    exact = stoqg.dynamics.ou_transition_std

    def inject(scale: float):
        monkeypatch.setattr(stoqg.dynamics, "ou_transition_std", lambda *args: scale * exact(*args))

    return inject


@pytest.fixture()
def rate_fault(monkeypatch):
    """`rate_fault(delta)` runs the solver at the Ekman rate r + delta for the rest of the test.

    Only `_Stepper` sees the shifted rate; `estimate_enstrophy` and the law in
    `stoqg.noise` keep the config's r. Like `noise_fault`, the patch lives in
    this process, so a faulted run keeps to one worker.
    """
    exact = stoqg.dynamics._Stepper

    def inject(delta: float):
        def shifted(params, spectrum, dt):
            return exact(dataclasses.replace(params, r=params.r + delta), spectrum, dt)

        monkeypatch.setattr(stoqg.dynamics, "_Stepper", shifted)

    return inject
