"""Shared fixtures and generators for the test suite."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from funnelsim.controller import AvailabilitySchedule
from funnelsim.reference import ReferenceSignal
from funnelsim.simulator import ManualDesign, integrate
from funnelsim.sysmodel import NormalForm

# One profile for every property test: the same examples on every run, no
# per-example deadline, and tmp_path and capsys shared across examples.
settings.register_profile(
    "funnelsim", derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])
settings.load_profile("funnelsim")


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


def random_normal_form(rng, m_max=2, r_max=3, k_max=2, allow_negative=True,
                       with_internal=None):
    """Draw a chain-plus-internal system with controlled magnitudes.

    Coefficients are kept moderate so that downstream feasibility constants
    stay inside floating-point range.  The internal matrix is shifted to be
    decisively Hurwitz.
    """
    m = int(rng.integers(1, m_max + 1))
    r = int(rng.integers(1, r_max + 1))
    if with_internal is None:
        k = int(rng.integers(0, k_max + 1))
    else:
        k = int(with_internal)
    R = [rng.uniform(-0.6, 0.6, (m, m)) for _ in range(r)]
    G = rng.uniform(-0.25, 0.25, (m, m))
    Gamma = (0.6 + rng.uniform(0.0, 1.0)) * np.eye(m) + G
    if allow_negative and rng.uniform() < 0.3:
        Gamma = -Gamma
    if k > 0:
        Q = rng.uniform(-0.8, 0.8, (k, k))
        shift = max(np.linalg.eigvals(Q).real.max(), 0.0)
        Q -= (shift + rng.uniform(0.4, 1.2)) * np.eye(k)
        S = rng.uniform(-0.5, 0.5, (m, k))
        P = rng.uniform(-0.5, 0.5, (k, m))
    else:
        Q = np.zeros((0, 0))
        S = np.zeros((m, 0))
        P = np.zeros((0, m))
    return NormalForm(R=R, S=S, Gamma=Gamma, Q=Q, P=P,
                      chain0=np.zeros((r, m)), eta0=np.zeros(k))


def coast(nf, chain0, eta0, horizon, opts=None):
    """Open-loop run of nf from (chain0, eta0) over [0, horizon]: integrate
    under the one dropout (0, horizon], where the input is zero and no
    funnel is read, with a zero reference."""
    nf = dataclasses.replace(nf, chain0=chain0, eta0=eta0)
    sched = AvailabilitySchedule([(0.0, horizon)], horizon)
    no_terms = np.zeros((nf.m, 0))
    return integrate(nf, None, ManualDesign(None), sched,
                     ReferenceSignal(np.zeros(nf.m), no_terms, no_terms),
                     opts=opts)
