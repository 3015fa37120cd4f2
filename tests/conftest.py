"""Session-wide fixtures: the heavy N=1000, 20-replica simulations shared
by the acceptance criteria, each computed once."""

import numpy as np
import pytest

from spikelab import verify
from spikelab.ensemble import SpikedModelSpec, draw_sample
from spikelab.measure import AtomicMeasure

TWO_POINT = AtomicMeasure(((1.0, 0.5), (-1.0, 0.5)))
DELTA0 = AtomicMeasure(((0.0, 1.0),))
DELTA1 = AtomicMeasure(((1.0, 1.0),))

PAPER_SPEC = SpikedModelSpec(
    kind="additive_wigner",
    nu=TWO_POINT,
    spikes=((2.0, 1), (1.5, 1), (0.0, 1)),
    N=1000,
    seed=20260814,
    sigma2=0.5,
)

BBP_SPEC = SpikedModelSpec(
    kind="multiplicative_wishart",
    nu=DELTA1,
    spikes=((3.0, 1),),
    N=1000,
    seed=31337,
    c=1.0,
)

PHASE_SPEC = SpikedModelSpec(
    kind="additive_wigner",
    nu=DELTA0,
    spikes=((1.5, 1),),
    N=1000,
    seed=271828,
    sigma2=1.0,
)


@pytest.fixture(scope="session")
def paper_sim():
    return verify.run(PAPER_SPEC, 20, expect_sticking={1})


@pytest.fixture(scope="session")
def bbp_sim():
    return verify.run(BBP_SPEC, 20)


@pytest.fixture(scope="session")
def phase_sim():
    return verify.run(PHASE_SPEC, 20)


def _replica_samples(spec, reps):
    """The replicas verify.run draws for ``spec``: same seeds, same order."""
    return [
        draw_sample(spec, np.random.default_rng(child))
        for child in np.random.SeedSequence(spec.seed).spawn(reps)
    ]


@pytest.fixture(scope="session")
def paper_samples():
    return _replica_samples(PAPER_SPEC, 20)


@pytest.fixture(scope="session")
def bbp_samples():
    return _replica_samples(BBP_SPEC, 20)
