"""Session-wide fixtures: the heavy N=1000, 20-replica simulations shared
by the acceptance criteria, each computed once.  The paper and BBP replicas
are drawn once and serve both the aggregate and the separation checks."""

import pytest

from spikelab import verify
from spikelab.ensemble import SpikedModelSpec
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
def paper_samples():
    return list(verify.replicas(PAPER_SPEC, 20))


@pytest.fixture(scope="session")
def bbp_samples():
    return list(verify.replicas(BBP_SPEC, 20))


@pytest.fixture(scope="session")
def paper_sim(paper_samples):
    return verify.aggregate(PAPER_SPEC, paper_samples)


@pytest.fixture(scope="session")
def bbp_sim(bbp_samples):
    return verify.aggregate(BBP_SPEC, bbp_samples)


@pytest.fixture(scope="session")
def phase_sim():
    return verify.run(PHASE_SPEC, 20)
