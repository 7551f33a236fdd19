"""Named parameter packs for the benchmark designs.

The numeric values mirror the published simulation setups; units are
treated as abstract but internally consistent scales per instance.  The
delay cap of the wired design is stored in seconds.  Arrival statistics of
the effective-capacity design and the load model of the provisioning design
are not part of the published setups: the former carries documented
defaults, the latter stays a required field (`paper-ex5` is therefore a
template builder, not a registry entry).
"""

from __future__ import annotations

from dataclasses import replace

from ..distributions import ConstantVec
from .cloud import CloudProvisioningInstance
from .effective_capacity import EffectiveCapacityInstance
from .ergodic import Mg1ErgodicInstance
from .outage import OutageInstance
from .wired import Mg1WiredInstance

PSI_WEIGHTS = (1.0, 1.5, 2.0)
PHI_WEIGHTS = (10.0, 15.0, 20.0)


def paper_ex1(**overrides) -> Mg1WiredInstance:
    base = Mg1WiredInstance(
        capacities=(100.0, 200.0, 500.0),
        lambda_min=0.1,
        lambda_max=(5.0, 7.0, 9.0),
        lambda_cap=15.0,
        d_max=0.05,
        mean_lengths=(15.0, 20.0, 35.0),
        max_lengths=(20.0, 30.0, 60.0),
        psi_weights=PSI_WEIGHTS,
        phi_weights=PHI_WEIGHTS,
        name="paper-ex1",
    )
    return replace(base, **overrides) if overrides else base


def paper_ex2(antennas: int = 5, **overrides) -> Mg1ErgodicInstance:
    base = Mg1ErgodicInstance(
        bandwidths=(10.0, 10.0, 10.0),
        p_min=14.0,
        p_max=100.0,
        lambda_min=0.1,
        lambda_max=15.0,
        lambda_cap=37.0,
        r_min=35.0,
        fading_lower=0.25,
        antennas=antennas,
        psi_weights=PSI_WEIGHTS,
        phi_weights=PHI_WEIGHTS,
        varsigma_eps=0.95,
        name=f"paper-ex2-k{antennas}",
    )
    return replace(base, **overrides) if overrides else base


def paper_ex3(**overrides) -> OutageInstance:
    base = OutageInstance(
        bandwidths=(100.0, 100.0, 100.0),
        rates=(30.0, 35.0, 40.0),
        p_min=10.0,
        p_max=100.0,
        lambda_min=0.1,
        lambda_max=25.0,
        lambda_cap=45.0,
        sharpness=1.0,
        fading_lower=0.25,
        psi_weights=PSI_WEIGHTS,
        phi_weights=PHI_WEIGHTS,
        name="paper-ex3",
    )
    return replace(base, **overrides) if overrides else base


def paper_ex4(**overrides) -> EffectiveCapacityInstance:
    # Arrival statistics are not pinned by the published setup; the defaults
    # keep the QoS exponent positive over the whole power box.
    base = EffectiveCapacityInstance(
        bandwidths=(100.0, 100.0, 100.0),
        p_min=0.1,
        p_max=0.9,
        delay_target=0.5,
        arrival_means=(5.0, 5.0, 5.0),
        arrival_variances=(4.0, 4.0, 4.0),
        channel_means=(0.8, 0.9, 1.0),
        psi_weights=PSI_WEIGHTS,
        phi_weights=PHI_WEIGHTS,
        name="paper-ex4",
    )
    return replace(base, **overrides) if overrides else base


def paper_ex5(load_dist=None, **overrides) -> CloudProvisioningInstance:
    """Template for the provisioning design; the load model is required.

    The placeholder values below (prices, subscriber rates, bounds) are
    documented defaults, not published numbers.
    """
    if load_dist is None:
        load_dist = ConstantVec([1.0, 1.0, 1.0])
    base = CloudProvisioningInstance(
        prices=(1.0, 2.0, 4.0),
        subscriber_rates=(10.0, 6.0, 3.0),
        maintenance_rate=0.1,
        tier_lower=0.5,
        tier_upper=2.0,
        r_bounds=(0.5, 10.0),
        c_bounds=(5.0, 50.0),
        load_dist=load_dist,
        name="paper-ex5",
    )
    return replace(base, **overrides) if overrides else base


PRESETS = {
    "paper-ex1": paper_ex1,
    "paper-ex2-k5": lambda **kw: paper_ex2(antennas=5, **kw),
    "paper-ex2-k10": lambda **kw: paper_ex2(antennas=10, **kw),
    "paper-ex3": paper_ex3,
    "paper-ex4": paper_ex4,
}


def get_preset(name: str, overrides: dict | None = None):
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return PRESETS[name](**(overrides or {}))
