"""The O(N) race kernel against a correctly rounded reference, and its
properties over extreme but valid inputs.

The reference is the midpoint sum the kernel evaluates, written out in the
test: development cell masses from scalar ``math.expm1`` times the deployment
CDF from each cell midpoint, summed with ``math.fsum``. Both P and 1 - P are
checked, since the exploitable fraction multiplies 1 - P, which cancels where
P nears 1.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cybermodels.numerics import Grid
from cybermodels.patchrace import (
    DeploymentParams,
    ExploitCurveParams,
    PatchRaceScenario,
    WeibullParams,
    exploitable_fraction,
    patched_fraction,
    race_sweep,
)

CASES = {
    "baseline": PatchRaceScenario(),
    "deploy_5x": PatchRaceScenario(deploy_speedup=5.0),
    "k_0.05": PatchRaceScenario(dev=WeibullParams(0.05, 18.2)),
    "k_20": PatchRaceScenario(dev=WeibullParams(20.0, 18.2)),
    "rate_25_per_day": PatchRaceScenario(dep=DeploymentParams(5.0), deploy_speedup=5.0),
    "rate_1e-5_per_day": PatchRaceScenario(dep=DeploymentParams(1e-5)),
    # P nears 1 at late days: the P recursion alone drifts above 1 here
    "k_1_rate_1_grid_0.1": PatchRaceScenario(
        dev=WeibullParams(1.0, 18.2), dep=DeploymentParams(1.0), grid=Grid(0.0, 730.0, 0.1)
    ),
}
NODES = (0.25, 10.0, 55.0, 365.0, 730.0)
OFF_GRID = (0.1, 3.3, 100.1, 364.9, 729.9)


def fsum_reference(s, t):
    """(P, 1 - P) at day t, each rounded once from the exact midpoint sum."""
    rate, nodes = s.effective_deploy_rate, s.grid.nodes().tolist()

    def cdf(x):
        return -math.expm1(-((x / s.dev.scale_days) ** s.dev.shape))

    terms = [
        (cdf(b) - cdf(a)) * -math.expm1(-rate * (t - 0.5 * (a + b)))
        for a, b in zip(nodes, nodes[1:])
        if t > 0.5 * (a + b)
    ]
    return math.fsum(terms), math.fsum([1.0, *(-x for x in terms)])


def test_fsum_reference_at_nodes_and_between_them():
    for name, s in CASES.items():
        days = np.array(NODES + OFF_GRID)
        for t, got in zip(days.tolist(), patched_fraction(s, days).tolist()):
            ref, ref_unpatched = fsum_reference(s, t)
            assert abs(got - ref) <= 1e-13 * ref, (name, t, got, ref)
            assert abs((1.0 - got) - ref_unpatched) <= 1e-14, (name, t, got, ref)


# exploit amplitude that puts the curve's peak exactly at its bound of 1
_DEFAULT_CURVE = ExploitCurveParams()
_PEAK_AMPLITUDE = _DEFAULT_CURVE.amplitude / _DEFAULT_CURVE.peak_value


@settings(max_examples=25, deadline=None)
@given(
    shape=st.floats(0.05, 20.0),
    rate=st.floats(1e-5, 5.0),
    speedup=st.floats(1.0, 5.0),
    step=st.sampled_from([0.1, 0.25, 1.0, 2.0]),
)
@example(shape=0.57, rate=5.0, speedup=5.0, step=730.0 / 10**6)
def test_extreme_inputs_stay_monotone_probabilities(shape, rate, speedup, step):
    s = PatchRaceScenario(
        dev=WeibullParams(shape, 18.2),
        dep=DeploymentParams(rate),
        exploit=ExploitCurveParams(amplitude=_PEAK_AMPLITUDE),
        deploy_speedup=speedup,
        grid=Grid(0.0, 730.0, step),
    )
    sweep = race_sweep(s)
    patched = sweep.column("patched_fraction")
    assert np.all(np.isfinite(patched))
    assert np.all((0.0 <= patched) & (patched <= 1.0))
    assert np.all(np.diff(patched) >= -1e-12)
    exploitable = sweep.column("exploitable_fraction")
    assert np.all((0.0 <= exploitable) & (exploitable <= 1.0))
    days = np.array([step, 100.0, 365.0 + step / 3, s.grid.last_node])
    together = patched_fraction(s, days)
    for i, t in enumerate(days.tolist()):
        assert patched_fraction(s, t) == together[i]
    node = int(round(100.0 / step))
    assert patched_fraction(s, float(sweep.column("t")[node])) == patched[node]
    assert exploitable_fraction(s, float(sweep.column("t")[node])) == exploitable[node]
