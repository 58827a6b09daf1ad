"""Shared numerical primitives: grid quadrature, integer argmax, a
derivative-free nonlinear least-squares fitter, and the input rules every
model shares (a finite number parsed from a file, the range rules of
``RULES``).

The fitter is a bounded Nelder-Mead simplex restarted from jittered initial
points. All fitted models in this package are smooth, cheap, and have at most
three parameters, so a simplex search converges far past the accuracy any
caller needs without hand-coded gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# Convergence is declared when the residual spread across the simplex drops
# below REL_RESIDUAL_TOL relatively, or the simplex extent below STEP_TOL.
REL_RESIDUAL_TOL = 1e-10
STEP_TOL = 1e-9
N_STARTS = 5
MAX_ITERATIONS = 4000  # per Nelder-Mead search

_JITTER_SEED = 1905  # fixed so fits are bit-for-bit reproducible across runs

# ten times the 10**6-node grids the race kernel is sized for; a grid is
# refused before numpy is asked for its nodes
MAX_GRID_NODES = 10**7


@dataclass(frozen=True)
class Grid:
    """Uniform grid over [start, start + (n-1)*step], n = floor((stop-start)/step) + 1."""

    start: float
    stop: float
    step: float

    def __post_init__(self):
        check("grid step", self.step, "must be > 0")
        if not self.stop > self.start:
            raise ValueError(f"grid stop ({self.stop}) must exceed start ({self.start})")
        # the span, not n_nodes, whose floor() overflows on an infinite stop
        if (self.stop - self.start) / self.step >= MAX_GRID_NODES:
            raise ValueError(
                f"grid stop ({self.stop}) at step ({self.step}) gives more than "
                f"{MAX_GRID_NODES} nodes"
            )
        if self.n_nodes < 2:
            raise ValueError("grid must contain at least 2 nodes")

    @property
    def n_nodes(self) -> int:
        # small slack keeps e.g. (0.7 - 0) / 0.1 = 6.999... from dropping a node
        return int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1

    @property
    def last_node(self) -> float:
        return self.start + (self.n_nodes - 1) * self.step

    def nodes(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.n_nodes)


@dataclass(frozen=True)
class FitResult:
    """Fitted parameter vector plus diagnostics from a least-squares run."""

    params: tuple[float, ...]
    residual: float
    iterations: int
    converged: bool

    def __post_init__(self):
        check("residual", self.residual, "must be >= 0")


def raise_at_first(bad, message: str, **values) -> None:
    """Raise ValueError(message) at the first True element of ``bad``, each
    ``{name}`` in the message filled from ``values`` at that element (values
    broadcast against ``bad``), so an element-wise check names what failed."""
    bad = np.asarray(bad)
    if bad.any():
        i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        at_first = {name: np.broadcast_to(v, bad.shape)[i] for name, v in values.items()}
        raise ValueError(message.format(**at_first))


def finite_float(raw: str) -> float:
    """The finite float written as ``raw``: every number read from a file
    (scenario values, CSV cells) goes through here."""
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


# rule text -> predicate; each is a comparison, so NaN fails every rule, and
# each but the seed rule (scalar only: int() takes no array) is element-wise
RULES: dict[str, Callable] = {
    "must be > 0": lambda v: v > 0,
    "must be >= 0": lambda v: v >= 0,
    "must be >= 1": lambda v: v >= 1,
    "must be in [0, 1]": lambda v: (0 <= v) & (v <= 1),
    "must be a 64-bit unsigned integer": lambda v: 0 <= v < 2**64 and v == int(v),
}


def check(name: str, value, rule: str) -> None:
    """Raise ValueError(``<name> <rule>, got <value>``) unless ``value``, a
    number or an array-like, keeps ``rule``, a key of RULES; an array is
    reported at its first breaking element."""
    try:
        ok = RULES[rule](value)
    except TypeError:  # a list or tuple: compare it as an array
        value = np.asarray(value)
        ok = RULES[rule](value)
    if ok is True or ok is np.True_:  # a number that keeps the rule
        return
    if not isinstance(ok, np.ndarray):
        raise ValueError(f"{name} {rule}, got {value}")
    if not ok.all():
        raise_at_first(~ok, f"{name} {rule}, got {{value}}", value=value)


def integrate_trapezoid(f: Callable[[float], float], grid: Grid) -> float:
    """Trapezoid-rule approximation of the integral of ``f`` over the grid span."""
    xs = grid.nodes()
    ys = np.array([float(f(x)) for x in xs])
    bad = ~np.isfinite(ys)
    if bad.any():
        raise ValueError(f"integrand is not finite at grid node x={xs[int(np.argmax(bad))]}")
    return float(grid.step * (ys.sum() - 0.5 * (ys[0] + ys[-1])))


def argmax_int(f: Callable[[int], float], lo: int, hi: int) -> tuple[int, float]:
    """Smallest n in [lo, hi] maximizing f(n); scans every point (no unimodality
    assumption), ties broken toward the smallest n."""
    if lo > hi:
        raise ValueError(f"empty search domain: lo={lo} > hi={hi}")
    best_n = lo
    best_v = -math.inf
    for n in range(lo, hi + 1):
        v = float(f(n))
        if not math.isfinite(v):
            raise ValueError(f"objective is not finite at n={n}")
        if v > best_v:
            best_n, best_v = n, v
    return best_n, best_v


def least_squares_fit(
    model: Callable[[np.ndarray, np.ndarray], np.ndarray],
    data: Sequence[tuple[float, float]],
    initial: Sequence[float],
    bounds: Sequence[tuple[float, float]],
) -> FitResult:
    """Minimize sum((model(params, x) - y)^2) over box-bounded params.

    ``model`` is vectorized: each evaluation is one call model(params, xs)
    with the whole array of x values, returning the array of predictions.
    Runs N_STARTS Nelder-Mead searches (the supplied initial point plus
    jittered copies) and keeps the best; the returned residual is never worse
    than the residual at ``initial``.
    """
    x0 = np.asarray(initial, dtype=float)
    n_params = x0.size
    if len(bounds) != n_params:
        raise ValueError(f"got {len(bounds)} bounds for {n_params} parameters")
    lo, hi = np.asarray(bounds, dtype=float).T
    if not np.isfinite([lo, hi]).all():
        raise ValueError("each bound must be finite")
    if np.any(lo > hi):
        raise ValueError("each bound must satisfy lo <= hi")
    if np.any(x0 < lo) or np.any(x0 > hi):
        raise ValueError("initial parameters must lie within bounds")
    min_points = max(3, n_params + 1)
    if len(data) < min_points:
        raise ValueError(f"need at least {min_points} data points, got {len(data)}")

    xs, ys = np.asarray(data, dtype=float).T

    def sse(params: np.ndarray) -> float:
        preds = np.asarray(model(params, xs), dtype=float)
        if preds.shape != xs.shape:  # a wrong shape raises ValueError here
            preds = np.broadcast_to(preds, xs.shape)
        r = preds - ys
        value = float(r @ r)
        if not math.isfinite(value):  # every non-finite prediction lands here
            raise_at_first(
                ~np.isfinite(preds),
                f"model evaluated to a non-finite value at x={{x}} with params={params.tolist()}",
                x=xs,
            )
        return value  # inf when finite predictions overflow the squared sum

    scale = 0.25 * (hi - lo)
    rng = np.random.default_rng(_JITTER_SEED)
    jittered = [np.clip(x0 + scale * rng.uniform(-1.0, 1.0, n_params), lo, hi)
                for _ in range(N_STARTS - 1)]
    runs = [_nelder_mead(sse, start, lo, hi) for start in [x0, *jittered]]
    params, residual, _, converged = min(runs, key=lambda run: run[1])  # first best wins ties
    total_iters = sum(run[2] for run in runs)
    return FitResult(tuple(float(p) for p in params), residual, total_iters, converged)


def _nelder_mead(fn, x0, lo, hi):
    """Nelder-Mead with candidates clipped into [lo, hi]; returns
    (best_params, best_value, iterations, converged). The simplex is one
    (n+1, n) array of vertices, sorted by value at the top of each iteration."""
    n = x0.size
    step = 0.05 * (hi - lo)

    # x0 is in the box; where x0 + step passes hi, x0 - step (5% of the width) is not below lo
    simplex = np.tile(x0, (n + 1, 1))
    up = x0 + step
    np.fill_diagonal(simplex[1:], np.where(up > hi, x0 - step, up))
    values = np.array([fn(v) for v in simplex])

    converged = False
    iters = 0
    for iters in range(1, MAX_ITERATIONS + 1):
        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]
        if values[0] == math.inf:  # every vertex overflowed: no point is better
            break

        spread = values[-1] - values[0]
        extent = float(np.max(np.abs(simplex[1:] - simplex[0])))
        if spread <= REL_RESIDUAL_TOL * max(abs(values[0]), 1e-300) or extent < STEP_TOL:
            converged = True
            break

        centroid = np.mean(simplex[:-1], axis=0)
        reflect = np.clip(centroid + (centroid - simplex[-1]), lo, hi)
        f_r = fn(reflect)
        if f_r < values[0]:
            expand = np.clip(centroid + 2.0 * (centroid - simplex[-1]), lo, hi)
            f_e = fn(expand)
            if f_e < f_r:
                simplex[-1], values[-1] = expand, f_e
            else:
                simplex[-1], values[-1] = reflect, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflect, f_r
        else:
            contract = np.clip(centroid + 0.5 * (simplex[-1] - centroid), lo, hi)
            f_c = fn(contract)
            if f_c < values[-1]:
                simplex[-1], values[-1] = contract, f_c
            else:
                simplex[1:] = np.clip(simplex[0] + 0.5 * (simplex[1:] - simplex[0]), lo, hi)
                values[1:] = [fn(v) for v in simplex[1:]]

    best = int(np.argmin(values))
    return simplex[best], float(values[best]), iters, converged
