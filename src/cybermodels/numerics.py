"""Shared numerical primitives: grid quadrature, integer argmax, and a
derivative-free nonlinear least-squares fitter.

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

_JITTER_SEED = 1905  # fixed so fits are bit-for-bit reproducible across runs


@dataclass(frozen=True)
class Grid:
    """Uniform grid over [start, start + (n-1)*step], n = floor((stop-start)/step) + 1."""

    start: float
    stop: float
    step: float

    def __post_init__(self):
        if not (isinstance(self.step, (int, float)) and self.step > 0):
            raise ValueError(f"grid step must be > 0, got {self.step}")
        if not self.stop > self.start:
            raise ValueError(f"grid stop ({self.stop}) must exceed start ({self.start})")
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
        if self.residual < 0:
            raise ValueError("residual (sum of squared errors) cannot be negative")


def raise_at_first(bad, message: str, **values) -> None:
    """Raise ValueError(message) at the first True element of ``bad``, each
    ``{name}`` in the message filled from ``values`` at that element (values
    broadcast against ``bad``), so an element-wise check names what failed."""
    bad = np.asarray(bad)
    if bad.any():
        i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        at_first = {name: np.broadcast_to(v, bad.shape)[i] for name, v in values.items()}
        raise ValueError(message.format(**at_first))


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
    max_iterations: int = 4000,
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
    if np.any(lo > hi):
        raise ValueError("each bound must satisfy lo <= hi")
    if np.any(x0 < lo) or np.any(x0 > hi):
        raise ValueError("initial parameters must lie within bounds")
    min_points = max(3, n_params + 1)
    if len(data) < min_points:
        raise ValueError(f"need at least {min_points} data points, got {len(data)}")

    xs, ys = np.asarray(data, dtype=float).T

    def sse(params: np.ndarray) -> float:
        preds = np.broadcast_to(np.asarray(model(params, xs), dtype=float), xs.shape)
        if not np.all(np.isfinite(preds)):
            bad = int(np.argmax(~np.isfinite(preds)))
            raise ValueError(
                f"model evaluated to a non-finite value at x={xs[bad]} with params={params.tolist()}"
            )
        r = preds - ys
        return float(r @ r)

    scale = np.where(np.isfinite(hi - lo), 0.25 * (hi - lo), np.maximum(1.0, np.abs(x0)))
    rng = np.random.default_rng(_JITTER_SEED)
    starts = [x0]
    for _ in range(N_STARTS - 1):
        starts.append(np.clip(x0 + scale * rng.uniform(-1.0, 1.0, n_params), lo, hi))

    best: tuple[np.ndarray, float, bool] | None = None
    total_iters = 0
    for start in starts:
        p, v, iters, conv = _nelder_mead(sse, start, lo, hi, max_iterations)
        total_iters += iters
        if best is None or v < best[1]:
            best = (p, v, conv)
    params, residual, converged = best
    return FitResult(tuple(float(p) for p in params), residual, total_iters, converged)


def _nelder_mead(fn, x0, lo, hi, max_iterations):
    """Nelder-Mead with candidates clipped into [lo, hi]; returns
    (best_params, best_value, iterations, converged)."""
    n = x0.size
    span = np.where(np.isfinite(hi - lo), hi - lo, np.maximum(1.0, np.abs(x0)) * 2)
    step = 0.05 * span

    simplex = [np.clip(x0, lo, hi)]
    for i in range(n):
        v = simplex[0].copy()
        v[i] += step[i]
        if v[i] > hi[i]:
            v[i] = simplex[0][i] - step[i]
        simplex.append(np.clip(v, lo, hi))
    values = [fn(v) for v in simplex]

    converged = False
    iters = 0
    for iters in range(1, max_iterations + 1):
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]

        spread = values[-1] - values[0]
        extent = max(float(np.max(np.abs(v - simplex[0]))) for v in simplex[1:])
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
                for i in range(1, n + 1):
                    simplex[i] = np.clip(simplex[0] + 0.5 * (simplex[i] - simplex[0]), lo, hi)
                    values[i] = fn(simplex[i])

    order = np.argsort(values, kind="stable")
    return simplex[order[0]], values[order[0]], iters, converged
