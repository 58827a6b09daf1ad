import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cybermodels.numerics import FitResult, Grid, argmax_int, integrate_trapezoid, least_squares_fit


class TestGrid:
    def test_node_count_and_values(self):
        g = Grid(0.0, 1.0, 0.25)
        assert g.n_nodes == 5
        assert np.allclose(g.nodes(), [0, 0.25, 0.5, 0.75, 1.0])
        assert g.last_node == pytest.approx(1.0)

    def test_float_wobble_keeps_last_node(self):
        assert Grid(0.0, 0.7, 0.1).n_nodes == 8

    @pytest.mark.parametrize("start,stop,step", [(0, 1, 0), (0, 1, -0.1), (1, 1, 0.1), (2, 1, 0.1)])
    def test_invalid(self, start, stop, step):
        with pytest.raises(ValueError):
            Grid(start, stop, step)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError, match="2 nodes"):
            Grid(0.0, 1.0, 3.0)


class TestTrapezoid:
    def test_linear_exact(self):
        assert integrate_trapezoid(lambda x: x, Grid(0, 1, 0.01)) == pytest.approx(0.5, abs=1e-14)

    def test_constant(self):
        assert integrate_trapezoid(lambda x: 1.0, Grid(0, 10, 0.5)) == pytest.approx(10.0, abs=1e-12)

    def test_quadratic_against_antiderivative(self):
        # closed form: x^3/3 over [0,1] -> 1/3
        val = integrate_trapezoid(lambda x: x * x, Grid(0, 1, 0.001))
        assert val == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_nonfinite_names_node(self):
        def f(x):
            return math.inf if x == 0.5 else 1.0

        with pytest.raises(ValueError, match="x=0.5"):
            integrate_trapezoid(f, Grid(0, 1, 0.25))

    def test_error_shrinks_quadratically(self):
        exact = 1.0 / 4.0  # integral of x^3 over [0,1]
        err_h = abs(integrate_trapezoid(lambda x: x**3, Grid(0, 1, 0.01)) - exact)
        err_h2 = abs(integrate_trapezoid(lambda x: x**3, Grid(0, 1, 0.005)) - exact)
        assert 3.5 < err_h / err_h2 < 4.5


class TestArgmaxInt:
    def test_parabola(self):
        assert argmax_int(lambda n: -((n - 5) ** 2), 0, 10) == (5, 0)

    def test_constant_ties_to_smallest(self):
        assert argmax_int(lambda n: 3.0, 1, 4) == (1, 3.0)

    def test_phishing_baseline_peak(self):
        # verified peak of the undetected-infection curve for the contemporary
        # human baseline: 26 messages, ~28%
        q = 0.015 + 0.01 - 0.015 * 0.01

        def undetected(n):
            return (1 - 0.97**n) * (1 - q) ** n

        n, value = argmax_int(undetected, 1, 200)
        assert n == 26
        assert value == pytest.approx(0.284, abs=0.001)

    def test_empty_domain(self):
        with pytest.raises(ValueError, match="lo=3 > hi=2"):
            argmax_int(lambda n: 0.0, 3, 2)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="n=2"):
            argmax_int(lambda n: math.nan if n == 2 else 0.0, 0, 5)

    @given(
        scale=st.floats(min_value=0.01, max_value=100),
        offset=st.floats(min_value=-50, max_value=50),
        peak=st.integers(min_value=-10, max_value=10),
    )
    def test_positive_affine_invariance(self, scale, offset, peak):
        def f(n):
            return -abs(n - peak) * 0.5

        base = argmax_int(f, -10, 10)
        transformed = argmax_int(lambda n: scale * f(n) + offset, -10, 10)
        assert transformed[0] == base[0]


class TestLeastSquares:
    def test_linear_exact(self):
        fit = least_squares_fit(
            lambda p, x: p[0] * x,
            [(1, 2), (2, 4), (3, 6)],
            initial=[0.5],
            bounds=[(0.0, 10.0)],
        )
        assert fit.params[0] == pytest.approx(2.0, abs=1e-6)
        assert fit.residual < 1e-12
        assert fit.converged

    def test_weibull_roundtrip(self):
        shape, scale = 0.57, 18.2
        data = [(t, -math.expm1(-((t / scale) ** shape))) for t in range(1, 121)]
        fit = least_squares_fit(
            lambda p, t: -np.expm1(-((t / p[1]) ** p[0])),
            data,
            initial=[1.0, 30.0],
            bounds=[(0.05, 10.0), (0.1, 1000.0)],
        )
        assert fit.params[0] == pytest.approx(shape, rel=0.01)
        assert fit.params[1] == pytest.approx(scale, rel=0.01)

    def test_exponential_is_weibull_shape_one(self):
        beta = 1.0 / 144.0
        data = [(t, -math.expm1(-beta * t)) for t in range(5, 400, 5)]
        fit = least_squares_fit(
            lambda p, t: -np.expm1(-((t / p[1]) ** p[0])),
            data,
            initial=[0.7, 50.0],
            bounds=[(0.05, 10.0), (0.1, 10000.0)],
        )
        assert fit.params[0] == pytest.approx(1.0, rel=0.02)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least 3"):
            least_squares_fit(lambda p, x: p[0], [(1, 1), (2, 2)], [0.0], [(-10, 10)])

    def test_initial_outside_bounds(self):
        with pytest.raises(ValueError, match="within bounds"):
            least_squares_fit(lambda p, x: p[0], [(1, 1), (2, 2), (3, 3)], [5.0], [(0, 1)])

    def test_nonfinite_model_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            least_squares_fit(
                lambda p, x: math.sqrt(p[0] - 3) if p[0] >= 3 else math.nan,
                [(1, 1), (2, 2), (3, 3)],
                [4.0],
                [(0.0, 10.0)],
            )

    @settings(max_examples=30, deadline=None)
    @given(
        slope=st.floats(min_value=-5, max_value=5),
        intercept=st.floats(min_value=-5, max_value=5),
        start=st.floats(min_value=-3, max_value=3),
    )
    def test_never_worse_than_initial(self, slope, intercept, start):
        data = [(x, slope * x + intercept + (0.1 if x == 2 else 0.0)) for x in range(5)]

        def model(p, x):
            return p[0] * x + p[1]

        initial = np.array([start, start])
        initial_sse = sum((model(initial, x) - y) ** 2 for x, y in data)
        fit = least_squares_fit(model, data, initial, [(-20, 20), (-20, 20)])
        assert fit.residual <= initial_sse + 1e-12

    def test_fit_result_rejects_negative_residual(self):
        with pytest.raises(ValueError):
            FitResult((1.0,), -0.5, 3, True)
