import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cybermodels.numerics import (
    MAX_GRID_NODES,
    RULES,
    FitResult,
    Grid,
    _nelder_mead,
    argmax_int,
    check,
    integrate_trapezoid,
    least_squares_fit,
)


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

    def test_numpy_integer_step(self):
        assert Grid(0.0, 10.0, np.int64(1)).n_nodes == 11

    @pytest.mark.parametrize("step", [math.nan, 0])
    def test_step_text(self, step):
        with pytest.raises(ValueError) as excinfo:
            Grid(0.0, 1.0, step)
        assert str(excinfo.value) == f"grid step must be > 0, got {step}"

    # only the Grid is built, never its nodes, so nothing large is allocated
    def test_node_limit(self):
        assert Grid(0.0, 250_000.0, 0.25).n_nodes == 10**6 + 1
        assert Grid(0.0, MAX_GRID_NODES - 1.0, 1.0).n_nodes == MAX_GRID_NODES
        with pytest.raises(ValueError) as excinfo:
            Grid(0.0, float(MAX_GRID_NODES), 1.0)
        assert str(excinfo.value) == (
            f"grid stop (10000000.0) at step (1.0) gives more than {MAX_GRID_NODES} nodes"
        )
        with pytest.raises(ValueError, match=r"^grid stop \(1e\+30\) at step \(0\.25\)"):
            Grid(0.0, 1e30, 0.25)
        with pytest.raises(ValueError, match=r"^grid stop \(inf\) at step \(1\.0\)"):
            Grid(0.0, math.inf, 1.0)


class TestRangeRules:
    @pytest.mark.parametrize("rule,inside,outside", [
        ("must be > 0", [5e-324, 1.0], [0.0, -1.0]),
        ("must be >= 0", [0.0, -0.0, 1.0], [-5e-324, -1.0]),
        ("must be >= 1", [1.0, 2.0], [0.9999999999999999, 0.0]),
        ("must be in [0, 1]", [0.0, 0.5, 1.0], [-5e-324, 1.0000000000000002]),
        ("must be a 64-bit unsigned integer", [0, 2**64 - 1, 7.0], [-1, 2**64, 1.5]),
    ])
    def test_rule_bounds(self, rule, inside, outside):
        for value in inside:
            check("x", value, rule)
        for value in outside:
            with pytest.raises(ValueError) as excinfo:
                check("x", value, rule)
            assert str(excinfo.value) == f"x {rule}, got {value}"

    @pytest.mark.parametrize("rule", list(RULES))
    def test_nan_breaks_every_rule(self, rule):
        with pytest.raises(ValueError) as excinfo:
            check("x", math.nan, rule)
        assert str(excinfo.value) == f"x {rule}, got nan"

    @pytest.mark.parametrize("rule,value,bad", [
        ("must be > 0", [[1.0, 2.0], [0.0, -1.0]], "0.0"),
        ("must be >= 0", (3, -1, -2), "-1"),
        ("must be >= 1", [1.0, math.nan, 0.0], "nan"),
        ("must be in [0, 1]", np.array([[0.5, 1.0], [0.5, 1.5]]), "1.5"),
    ])
    def test_array_reported_at_its_first_breaking_element(self, rule, value, bad):
        with pytest.raises(ValueError) as excinfo:
            check("x", value, rule)
        assert str(excinfo.value) == f"x {rule}, got {bad}"
        check("x", np.ones((2, 2)), rule)

    @settings(max_examples=300, deadline=None)
    @given(
        rule=st.sampled_from([r for r in RULES if r != "must be a 64-bit unsigned integer"]),
        value=st.one_of(st.floats(), st.integers(-(2**63), 2**63 - 1)),
    )
    def test_a_number_and_its_one_element_array_agree(self, rule, value):
        texts = []
        for candidate in (value, np.array([value])):
            try:
                check("x", candidate, rule)
                texts.append(None)
            except ValueError as exc:
                texts.append(str(exc))
        assert texts[0] == texts[1]


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

    def test_one_bound_per_parameter(self):
        with pytest.raises(ValueError, match="^got 2 bounds for 1 parameters$"):
            least_squares_fit(
                lambda p, x: p[0], [(1, 1), (2, 2), (3, 3)], [0.5], [(0, 1), (0, 1)]
            )

    def test_bound_with_lo_above_hi(self):
        with pytest.raises(ValueError, match="^each bound must satisfy lo <= hi$"):
            least_squares_fit(lambda p, x: p[0], [(1, 1), (2, 2), (3, 3)], [0.5], [(1, 0)])

    @pytest.mark.parametrize("bound", [(0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan)])
    def test_non_finite_bound(self, bound):
        with pytest.raises(ValueError, match="^each bound must be finite$"):
            least_squares_fit(lambda p, x: p[0], [(1, 1), (2, 2), (3, 3)], [0.5], [bound])

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_message_names_the_x_and_params(self, bad):
        with pytest.raises(
            ValueError,
            match=re.escape("non-finite value at x=2.0 with params=[1.5]"),
        ):
            least_squares_fit(
                lambda p, x: np.where(x == 2.0, bad, p[0] * x),
                [(1, 1), (2, 2), (3, 3)],
                [1.5],
                [(0.0, 10.0)],
            )

    @pytest.mark.parametrize("shape", [(3, 1), (2,)])
    def test_model_of_wrong_shape_raises_value_error(self, shape):
        with pytest.raises(ValueError):
            least_squares_fit(
                lambda p, x: np.full(shape, p[0]),
                [(1, 1), (2, 2), (3, 3)],
                [1.5],
                [(0.0, 10.0)],
            )

    def test_scalar_model_is_broadcast_over_the_data(self):
        fit = least_squares_fit(
            lambda p, x: p[0], [(1, 1), (2, 2), (3, 3)], [1.5], [(0.0, 10.0)]
        )
        assert fit.params[0] == pytest.approx(2.0, abs=1e-6)

    def test_overflowing_squares_of_finite_predictions_do_not_raise(self):
        # At the initial point, and only there, every prediction is finite
        # (about 1e200) but the squared sum overflows to inf; the search moves
        # on and fits y = 2x.
        def model(p, x):
            return (1e200 if p[0] == 0.5 else p[0]) * x

        with np.errstate(over="ignore"):
            fit = least_squares_fit(model, [(1, 2), (2, 4), (3, 6)], [0.5], [(0.0, 10.0)])
        assert fit.params[0] == pytest.approx(2.0, abs=1e-6)
        assert fit.residual < 1e-12

    def test_start_whose_every_vertex_overflows_is_dropped_not_converged(self):
        # Below p = 1 every prediction is about 1e200, so the squared sum is
        # inf; three of the four jittered starts clip to 0, where both
        # vertices are inf, and the first start still fits y = 2x.
        def model(p, x):
            return (1e200 if p[0] < 1 else p[0]) * x

        data = [(x, 2.0 * x) for x in range(1, 6)]
        with np.errstate(over="ignore"):
            fit = least_squares_fit(model, data, [0.5], [(0.0, 10.0)])
        assert fit.params == (2.0,)
        assert fit.residual == 0.0

    def test_nelder_mead_on_an_infinite_objective_stops_unconverged(self):
        params, value, _, converged = _nelder_mead(
            lambda p: math.inf, np.array([0.5]), np.array([0.0]), np.array([10.0])
        )
        assert value == math.inf
        assert not converged
        assert 0.0 <= params[0] <= 10.0

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
        with pytest.raises(ValueError) as excinfo:
            FitResult((1.0,), -0.5, 3, True)
        assert str(excinfo.value) == "residual must be >= 0, got -0.5"
        with pytest.raises(ValueError, match="^residual must be >= 0, got nan$"):
            FitResult((1.0,), math.nan, 3, True)
