"""``optimize.minimize``, the projected Newton loop of both engines, on small
analytic objectives that touch neither engine."""

import numpy as np
import pytest

from vcadjust import optimize
from vcadjust.errors import SingularityError

FREE = (-np.inf, np.inf)


def _quartic(c, b=0.0):
    """f(x) = sum((x - c)^4) / 4 + b'x with its gradient and Hessian.  Where
    b = 0, a Newton step shrinks every x - c by a third."""
    c = np.asarray(c, dtype=float)
    b = np.broadcast_to(np.asarray(b, dtype=float), c.shape)

    def fn(x):
        d = x - c
        return (d**4).sum() / 4 + b @ x, d**3 + b, np.diag(3 * d**2)

    return fn


def _quadratic(x):
    """f(x) = |x - 2|^2 / 2: one Newton step reaches x = 2."""
    return 0.5 * ((x - 2) ** 2).sum(), x - 2, np.eye(len(x))


class _Point:
    """A point as ``minimize`` reads it; every one solved is kept in ``seen``."""

    def __init__(self, x, fn, seen):
        seen.append(x.copy())
        self.x = x
        self.f, self.grad, self.hess = fn(x)

    def near(self, lo, gap):
        return self.x <= lo + min(gap, optimize._ACTIVE_GAP)


def _solver(fn, seen):
    return lambda x: _Point(x, fn, seen)


def test_gtol_stops_before_a_step():
    seen = []
    point = _solver(_quartic([0.0]), seen)
    start = point(np.array([0.009]))  # projected gradient 7.3e-7
    res = optimize.minimize(point, start, [FREE], maxiter=50, tol=0.0, gtol=1e-6)
    assert (res.stop, res.nit, res.nfev, res.values, res.point) == ("gradient", 0, 0, (), start)
    # 0.009 -> 0.006 -> 0.004, where the gradient 6.4e-8 is below 1e-7
    res = optimize.minimize(point, start, [FREE], maxiter=50, tol=0.0, gtol=1e-7)
    assert (res.stop, res.nit) == ("gradient", 2)
    np.testing.assert_allclose(res.point.x, [0.004], rtol=1e-12)


def test_steps_settle_until_none_moves_a_coordinate_more_than_tol():
    seen = []
    fn = _quartic([0.0, 0.0])
    point = _solver(fn, seen)
    res = optimize.minimize(point, point(np.array([1.0, -0.5])), [FREE, FREE], maxiter=100, tol=1e-3)
    moves = [np.max(np.abs(b - a)) for a, b in zip(seen, seen[1:])]
    assert res.nfev == res.nit == len(moves) == 16  # (2/3)^15 / 3 <= 1e-3 < (2/3)^14 / 3
    assert moves[-1] <= 1e-3 < min(moves[:-1])
    assert res.stop == "gradient"
    assert res.values == tuple(-fn(x)[0] for x in seen[1:])


@pytest.mark.parametrize("error", [SingularityError, np.linalg.LinAlgError])
def test_a_point_that_raises_is_a_rejected_trial(error):
    seen = []

    def point(x):  # x > 1.5 lies outside the parameter space
        if x[0] > 1.5:
            seen.append(x.copy())
            raise error("outside")
        return _Point(x, _quadratic, seen)

    res = optimize.minimize(point, _Point(np.zeros(1), _quadratic, []), [FREE], maxiter=2, tol=0.0)
    # each full step to 2 raises and its half is taken: 0 -> 1 -> 1.5
    assert [float(x[0]) for x in seen] == [2.0, 1.0, 2.0, 1.5]
    assert (res.stop, res.nit, res.nfev) == ("max_iter", 2, 4)
    assert res.values == (-0.5, -0.125)  # one per accepted step, not per trial


def test_a_coordinate_near_its_bound_moves_onto_it_and_stays():
    # x1's gradient x1^3 + 1 points at its bound 0 everywhere in x1 >= 0
    seen = []
    point = _solver(_quartic([3.0, 0.0], b=[0.0, 1.0]), seen)
    start = point(np.array([0.0, 5e-4]))  # x1 within _ACTIVE_GAP of 0
    res = optimize.minimize(point, start, [FREE, (0.0, np.inf)], maxiter=100, tol=1e-6)
    assert res.nit > 5 and res.stop == "gradient"
    assert all(x[1] == 0.0 for x in seen[1:])
    assert res.point.x[1] == 0.0
    np.testing.assert_allclose(res.point.x[0], 3.0, atol=1e-5)
