"""Self-test of the reference stepper.  Run: python3 -m pytest perfbench"""

import math

import refstep


def test_zero_noise_matches_deterministic_recursion():
    # With sigma = 0 the update is y_next = y (1 - k dt) + k l dt, whose
    # closed form is y_n = l + (x0 - l) (1 - k dt)^n.
    k, l, a, x0, n, t_end = 1.5, 0.8, 0.75, 2.0, 64, 1.0
    dt = t_end / n
    ys = refstep.path(20240601, 3, n, t_end, k, l, 0.0, a, x0)
    assert len(ys) == n + 1
    for i, y in enumerate(ys):
        assert math.isclose(y, l + (x0 - l) * (1.0 - k * dt) ** i, rel_tol=1e-12)


def test_increments_follow_stream_contract():
    a = refstep.increments(5, 7, 16, 0.25)
    assert a == refstep.increments(5, 7, 16, 0.25)
    assert a != refstep.increments(5, 8, 16, 0.25)
    assert len(a) == 16
