"""mpmath oracles for the BSC inverses, the Gaussian power threshold and exp·E1.

The inverses and the threshold solve their equations by Newton's method in
mpmath from the package's own float answer, which lies within a few ulps of
the root, so a handful of high-precision steps reach it; a seed that is far
off fails to converge and raises.  The BSC equations are the definitions at
50 digits: h(p) = 1 - rate (in u = 1 - 2p below rate 1/2, where 1 - rate is
not exact in 50 digits), g(d) = h(alpha conv d) - h(d) and its tangent
through (alpha, 0).  The threshold is the root of gamma_bar * I(x *
gamma_bar) = a at 45 digits.  exp(x) E1(x) is mpmath's own e1 at 50 digits.
Tests load this module with ``pytest.importorskip("mp_oracle")``, so they
skip where mpmath is missing.
"""

import math

import mpmath

DPS = 50
THRESHOLD_DPS = 45


def _newton(f, slope, x):
    for _ in range(40):
        step = f(x) / slope(x)
        x -= step
        if abs(step) <= abs(x) * mpmath.mpf(10) ** (5 - DPS):
            return x
    raise AssertionError(f"oracle Newton did not settle from {x}")


def _h(x):
    return -(x * mpmath.log(x) + (1 - x) * mpmath.log1p(-x)) / mpmath.log(2)


def _g(d, a):
    return _h(a * (1 - d) + d * (1 - a)) - _h(d)


def _g_prime(d, a):
    c = a * (1 - d) + d * (1 - a)
    return ((1 - 2 * a) * mpmath.log((1 - c) / c) - mpmath.log((1 - d) / d)) / mpmath.log(2)


def _g_second(d, a):
    c = a * (1 - d) + d * (1 - a)
    return (1 / (d * (1 - d)) - (1 - 2 * a) ** 2 / (c * (1 - c))) / mpmath.log(2)


def inverse_entropy(t, seed):
    """The p in (0, 1/2] with h(p) = t, for t a float or an mpf."""
    with mpmath.workdps(DPS):
        t = mpmath.mpf(t)
        return _newton(lambda p: _h(p) - t, lambda p: mpmath.log((1 - p) / p, 2), mpmath.mpf(seed))


def distortion_rate(rate, seed):
    """D(rate) = h^-1(1 - rate) for a float rate in (0, 1)."""
    if rate >= 0.5:
        return inverse_entropy(1.0 - rate, seed)  # exact by Sterbenz
    with mpmath.workdps(DPS):
        r = mpmath.mpf(rate)
        u = _newton(
            lambda u: (u * mpmath.atanh(u) + mpmath.log1p(-u * u) / 2) / mpmath.log(2) - r,
            lambda u: mpmath.atanh(u) / mpmath.log(2),
            1 - 2 * mpmath.mpf(seed) if seed < 0.5 else mpmath.sqrt(2 * mpmath.log(2) * r),
        )
        return (1 - u) / 2


def turning_point(alpha, seed):
    with mpmath.workdps(DPS):
        a = mpmath.mpf(alpha)
        return _newton(
            lambda d: _g(d, a) + _g_prime(d, a) * (a - d),
            lambda d: _g_second(d, a) * (a - d),
            mpmath.mpf(seed),
        )


def wyner_ziv_distortion(r, alpha, seed, dc_seed):
    """The inverse of the Wyner-Ziv rate: the chord above dc, g below it."""
    dc = turning_point(alpha, dc_seed)
    with mpmath.workdps(DPS):
        a, r = mpmath.mpf(alpha), mpmath.mpf(r)
        g_dc = _g(dc, a)
        if r <= g_dc:
            return a - r * (a - dc) / g_dc
        return _newton(lambda d: _g(d, a) - r, lambda d: _g_prime(d, a), mpmath.mpf(seed))


def broadcast_threshold(a, seed):
    """(x, De / sigma2) at a = power * gamma_bar, with x = gamma_P / gamma_bar.

    x solves f(x) = a with f(x) = (int_1^x (1/2 - 1/t) exp(-t/2) dt) /
    (x exp(-x/2)), by Newton in ln x using d ln f / d ln x =
    -(1 - x/2)(1/x + f) / f.  The stop is on the step in ln x, which is x's
    relative change: ln x itself nears 0 with a.  De / sigma2 is
    D(x) + 1 - exp(-x), as in ``bc_expected_distortion``.  A seed of 1,
    the float root for a below about 2^-55, starts from 1 - 2a instead.
    """
    with mpmath.workdps(THRESHOLD_DPS):
        a, half = mpmath.mpf(a), mpmath.mpf(1) / 2
        x = mpmath.mpf(seed) if seed < 1 else 1 - 2 * a
        for _ in range(40):
            num = (mpmath.exp(-half) - mpmath.exp(-x / 2)) - (mpmath.e1(half) - mpmath.e1(x / 2))
            level = num / (x * mpmath.exp(-x / 2))
            step = mpmath.log(level / a) * level / ((1 - x / 2) * (1 / x + level))
            x *= mpmath.exp(step)
            if abs(step) <= mpmath.mpf(10) ** (5 - THRESHOLD_DPS):
                break
        else:
            raise AssertionError(f"oracle Newton did not settle from {seed} at a = {a}")
        tail = mpmath.exp(-half) * (mpmath.e1(half) - mpmath.e1(x / 2))
        de = (mpmath.exp(-1) - tail) * x * mpmath.exp(-(x - 1) / 2) - mpmath.expm1(-x)
        return x, de


def scaled_e1(x):
    """exp(x) * E1(x) for a float or an mpf x > 0, at 50 digits."""
    with mpmath.workdps(DPS):
        x = mpmath.mpf(x)
        return mpmath.exp(x) * mpmath.e1(x)


def entropy(p):
    with mpmath.workdps(DPS):
        return _h(mpmath.mpf(p))


def ulps(got, exact):
    """|got - exact| in units of the float spacing at exact."""
    return float(abs(mpmath.mpf(got) - exact) / math.ulp(float(exact)))


def g12(x):
    return f"{float(x):.12g}"
