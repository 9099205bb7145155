"""The normal quantile, the logistic function and the t and F tails, without
scipy.

``import scipy.special`` costs a CLI process about 0.3 s and 26 MB, most of
what ``fit``, ``erm`` or ``diagnose`` took on the shipped fixture, and those
subcommands need only these functions of it:

- :func:`ndtri` is Cephes ``ndtri`` (as in ``scipy.special.ndtri``),
  operation for operation in ``math``'s libm ``log`` and ``sqrt``, so it
  returns scipy's bits;
- :func:`expit` is 1 / (1 + exp(-x)) in numpy;
- :func:`t_two_sided` and :func:`f_sf` are the two-sided t and the upper F
  tail, through the regularized incomplete beta :func:`betainc`. They agree
  with ``scipy.stats`` to 1e-10 (t) and 1e-11 (F) relative, not bit for
  bit.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# Cephes ndtri's rational approximations: P0/Q0 for |y - 1/2| <= 3/8, then
# P1/Q1 and P2/Q2 in z = 1 / sqrt(-2 log y) for y above and below exp(-32).
# Cephes leaves the Q polynomials' leading 1 implicit (p1evl); 1 * x is x.
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(y0: float) -> float:
    """The standard normal quantile at ``y0``: -inf at 0, inf at 1, NaN
    outside [0, 1] and at NaN."""
    y = float(y0)
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if y < 0.0 or y > 1.0:
        return math.nan
    negate = True
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


def expit(x: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-x)); 0 where exp(-x) overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


# Lentz's stand-in for a zero denominator, and the continued fraction's
# relative tolerance (Numerical Recipes' FPMIN and EPS)
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min / _EPS


def _beta_cf(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) by the modified Lentz method
    (Numerical Recipes, 3rd ed., section 6.4); it converges in about
    sqrt(max(a, b)) steps for x < (a + 1) / (a + b + 2)."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) >= _TINY else _TINY)
    h = d
    for m in range(1, 10_000):
        m2 = 2 * m
        for num in (m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
                    -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) >= _TINY else _TINY)
            c = 1.0 + num / c
            c = c if abs(c) >= _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) <= _EPS:
            return h
    raise ArithmeticError(f"the incomplete beta I_x({a}, {b}) did not converge at x = {x}")


def betainc(a: float, b: float, x: float, y: float) -> float:
    """The regularized incomplete beta I_x(a, b) for a, b > 0 and x in
    [0, 1], given also y = 1 - x formed without that subtraction: each is the
    small argument of one of the two continued fractions, and 1 - x loses
    the low bits of a small y."""
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log(y))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, y) / b


def t_two_sided(t: float, df: float) -> float:
    """P(|T| >= |t|) for T ~ t(df): 2 * ``scipy.stats.t.sf(|t|, df)``,
    the incomplete beta I_x(df/2, 1/2) at x = df / (df + t^2)."""
    t2 = float(t) * float(t)
    if math.isnan(t2):
        return math.nan
    # 0, as scipy's, where t^2 overflows (|t| > 1.3e154)
    return betainc(0.5 * df, 0.5, df / (df + t2), t2 / (df + t2))


def f_sf(x: float, dfn: float, dfd: float) -> float:
    """P(F >= x) for F ~ F(dfn, dfd), as ``scipy.stats.f.sf``: 1 at x <= 0,
    else I_w(dfd/2, dfn/2) at w = dfd / (dfd + dfn x), and 0, as scipy's, where
    dfn x overflows."""
    x = float(x)
    if math.isnan(x):
        return math.nan
    if x <= 0.0:
        return 1.0
    p = dfn * x
    return betainc(0.5 * dfd, 0.5 * dfn, dfd / (dfd + p), p / (dfd + p))
