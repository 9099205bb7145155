"""The normal CDF and quantile, the logistic function, and the t, F and
chi-squared laws, without scipy.

``import scipy.special`` costs a CLI process about 0.17 s and 21 MB, and
every subcommand's common path needs only these functions of it. Each takes
a scalar or an array, and works on an array whole, by numpy calls and the
:func:`libm` map:

- :func:`ndtri` and :func:`ndtr` are Cephes ``ndtri`` and ``ndtr`` (as in
  ``scipy.special``), operation for operation: the rational approximations
  in numpy's basic arithmetic, which rounds exactly, and each ``log`` and
  ``exp`` through :func:`libm`, so they return scipy's bits on any CPU;
- :func:`expit` is 1 / (1 + exp(-x)) in numpy;
- :func:`t_two_sided`, :func:`t_cdf`, :func:`f_sf` and :func:`f_cdf` go
  through the regularized incomplete beta :func:`betainc`, and
  :func:`chi2_cdf` through the regularized lower incomplete gamma. The t
  and F tails agree with ``scipy.stats`` to 1e-10 and 1e-11 relative, and
  the three CDFs with ``scipy.special`` to 1e-12 absolute for df up to
  1000, not bit for bit;
- :func:`t_ppf` inverts the t tail by Newton's method.

Only gamma weight laws (``gammaincinv``) and far-tail KS p-values
(``smirnov``) still load ``scipy.special``, each inside its own branch.
"""

from __future__ import annotations

import math
import sys

import numpy as np

_EPS = sys.float_info.epsilon
# Lentz's stand-in for a zero denominator (Numerical Recipes' FPMIN)
_TINY = sys.float_info.min / _EPS


def libm(fn, x) -> np.ndarray:
    """``fn``, a ``math`` function and so the C library's, at each element of
    ``x``. numpy's own ``log``, ``log1p`` and ``exp`` run SIMD kernels that
    differ from libm in the last bit on some CPUs (AVX-512), so a value that
    must not depend on the CPU takes its transcendental functions from
    here."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _rational(mult: np.ndarray, arg: np.ndarray, coef: np.ndarray,
              branch: np.ndarray) -> np.ndarray:
    """mult * P(arg) / Q(arg), each element with the P and Q of its branch:
    ``coef[i, 0, j]`` and ``coef[i, 1, j]`` are the coefficients of arg^(8-i)
    in branch j's P and Q. Horner's scheme runs on P and Q together; a
    polynomial of lower degree is padded with leading zeros, which leave it
    exact at finite arg."""
    acc = coef[0].take(branch, axis=1)
    for c in coef[1:]:
        acc *= arg
        acc += c.take(branch, axis=1)
    return mult * acc[0] / acc[1]


def _pq_table(*branches: tuple[tuple[float, ...], tuple[float, ...]]) -> np.ndarray:
    """The (9, 2, branches) table of :func:`_rational` from each branch's
    (P, Q) coefficients, highest degree first."""
    pad = [[(0.0,) * (9 - len(p)) + p for p in pq] for pq in branches]
    return np.array(pad).transpose(2, 1, 0)


# Cephes ndtri's rational approximations: P1/Q1 and P2/Q2 in
# z = 1 / sqrt(-2 log y) for the tails above and below exp(-32), then P0/Q0
# in (y - 1/2)^2 for exp(-2) < y <= 1 - exp(-2). Cephes leaves the Q
# polynomials' leading 1 implicit (p1evl); 1 * x is x.
_NDTRI = _pq_table(
    ((4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
      4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
      -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4),
     (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
      1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
      -3.80806407691578277194e-2, -9.33259480895457427372e-4)),
    ((-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
      1.39312609387279679503e1, -1.23916583867381258016e0),
     (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
      -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
      1.59056225126211695515e1, -1.18331621121330003142e0)),
    ((3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
      1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
      3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9),
     (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
      2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
      2.89247864745380683936e-6, 6.79019408009981274425e-9)),
)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)


def ndtri(y0):
    """The standard normal quantile at ``y0``: -inf at 0, inf at 1, NaN
    outside [0, 1], and a NaN negated, as Cephes' lower-tail branch leaves
    it."""
    y0 = np.asarray(y0, dtype=float)
    y = y0.ravel()
    central = (y > _EXP_M2) & (y <= 1.0 - _EXP_M2)
    yc = np.where(central, y - 0.5, 0.0)
    arg = yc * yc
    tail = (~central & (y > 0.0) & (y < 1.0)).nonzero()[0]
    t = y[tail]
    upper = t > 0.5
    x = np.sqrt(-2.0 * libm(math.log, np.minimum(t, 1.0 - t)))
    x0 = x - libm(math.log, x) / x
    arg[tail] = 1.0 / x
    branch = central.astype(np.intp)
    if x.size and x.max() >= 8.0:  # y <= exp(-32)
        branch[tail[x >= 8.0]] = 2
    ratio = _rational(arg, arg, _NDTRI, branch)
    out = (yc + yc * ratio) * _S2PI
    x = x0 - ratio[tail]
    out[tail] = np.where(upper, x, -x)
    if tail.size + np.count_nonzero(central) < y.size:
        out = np.select([y == 0.0, y == 1.0, (y > 0.0) & (y < 1.0), y != y],
                        [-math.inf, math.inf, out, -y], math.nan)
    return out.reshape(y0.shape)[()]


# Cephes ndtr's rational approximations: erf(x) = x T(x^2) / U(x^2) for
# |x| <= 1, then erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8 and
# exp(-x^2) R(x) / S(x) above; erfc underflows to 0 where x^2 > MAXLOG.
_NDTR = _pq_table(
    ((9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4),
     (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)),
    ((2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2),
     (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)),
    ((5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0),
     (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)),
)
_SQRTH = 7.07106781186547524401e-1  # sqrt(1/2)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
# erfc's argument where exp(-x^2) has underflowed; it keeps the unused
# P(x) / Q(x) finite there
_ERFC_CAP = 27.0


def ndtr(a):
    """The standard normal CDF at ``a``: 0.5 + 0.5 erf(a / sqrt 2) for
    |a| < 1, else 0.5 erfc(|a| / sqrt 2) or 1 minus it. NaN at NaN."""
    a = np.asarray(a, dtype=float)
    x = a.ravel() * _SQRTH
    z = np.abs(x)
    zz = z * z
    small = z < 1.0  # erf's branch; erfc(z) is 1 - erf(z) there
    # erfc's exp(-z^2) where it does not underflow; 0 where it does, and at
    # NaN, which then stays NaN through arg
    big = (~small & (zz <= _MAXLOG)).nonzero()[0]
    mult = np.where(small, x, 0.0)
    mult[big] = libm(math.exp, -zz[big])
    arg = np.where(small, zz, np.minimum(z, _ERFC_CAP))
    branch = (~small).astype(np.intp)
    if big.size and z[big].max() >= 8.0:
        branch[z >= 8.0] = 2
    ratio = _rational(mult, arg, _NDTR, branch)
    half = 0.5 * np.where(small, 1.0 - np.abs(ratio), ratio)  # 0.5 erfc(z)
    out = np.where(z < _SQRTH, 0.5 + 0.5 * ratio, np.where(x > 0.0, 1.0 - half, half))
    return out.reshape(a.shape)[()]


def expit(x: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-x)); 0 where exp(-x) overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _converge(step, *state: np.ndarray) -> np.ndarray:
    """Iterate ``step(i, *state)``, which returns the new state and a mask
    of the elements now done, for i = 1, 2, ... over state arrays with one
    element per problem. An element leaves at the step that marks it done,
    with the value its first state array holds then."""
    out = np.empty_like(state[0])
    left = np.arange(out.size)
    for i in range(1, 10_000):
        *state, done = step(i, *state)
        out[left[done]] = state[0][done]
        if done.all():
            return out
        if done.any():
            left = left[~done]
            state = [s[~done] for s in state]
    raise ArithmeticError("a continued fraction or series did not converge")


def _nonzero(v: np.ndarray) -> np.ndarray:
    return np.where(np.abs(v) >= _TINY, v, _TINY)


def _beta_cf_step(m, h, c, d, a, b, x):
    """One step of the continued fraction of I_x(a, b) by the modified Lentz
    method (Numerical Recipes, 3rd ed., section 6.4); it converges in about
    sqrt(max(a, b)) steps for x < (a + 1) / (a + b + 2)."""
    m2 = 2 * m
    for num in (m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
                -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))):
        d = 1.0 / _nonzero(1.0 + num * d)
        c = _nonzero(1.0 + num / c)
        h = h * (d * c)
    return h, c, d, a, b, x, np.abs(d * c - 1.0) <= _EPS


def betainc(a: float, b: float, x, y):
    """The regularized incomplete beta I_x(a, b) for a, b > 0 and each x in
    [0, 1], given also y = 1 - x formed without that subtraction: each is the
    small argument of one of the two continued fractions, and 1 - x loses
    the low bits of a small y. NaN where x or y is NaN."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    shape = x.shape
    x, y = x.ravel(), y.ravel()
    out = np.where(x <= 0.0, 0.0, np.where(y <= 0.0, 1.0, math.nan))
    inner = np.flatnonzero((x > 0.0) & (y > 0.0))
    x, y = x[inner], y[inner]
    front = libm(math.exp, math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * libm(math.log, x) + b * libm(math.log, y))
    # the continued fraction of I_x(a, b) below x = (a + 1) / (a + b + 2),
    # else that of I_y(b, a) = 1 - I_x(a, b)
    lower = x < (a + 1.0) / (a + b + 2.0)
    a, b, x = np.where(lower, a, b), np.where(lower, b, a), np.where(lower, x, y)
    d = 1.0 / _nonzero(1.0 - (a + b) * x / (a + 1.0))
    frac = front * _converge(_beta_cf_step, d, np.ones_like(d), d, a, b, x) / a
    out[inner] = np.where(lower, frac, 1.0 - frac)
    return out.reshape(shape)[()]


def t_two_sided(t, df: float):
    """P(|T| >= |t|) for T ~ t(df): 2 * ``scipy.stats.t.sf(|t|, df)``,
    the incomplete beta I_x(df/2, 1/2) at x = df / (df + t^2); 0, as
    scipy's, where t^2 overflows (|t| > 1.3e154)."""
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        t2 = t * t
        return betainc(0.5 * df, 0.5, df / (df + t2), t2 / (df + t2))


def t_cdf(t, df: float):
    """P(T <= t) for T ~ t(df), as ``scipy.special.stdtr(df, t)``."""
    half = 0.5 * t_two_sided(t, df)
    return np.where(np.asarray(t) > 0.0, 1.0 - half, half)[()]


def f_sf(x, dfn: float, dfd: float):
    """P(F >= x) for F ~ F(dfn, dfd), as ``scipy.stats.f.sf``: 1 at x <= 0,
    else I_w(dfd/2, dfn/2) at w = dfd / (dfd + dfn x), and 0, as scipy's, where
    dfn x overflows."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        p = dfn * x
        w = betainc(0.5 * dfd, 0.5 * dfn, dfd / (dfd + p), p / (dfd + p))
    return np.where(x <= 0.0, 1.0, w)[()]


def f_cdf(x, dfn: float, dfd: float):
    """P(F <= x) for F ~ F(dfn, dfd), as ``scipy.special.fdtr(dfn, dfd, x)``
    to within 1e-16 absolute; 0 at x <= 0."""
    return 1.0 - f_sf(x, dfn, dfd)


def chi2_cdf(x, df: float):
    """P(X <= x) for X ~ chi2(df), as ``scipy.special.chdtr(df, x)``: the
    regularized lower incomplete gamma P(df/2, x/2), by its series below
    x/2 = df/2 + 1 and 1 minus Lentz's continued fraction of Q above
    (Numerical Recipes, 3rd ed., section 6.2). 0 at x <= 0, 1 at inf."""
    a = 0.5 * df
    x = 0.5 * np.asarray(x, dtype=float)
    shape = x.shape
    x = x.ravel()
    out = np.where(x <= 0.0, 0.0, np.where(x == math.inf, 1.0, math.nan))
    inner = np.flatnonzero((x > 0.0) & (x < math.inf))
    x = x[inner]
    front = libm(math.exp, a * libm(math.log, x) - x - math.lgamma(a))
    lower = x < a + 1.0
    xs, xc = x[lower], x[~lower]

    def series(i, total, term, x):
        term = term * (x / (a + i))
        total = total + term
        return total, term, x, np.abs(term) < np.abs(total) * _EPS

    def fraction(i, h, c, d, b):
        an = -i * (i - a)
        b = b + 2.0
        d = 1.0 / _nonzero(an * d + b)
        c = _nonzero(b + an / c)
        return h * (d * c), c, d, b, np.abs(d * c - 1.0) <= _EPS

    first = np.full(xs.shape, 1.0 / a)
    b = xc + 1.0 - a  # >= 2
    p = np.empty(x.shape)
    p[lower] = front[lower] * _converge(series, first, first, xs)
    p[~lower] = 1.0 - front[~lower] * _converge(fraction, 1.0 / b, np.full(b.shape, 1.0 / _TINY),
                                                 1.0 / b, b)
    out[inner] = p
    return out.reshape(shape)[()]


def t_ppf(p: float, df: float) -> float:
    """The t(df) quantile at p, as ``scipy.special.stdtrit(df, p)``, by
    Newton's method on the tail mass q = min(p, 1 - p). It starts from the
    normal quantile, which lies below the t quantile; the tail is convex
    there, so no step overshoots the root and the iterates rise to it."""
    if not 0.0 < p < 1.0:
        return -math.inf if p == 0.0 else math.inf if p == 1.0 else math.nan
    q = min(p, 1.0 - p)
    log_pdf0 = (math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df)
                - 0.5 * math.log(df * math.pi))
    t = -float(ndtri(q))
    for _ in range(2000):
        pdf = math.exp(log_pdf0 - 0.5 * (df + 1.0) * math.log1p(t * t / df))
        step = (0.5 * float(t_two_sided(t, df)) - q) / pdf
        t += step
        if abs(step) <= 1e-10 * t:
            return math.copysign(t, p - 0.5)
    raise ArithmeticError(f"the t({df}) quantile at {p} did not converge")
