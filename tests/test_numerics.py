"""The scalar numerics against 50-digit references over the float range.

Each bound follows from the conditioning of the expression as the code
evaluates it, given two facts about floating point: +, -, *, / round
correctly (relative error at most eps = 2^-53), and numpy's exp, expm1,
log and log1p are within 4 ulps (relative error at most 8 eps; absolute
at most 4 * 2^-1074 on a subnormal result).

* log1mexp(x) = log(1 - e^{-x}).  Up to log 2 it is log(z) with
  z = -expm1(-x) in (0, 1/2]: a relative error r in z moves log z by r,
  which is at most r / log 2 of |log z| >= log 2, and log adds 8 eps.
  Above log 2 it is log1p(-s) with s = e^{-x} in (0, 1/2): the relative
  condition number of log1p(-s) in s, s / ((1 - s) |log(1 - s)|), grows
  with s to 1 / log 2 < 1.45 at s = 1/2, and log1p adds 8 eps.  Both give
  8 eps / log 2 + 8 eps < 20 eps relative; when e^{-x} is subnormal
  (x > 708) add 2^-1071 absolute for the two subnormal roundings.
* ztp_mean(x) = x / -expm1(-x): expm1's 8 eps plus the division's eps,
  so 10 eps relative; the quotient is at least 1, never subnormal.
* x + log1mexp(x), the ELBO's per-entry term: the sum of x (exact) and
  L = log1mexp(x) (within 20 eps |L| + a, a = 2^-1071) is off by at most
  20 eps |L| + a + eps (|x| + (1 + 20 eps) |L| + a), below
  22 eps (|x| + |L|) + 2 a.  Relative to the result that is the sum's
  condition number (|x| + |L|) / |x + L|, which is unbounded at
  x = log 2, where x + L = 0.
"""

import mpmath
import numpy as np

from ordnmf.inference import ztp_mean
from ordnmf.model import log1mexp

from oracles import elbo_entry_mp, log1mexp_mp, ztp_mean_mp

EPS = 2.0 ** -53
SUBNORMAL = 2.0 ** -1071  # two 4-ulp errors on a subnormal result
LOG2 = float(np.log(2.0))
# log-spaced from 1e-300 to 1e300, plus both sides of log1mexp's switch at
# log 2, the oracle's at 1 and the start of exp's subnormal range
GRID = np.unique(np.concatenate((
    np.logspace(-300, 300, 1201),
    [np.nextafter(LOG2, 0), LOG2, np.nextafter(LOG2, 1), 0.69, 0.7,
     np.nextafter(1.0, 0), 1.0, 36.0, 708.0, 708.5, 709.0, 745.0, 746.0])))


def check(got, ref, bound):
    """|got - ref| <= bound at every grid point, for float results and mpf
    references; the message names the worst point."""
    err = np.array([float(abs(mpmath.mpf(float(g)) - r))
                    for g, r in zip(got, ref)])
    j = np.argmax(err / bound)
    assert np.all(err <= bound), (f"x = {GRID[j]!r}: error {err[j]:.3g} "
                                  f"> bound {bound[j]:.3g}")


def test_log1mexp_within_its_conditioning():
    ref = [log1mexp_mp(x) for x in GRID]
    bound = 20 * EPS * np.abs(np.array([float(r) for r in ref])) + SUBNORMAL
    check(log1mexp(GRID), ref, bound)


def test_ztp_mean_within_its_conditioning():
    ref = [ztp_mean_mp(x) for x in GRID]
    check(ztp_mean(GRID), ref, 10 * EPS * np.array([float(r) for r in ref]))


def test_elbo_entry_within_its_conditioning():
    # as compute_elbo forms it: log1mexp, then x added in place
    got = log1mexp(GRID)
    got += GRID
    ref = [elbo_entry_mp(x) for x in GRID]
    L = np.abs(np.array([float(log1mexp_mp(x)) for x in GRID]))
    check(got, ref, 22 * EPS * (GRID + L) + 2 * SUBNORMAL)

