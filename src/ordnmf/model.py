"""Observation model for ordinal classes driven by a non-negative intensity.

An ordinal class y in {0, ..., V} arises by quantizing lambda * eps against
raw thresholds 0 < b_0 < ... < b_{V-1} < +inf, where eps is multiplicative
inverse-gamma IG(1, 1) noise.  With theta_v = 1 / b_v the class c.d.f. is
P[y <= v | lambda] = exp(-lambda * theta_v), which is the only fact the rest
of the package relies on.  Everything here is a pure function of lambda and
the threshold sequence.
"""

import numpy as np

from .errors import NumericalError

_LOG2 = float(np.log(2.0))


def log1mexp(x, out=None):
    """Stable log(1 - exp(-x)) for x > 0, written into out (an array of
    x's shape other than x) if given.

    Uses log(-expm1(-x)) below log 2 and log1p(-exp(-x)) above, which
    avoids cancellation at both ends of the range.  Both are computed over
    all of x and then merged: gathering each one's entries costs more when
    small and large x interleave.
    """
    x = np.asarray(x, dtype=float)
    if x.size and x.min() <= 0:
        raise ValueError("log1mexp requires x > 0")
    out = np.negative(x, out=np.empty_like(x) if out is None else out)
    above = np.exp(out, out=np.empty_like(x))
    np.log(np.negative(np.expm1(out, out=out), out=out), out=out)
    with np.errstate(divide="ignore"):  # log1p(-1) at tiny x, not kept
        np.log1p(np.negative(above, out=above), out=above)
    np.copyto(out, above, where=x > _LOG2)
    return out if out.ndim else float(out)


class ThresholdSequence:
    """Decreasing finite positive sequence theta_0 > ... > theta_{V-1} > 0.

    theta is the canonical representation (theta_V = 0 and theta_{-1} = +inf
    are implicit).  Derived views:

    * delta: positive decrements, delta_v = theta_{v-1} - theta_v for
      v in {1..V}, so theta_v = sum(delta[v+1:]).
    * delta_by_class: the decrements indexed by class v in {0..V}, with
      delta_0 = theta_{-1} - theta_0 = +inf prepended.

    Instances are immutable and safe to share across threads.
    """

    def __init__(self, theta):
        theta = np.array(theta, dtype=float)  # a copy: frozen below
        if theta.ndim != 1 or theta.size < 1:
            raise ValueError("theta must be a non-empty 1-d sequence")
        if not np.all((theta > 0) & np.isfinite(theta)):
            raise ValueError("theta must be finite and strictly positive")
        if np.any(np.diff(theta) >= 0):
            raise ValueError("theta must be strictly decreasing")
        self.theta = theta
        self.theta.setflags(write=False)
        self.n_classes = theta.size
        # theta with the implicit theta_V = 0 appended; index by class v
        self._theta_ext = np.append(theta, 0.0)
        self._theta_ext.setflags(write=False)
        self.delta_by_class = -np.diff(np.append(np.inf, self._theta_ext))
        self.delta_by_class.setflags(write=False)
        self.delta = self.delta_by_class[1:]

    @classmethod
    def from_delta(cls, delta):
        """Build from positive decrements; theta_v = sum(delta[v+1:])."""
        delta = np.asarray(delta, dtype=float)
        if np.any(delta <= 0):
            raise ValueError("delta must be strictly positive")
        theta = np.cumsum(delta[::-1])[::-1]
        return cls(theta)

    def _check_class(self, v):
        v = np.asarray(v)
        if np.any(v < 0) or np.any(v > self.n_classes):
            raise ValueError(f"class out of range 0..{self.n_classes}")
        return v

    def log_pmf(self, v, lam):
        """log P[y = v | lambda].

        Exactly -lambda * theta_0 for v = 0; otherwise
        -lambda * theta_v + log(1 - exp(-lambda * delta_v)), evaluated
        stably for lambda * delta_v near 0 and near +inf.  NumericalError
        where lambda * delta_v is below the least normal float: there it
        has lost digits or is 0, and so would the result.
        """
        v = self._check_class(v)
        lam = np.asarray(lam, dtype=float)
        if np.any(lam <= 0):
            raise ValueError("log_pmf requires lambda > 0")
        # at v = 0, lambda * delta_0 = +inf and log1mexp(+inf) = 0
        x, floor = lam * self.delta_by_class[v], np.finfo(float).tiny
        if np.size(x) and np.min(x) < floor:
            raise NumericalError(f"lambda * delta {np.min(x):.4g} is below "
                                 f"{floor:.4g}")
        out = log1mexp(x)
        out -= lam * self._theta_ext[v]
        return out if np.ndim(out) else float(out)

    def sample_class(self, lam, rng):
        """Draw classes by inverting the c.d.f. on one uniform u per entry:
        inverse_cdf at e = -log(u)."""
        lam = np.asarray(lam, dtype=float)
        e = rng.random(size=lam.shape)
        with np.errstate(divide="ignore"):  # u = 0 gives e = +inf
            np.negative(np.log(e, out=e), out=e)
        classes = self.inverse_cdf(lam, e)
        return int(classes) if classes.ndim == 0 else classes

    def inverse_cdf(self, lam, e):
        """Classes of intensities lam at exponential draws e = -log(u).

        The c.d.f. increases in v and is 1 at v = V > u, so the smallest v
        with cdf(v) >= u is the count of v < V with cdf(v) < u, that is
        with theta_v > e / lambda: one binary search in the increasing
        theta[::-1] per entry, and extra memory O(len(lam)) whatever V is.
        ValueError unless every lambda is >= 0 (NaN fails)."""
        lam = np.asarray(lam, dtype=float)
        if not np.all(lam >= 0):
            raise ValueError("inverse_cdf requires lambda >= 0")
        # lambda = 0 or e = +inf give +inf, and so may a subnormal lambda
        # by overflow: class 0 for sure (cdf = 1 > u)
        with np.errstate(divide="ignore", over="ignore"):
            cut = np.divide(e, lam)
        return self.n_classes - np.searchsorted(self.theta[::-1], cut,
                                                side="right")
