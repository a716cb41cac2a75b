"""Observation model for ordinal classes driven by a non-negative intensity.

An ordinal class y in {0, ..., V} arises by quantizing lambda * eps against
raw thresholds 0 < b_0 < ... < b_{V-1} < +inf, where eps is multiplicative
inverse-gamma IG(1, 1) noise.  With theta_v = 1 / b_v the class c.d.f. is
P[y <= v | lambda] = exp(-lambda * theta_v), which is the only fact the rest
of the package relies on.  Everything here is a pure function of lambda and
the threshold sequence.
"""

import numpy as np

_LOG2 = float(np.log(2.0))


def log1mexp(x):
    """Stable log(1 - exp(-x)) for x > 0.

    Uses log(-expm1(-x)) below log 2 and log1p(-exp(-x)) above, which
    avoids cancellation at both ends of the range.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("log1mexp requires x > 0")
    small = x <= _LOG2
    out = np.empty_like(x)
    out[small] = np.log(-np.expm1(-x[small]))
    out[~small] = np.log1p(-np.exp(-x[~small]))
    return out if out.ndim else float(out)


class ThresholdSequence:
    """Decreasing positive sequence theta_0 > ... > theta_{V-1} > 0.

    theta is the canonical representation (theta_V = 0 and theta_{-1} = +inf
    are implicit).  Derived views:

    * delta: positive decrements, delta_v = theta_{v-1} - theta_v for
      v in {1..V}, so theta_v = sum(delta[v+1:]).
    * b: raw increasing thresholds b_v = 1 / theta_v, v in {0..V-1}.
    * exposure(v): theta_0 for v = 0, theta_{v-1} for v >= 1; the
      coefficient multiplying lambda in the augmented joint likelihood.

    Instances are immutable and safe to share across threads.
    """

    def __init__(self, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.ndim != 1 or theta.size < 1:
            raise ValueError("theta must be a non-empty 1-d sequence")
        if not np.all(theta > 0):
            raise ValueError("theta must be strictly positive")
        if np.any(np.diff(theta) >= 0):
            raise ValueError("theta must be strictly decreasing")
        self.theta = theta
        self.theta.setflags(write=False)
        self.n_classes = theta.size
        # theta with the implicit theta_V = 0 appended; index by class v
        self._theta_ext = np.append(theta, 0.0)
        self._theta_ext.setflags(write=False)
        self.delta = -np.diff(self._theta_ext)
        self.delta.setflags(write=False)
        # exposure[v] multiplies lambda for an observed class v
        self._exposure = np.concatenate(([theta[0]], theta))
        self._exposure.setflags(write=False)

    @classmethod
    def from_delta(cls, delta):
        """Build from positive decrements; theta_v = sum(delta[v+1:])."""
        delta = np.asarray(delta, dtype=float)
        if np.any(delta <= 0):
            raise ValueError("delta must be strictly positive")
        theta = np.cumsum(delta[::-1])[::-1]
        return cls(theta)

    @property
    def b(self):
        """Raw increasing thresholds b_v = 1 / theta_v, v in {0..V-1}."""
        return 1.0 / self.theta

    def exposure(self, v):
        """theta_0 if v == 0 else theta_{v-1} (vectorized over v)."""
        return self._exposure[v]

    def __repr__(self):
        return f"ThresholdSequence(theta={self.theta!r})"

    def quantize(self, x):
        """Class v with b_{v-1} <= x < b_v (b_{-1} = 0, b_V = +inf)."""
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise ValueError("quantize requires x >= 0")
        v = np.searchsorted(self.b, x, side="right")
        return int(v) if v.ndim == 0 else v

    def _check_class(self, v):
        v = np.asarray(v)
        if np.any(v < 0) or np.any(v > self.n_classes):
            raise ValueError(f"class out of range 0..{self.n_classes}")
        return v

    def cdf(self, v, lam):
        """P[y <= v | lambda] = exp(-lambda * theta_v); equals 1 at v = V."""
        v = self._check_class(v)
        lam = np.asarray(lam, dtype=float)
        out = np.exp(-lam * self._theta_ext[v])
        return float(out) if out.ndim == 0 else out

    def pmf(self, v, lam):
        """P[y = v | lambda], the difference of adjacent c.d.f. values."""
        v = self._check_class(v)
        lam = np.asarray(lam, dtype=float)
        upper = np.exp(-lam * self._theta_ext[v])
        lower = np.where(v == 0, 0.0, np.exp(-lam * self._exposure[v]))
        out = upper - lower
        return float(out) if out.ndim == 0 else out

    def pmf_all(self, lam):
        """Vector of pmf(v, lam) for v = 0..V; sums to 1."""
        lam = float(lam)
        cdf = np.exp(-lam * self._theta_ext)
        return np.diff(cdf, prepend=0.0)

    def log_pmf(self, v, lam):
        """log P[y = v | lambda].

        Exactly -lambda * theta_0 for v = 0; otherwise
        -lambda * theta_v + log(1 - exp(-lambda * delta_v)), evaluated
        stably for lambda * delta_v near 0 and near +inf.
        """
        v = self._check_class(v)
        lam = np.asarray(lam, dtype=float)
        if np.any(lam <= 0):
            raise ValueError("log_pmf requires lambda > 0")
        scalar = v.ndim == 0 and lam.ndim == 0
        v_arr, lam_arr = np.broadcast_arrays(np.atleast_1d(v), np.atleast_1d(lam))
        out = np.empty(v_arr.shape, dtype=float)
        zero = v_arr == 0
        out[zero] = -lam_arr[zero] * self.theta[0]
        nz = ~zero
        if np.any(nz):
            vv = v_arr[nz]
            ll = lam_arr[nz]
            out[nz] = -ll * self._theta_ext[vv] + log1mexp(ll * self.delta[vv - 1])
        return float(out[0]) if scalar else out

    def expected_class(self, lam):
        """E[y | lambda] = V - sum_v exp(-lambda * theta_v), in [0, V].

        Strictly increasing in lambda; returns exactly 0 at lambda = 0.
        """
        lam = np.asarray(lam, dtype=float)
        if np.any(lam < 0):
            raise ValueError("expected_class requires lambda >= 0")
        out = self.n_classes - np.exp(-np.multiply.outer(lam, self.theta)).sum(axis=-1)
        out = np.where(lam == 0, 0.0, out)
        return float(out) if out.ndim == 0 else out

    def sample_class(self, lam, rng):
        """Draw classes by inverting the c.d.f. on one uniform u per entry.

        The c.d.f. increases in v and is 1 at v = V > u, so the smallest v
        with cdf(v) >= u is the count of v < V with cdf(v) < u, taken one v
        at a time: extra memory is O(len(lam)) whatever V is."""
        lam = np.asarray(lam, dtype=float)
        if np.any(lam <= 0):
            raise ValueError("sample_class requires lambda > 0")
        u = rng.random(size=lam.shape)
        classes = np.zeros(lam.shape, dtype=np.int64)
        for theta_v in self.theta:
            classes += np.exp(-lam * theta_v) < u
        return int(classes) if classes.ndim == 0 else classes
