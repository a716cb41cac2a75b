"""Coordinate-ascent variational inference for the ordinal factor model.

Factors w_uk ~ Gamma(alpha_w, beta_w_u) and h_ik ~ Gamma(alpha_h, beta_h_i)
get factorized gamma posteriors; each factor carries its prior (alpha and
one rate per row), so each per-side step is written once, for W then H.
Each non-zero entry is augmented with a zero-truncated Poisson count n_ui
(intensity Lambda_ui * delta_{y_ui}) and a multinomial allocation c_ui of
that count over components; zero entries contribute n = 0, c = 0 and are
never enumerated, so every update touches only the stored entries.

iterate runs the one CAVI iteration of every variant: local (n, c)
statistics -> factors (users, then items) -> entry intensities (reused by
the next local step) -> thresholds (ordinal only) -> rate hyperparameters
-> ELBO; fit calls it until convergence.  It forms two per-entry products
with entry_dot: E[lambda_ui] from the means and Lambda_ui from the
geometric means, by gathering factor rows, or by BLAS blocks of A B^T
where the matrix stores enough of its cells (see _dense_cheaper).
E[lambda] and E[n] enter only through their per-class sums, so no step
loops over the V classes.  The ELBO is exact for this
variational family and must be non-decreasing; a decrease beyond roundoff
raises NumericalError since it indicates an update bug.  So does a
positive ELBO (as under a huge prior shape): it bounds the log-probability
of discrete data.

An iteration's one per-entry array is the caller's Lambda, its scratch: it
holds E[n] / Lambda after the local step, then the rate weights, then
E[lambda] and at the end the new Lambda.  Other per-entry values (Lambda *
delta_y, E[n], the ELBO's terms) live in buffers of one block (blocks).
The (U+I) x K work is done in place: a factor caches only its geometric
mean; the local step writes its sparse products over the old shapes and
update_factors over the old means; the new rate is written over the old
one; the ELBO's gamma terms run over row blocks in fixed scratch.  So an
iteration allocates no (U+I) x K array beyond the state.

The fit calls four compiled SciPy functions: csr_matvecs and csc_matvecs
(the kernels of scipy.sparse's CSR product and of its transpose), digamma
and gammaln.  _scipy_extension loads their two extension modules from
their files, without SciPy's Python packages, whose import costs a process
~0.24 s of CPU and ~26 MB (2-core x86 box); so neither importing the
package nor loading a fitted model for evaluate, predict or ppc loads any
SciPy module, and train loads only these two.
"""

import functools
import importlib.machinery
import importlib.util
import json
import os
import sys
import zipfile
from dataclasses import dataclass

import numpy as np

from .data import entry_dtype
from .errors import ConfigError, DataError, NumericalError, OrdnmfError
from .model import ThresholdSequence, log1mexp

_STATE_VERSION = 1
# Decrement given to a class absent from the train data.
DELTA_FLOOR = 1e-10
VARIANTS = ("ordinal", "bepof", "pf")
# Cells per block of blocks, the one walker of every per-entry scan: a
# gather buffer of entry_dot holds one block (256 KB of float64), and its
# two buffers fit together in a 2 MB L2 cache, so einsum reads the gathered
# rows from L2 rather than from L3 or DRAM.
GATHER_CELLS = 1 << 15
# Cells per score block of entry_dot's BLAS strategy (1 MB of float64).
# BLAS packs B^T once per block, so small blocks lose: at K = 100 on
# 2500 x 2000 cells with 8% stored (one BLAS thread, 2-core x86 box), a
# product took 49.5 ms in blocks of 2^15 cells, 33.0 at 2^16, 29.4 at
# 2^17 and 26.8 at 2^18 (medians of 15), against 57.6 for the gathers.
DENSE_CELLS = 1 << 17
# The compiled functions the fit calls, by SciPy extension module.
_SCIPY_KERNELS = {"_sparsetools": ("csr_matvecs", "csc_matvecs"),
                  "_special_ufuncs": ("psi", "gammaln")}


@functools.cache
def _scipy_extension(package, name):
    """SciPy's compiled module scipy.<package>.<name>, found once: the one
    in sys.modules if SciPy has loaded it, else loaded from its file in
    SciPy's install directory (found without importing anything) and taken
    out of sys.modules, where CPython registers a single-phase extension
    module by itself: a module registered there before its package is
    imported never becomes the package's attribute.  SciPy, imported
    later, loads its own module object with the same functions.
    OrdnmfError naming the module and SciPy's version when SciPy, the file
    or a function of _SCIPY_KERNELS is missing."""
    full = f"scipy.{package}.{name}"
    module = sys.modules.get(full)
    root = None if module else importlib.util.find_spec("scipy")
    if root is not None and root.submodule_search_locations:
        finder = importlib.machinery.FileFinder(
            os.path.join(root.submodule_search_locations[0], package),
            (importlib.machinery.ExtensionFileLoader,
             importlib.machinery.EXTENSION_SUFFIXES))
        spec = finder.find_spec(full)
        if spec is not None:
            try:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
            except ImportError:  # a file that does not load
                module = None
            finally:
                sys.modules.pop(full, None)
    absent = (_SCIPY_KERNELS[name] if module is None else
              [f for f in _SCIPY_KERNELS[name] if not hasattr(module, f)])
    if absent:
        from importlib import metadata  # only here: it imports email, csv
        try:
            version = f"SciPy {metadata.version('scipy')}"
        except metadata.PackageNotFoundError:
            version = "SciPy not installed"
        raise OrdnmfError(f"cannot load {', '.join(absent)} from {full} "
                          f"({version}); the fit needs scipy>=1.17")
    return module


def ztp_mean(x, out=None):
    """Mean of a zero-truncated Poisson with intensity x: x / (1 - e^{-x}),
    written into out (an array of x's shape other than x) if given.

    Always >= 1; tends to 1 as x -> 0 and to x as x -> infinity.
    """
    x = np.asarray(x, dtype=float)
    if x.size and x.min() <= 0:
        raise ValueError("ztp_mean requires x > 0")
    out = np.negative(x, out=np.empty_like(x) if out is None else out)
    np.negative(np.expm1(out, out=out), out=out)
    np.divide(x, out, out=out)
    return float(out) if out.ndim == 0 else out


class GammaVariationalMatrix:
    """Entrywise gamma posterior over a factor matrix, with its prior
    x_rk ~ Gamma(alpha, beta_r): one shape alpha, one rate per row.

    Caches the per-entry mean E = shape/rate and the column sums of E,
    which the opposite side's updates consume, and, on first use after
    each set, the geometric mean G = exp(digamma(shape))/rate, so that
    log G = E[log .] wherever G is normal.  set writes the new E and G into
    the arrays that held the old ones, so it keeps the constructor's shapes.
    ValueError unless shape and rate are equal 2-d shapes and beta has one
    entry per row.
    """

    def __init__(self, shape, rate, alpha, beta):
        self.mean = self._geo_mean = None
        self.set(shape, rate)
        self.alpha = float(alpha)
        self.beta = np.asarray(beta, dtype=float)
        if (self.shape.ndim != 2 or self.rate.shape != self.shape.shape
                or self.beta.shape != self.shape.shape[:1]):
            raise ValueError("factor arrays disagree in shape")

    def set(self, shape, rate):
        shape = np.asarray(shape, dtype=float)
        rate = np.asarray(rate, dtype=float)
        for a in (shape, rate):
            # min and max propagate NaN, which fails every comparison
            if a.size and not (a.min() > 0 and a.max() < np.inf):
                raise NumericalError(
                    "gamma variational parameters must be finite and positive")
        self.mean = np.divide(shape, rate, out=self.mean)
        self.shape = shape
        self.rate = rate
        self.mean_colsum = self.mean.sum(axis=0)
        self._stale = True  # G

    @property
    def geo_mean(self):
        """G, computed on first use after set, in G's own array."""
        if self._stale:
            psi = _scipy_extension("special", "_special_ufuncs").psi
            G = psi(self.shape, out=self._geo_mean)  # digamma
            self._geo_mean = np.exp(G, out=G)
            G /= self.rate
            self._stale = False
        return self._geo_mean

    @property
    def n_rows(self):
        return self.shape.shape[0]

    @property
    def n_components(self):
        return self.shape.shape[1]

    def prior_minus_entropy(self):
        """sum of E_q[log p(x; alpha, beta_r) - log q(x)], in closed form:
        a log b - gammaln(a) + (a - a_t) E[log x] - b E - a_t log rate
        + gammaln(a_t) + a_t (a, b the prior, a_t the posterior shape), one
        elementwise operation at a time in that order, over the row blocks
        of blocks in three scratch arrays allocated once.
        E[log x] is log G, or digamma(a_t) - log rate where G is below the
        least normal float (a tiny shape can underflow G while Lambda stays
        normal)."""
        special = _scipy_extension("special", "_special_ufuncs")
        a, G, tiny = self.alpha, self.geo_mean, np.finfo(float).tiny
        prior = a * np.log(self.beta) - special.gammaln(a)
        K = self.n_components
        longest = next(blocks(self.n_rows, K), slice(0)).stop  # the first
        scratch = np.empty((3, longest, K))
        total = 0.0
        for rows in blocks(self.n_rows, K):
            a_t, b, g = self.shape[rows], self.beta[rows, None], G[rows]
            term, other, log_rate = scratch[:, :len(a_t)]
            np.log(self.rate[rows], out=log_rate)
            with np.errstate(divide="ignore"):  # log 0, replaced below
                np.log(g, out=term)
            if g.min() < tiny:
                low = g < tiny
                term[low] = special.psi(a_t[low]) - log_rate[low]
            term *= np.subtract(a, a_t, out=other)
            term += prior[rows, None]
            term -= np.multiply(b, self.mean[rows], out=other)
            log_rate *= a_t
            term -= log_rate
            term += special.gammaln(a_t, out=other)
            term += a_t
            total += term.sum()
        return float(total)


@dataclass
class FitConfig:
    """Knobs for a single fit.  variant "ordinal" learns the thresholds;
    "bepof" (Bernoulli link) and "pf" (Poisson factorization: point-mass
    counts) fit binary data (V = 1) with theta_0 = 1 frozen."""

    n_components: int
    alpha_w: float = 0.3
    alpha_h: float = 0.3
    tol: float = 1e-5
    max_iter: int = 500
    seed: int = 0
    variant: str = "ordinal"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant {self.variant!r} not in {VARIANTS}")
        if self.n_components < 1:
            raise ConfigError("n_components must be >= 1")
        # NaN fails every comparison, so test for what is allowed
        for name in ("alpha_w", "alpha_h"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, "
                                  f"got {value}")
        if not self.tol > 0:  # tol = inf stops after the first iteration
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")


@dataclass
class VariationalState:
    """Complete fitted model: both factors, each with its prior; thresholds."""

    W: GammaVariationalMatrix
    H: GammaVariationalMatrix
    thresholds: ThresholdSequence

    @property
    def n_users(self):
        return self.W.n_rows

    @property
    def n_items(self):
        return self.H.n_rows

    @property
    def n_components(self):
        return self.W.n_components

    @property
    def n_classes(self):
        return self.thresholds.n_classes


@dataclass
class FitResult:
    state: VariationalState
    elbo_trace: np.ndarray
    converged: bool

    @property
    def iterations(self):
        return len(self.elbo_trace)


def blocks(n, width=1):
    """Slices, in order, that cover 0..n once, of max(1, GATHER_CELLS //
    width) items each (the last may be shorter): entries, or rows of width
    cells.  The one block walker of every per-entry scan, so none of them
    holds more than a block of per-entry scratch."""
    step = max(1, GATHER_CELLS // width)
    return (slice(s, min(s + step, n)) for s in range(0, n, step))


def entry_dot(A, B, rows, cols, out=None):
    """sum_k A[rows, k] * B[cols, k]: entries (rows, cols) of A B^T,
    written into out (one float per entry) if given, and returned.
    IndexError on a row or column index outside A or B, negative included,
    checked before either strategy runs.

    Where rows never decrease (CSR order) and the entries are enough of
    A B^T's cells for K (_dense_cheaper), the BLAS strategy
    (_dense_entry_dot) scores blocks of DENSE_CELLS cells and takes the
    entries out; its sums differ from einsum's in the last bits.
    Otherwise, as for unsorted rows, the factor rows of GATHER_CELLS cells
    at a time are gathered into two buffers and each entry's sum is the
    same einsum over the same K values as in one call over all entries
    (for K <= 8192: above numpy's iterator buffer size, einsum's sums
    depend on how many rows it gets).
    Either way the scratch is allocated once per call and does not grow
    with len(rows), len(A) * len(B) or len(rows) * K.
    """
    for idx, M, name in ((rows, A, "row"), (cols, B, "column")):
        if len(idx) and (idx.min() < 0 or idx.max() >= len(M)):
            bad = idx[(idx < 0) | (idx >= len(M))][0]
            raise IndexError(f"{name} index {bad} outside 0..{len(M) - 1}")
    if out is None:
        out = np.empty(len(rows), dtype=np.result_type(A, B))
    if (_dense_cheaper(len(rows), len(A), len(B), A.shape[1])
            and _non_decreasing(rows)):
        return _dense_entry_dot(A, B, rows, cols, out)
    K = A.shape[1]
    longest = next(blocks(len(rows), K), slice(0)).stop  # the first block
    a = np.empty((longest, K), dtype=A.dtype)
    b = np.empty((longest, K), dtype=B.dtype)
    for block in blocks(len(rows), K):
        m = block.stop - block.start
        # in range (checked above); mode="raise" would buffer the output
        np.take(A, rows[block], axis=0, out=a[:m], mode="clip")
        np.take(B, cols[block], axis=0, out=b[:m], mode="clip")
        np.einsum("jk,jk->j", a[:m], b[:m], out=out[block])
    return out


def _dense_cheaper(nnz, n_rows, n_cols, K):
    """Whether scoring every cell of the n_rows x n_cols product with BLAS
    costs less than gathering the nnz entries' factor rows.  Measured at
    2500 x 2000 cells with one BLAS thread (2-core x86 box), a gathered
    entry costs ~15 + 1.15 K ns, and a scored cell ~0.6 + 0.045 K ns plus
    ~7 ns per entry taken out: by these costs BLAS wins above ~4% of cells
    stored at K = 100 and ~7% at K = 2.  The rule asks for about 1.6x
    that share, 16 nnz (8 + K) >= cells (16 + K): 6.8% of cells at
    K = 100, 8.0% at K = 20 and 10.3% at K = 5.  It also asks for
    K >= 3 (at K <= 2 the gathers are cheap: BLAS was slower at up to
    8-16% stored, and at K = 1 np.matmul took as long as an outer
    product), for at least 16 rows per block (with fewer, BLAS repacks
    B^T for little work: at 6 rows it was 1.8x slower at 8% stored and
    K = 100) and for at least 8 blocks of cells (below that the buffer's
    fixed cost made BLAS slower at up to 16% stored)."""
    cells = n_rows * n_cols
    return (K >= 3 and cells >= 8 * DENSE_CELLS and 16 * n_cols <= DENSE_CELLS
            and 16 * nnz * (8 + K) >= cells * (16 + K))


def _non_decreasing(rows):
    """Whether rows never decrease, checked a block at a time (with one
    entry of overlap) so the comparison's mask stays one block."""
    chunks = (rows[b.start:b.stop + 1] for b in blocks(len(rows)))
    return not any(np.any(c[1:] < c[:-1]) for c in chunks)


def _dense_entry_dot(A, B, rows, cols, out):
    """entry_dot for rows in non-decreasing order: each block of
    DENSE_CELLS cells in whole rows of A B^T, from the first row with an
    entry, is scored with np.matmul into one buffer, and its entries are
    taken out through one offset scratch, both allocated once per call."""
    n_cols = len(B)
    step = max(1, DENSE_CELLS // max(n_cols, 1))
    scores = np.empty((min(step, len(A)), n_cols), dtype=out.dtype)
    offsets = np.empty(min(len(rows), scores.size), dtype=np.intp)
    stop = 0
    while stop < len(rows):
        start, first = stop, int(rows[stop])
        last = min(first + step, len(A))
        # a needle of rows' dtype: a Python int would cast rows to int64
        stop = int(np.searchsorted(rows, rows.dtype.type(last)))
        block = np.matmul(A[first:last], B.T, out=scores[:last - first])
        at = offsets[:stop - start]
        np.subtract(rows[start:stop], first, out=at)
        at *= n_cols
        at += cols[start:stop]
        # in range: rows and cols were checked; "raise" would buffer out
        np.take(block, at, out=out[start:stop], mode="clip")
    return out


def entry_intensities(state, data, out=None):
    """Lambda at data's non-zeros: sum_k G_w G_h (geometric means), written
    into out if given, checked by require_positive, which fails when G
    underflows under a small prior shape."""
    return require_positive(entry_dot(state.W.geo_mean, state.H.geo_mean,
                                      data.rows, data.cols, out=out), data)


def require_positive(lam, data):
    """lam, one intensity per entry of data; NumericalError naming the
    first entry (user, item) where it is not finite and normal: for a
    subnormal lam, local_update's E[n] / Lambda would overflow and the
    held-out likelihood's lam * delta loses its digits or underflows."""
    floor = np.finfo(float).tiny
    # min and max propagate NaN, which fails every comparison
    if lam.size and not (lam.min() >= floor and lam.max() < np.inf):
        j = np.flatnonzero(~((lam >= floor) & (lam < np.inf)))[0]
        what = ("not finite and positive" if not 0 < lam[j] < np.inf
                else f"below {floor:.4g}")
        raise NumericalError(f"intensity {lam[j]} at (u={data.rows[j]}, "
                             f"i={data.cols[j]}) is {what}")
    return lam


def _sparse_product(data, values, X, out, transposed=False):
    """A @ X, or A^T @ X if transposed, written into out and returned, for
    A the U x I matrix over data's sparsity pattern holding values (one per
    stored entry, in CSR order): SciPy's csr_matvecs or csc_matvecs, which
    scipy.sparse runs for these products, adding into out, zeroed first,
    so the same bits.  Both index arrays are passed in one dtype, cols' own
    unless U or nnz needs int64, as the kernels' wrapper would otherwise
    copy both to a common one: so only indptr (U + 1 values) is cast."""
    index = np.result_type(data.rows, data.cols, entry_dtype(data.nnz))
    kernels = _scipy_extension("sparse", "_sparsetools")
    matvecs, shape = ((kernels.csc_matvecs, (data.n_items, data.n_users))
                      if transposed else
                      (kernels.csr_matvecs, (data.n_users, data.n_items)))
    out.fill(0.0)
    matvecs(*shape, X.shape[1], data.indptr.astype(index, copy=False),
            data.cols.astype(index, copy=False), values, X, out)
    return out


def class_sums(state, data, out=None):
    """S_l = sum over entries with y = l of E[lambda_ui], for l = 1..V, from
    E[lambda] at data's non-zeros (written into out if given).  np.add.at
    adds in entry order, as bincount does, in ~0.5 byte per entry, where
    bincount casts the int32 data.vals to an intp copy, 8 bytes per entry,
    writable or not (numpy 2.4)."""
    e_lam = entry_dot(state.W.mean, state.H.mean, data.rows, data.cols,
                      out=out)
    sums = np.zeros(data.n_classes + 1)
    np.add.at(sums, data.vals, e_lam)
    return sums[1:]


def init_thresholds(data):
    """Initial decrements proportional to freq(y = l) / freq(y <= l),
    rescaled so theta_0 = 1.  Mirrors the threshold update at a flat start."""
    v_counts = data.class_counts.astype(float)
    n_cells = float(data.n_users) * float(data.n_items)
    at_most = n_cells - data.nnz + np.cumsum(v_counts)
    delta = v_counts / at_most
    delta = np.maximum(delta, DELTA_FLOOR)
    delta /= delta.sum()
    return ThresholdSequence.from_delta(delta)


def init_state(config, data):
    """Deterministic (per seed) starting point for the CAVI loop."""
    if data.nnz == 0:
        raise DataError("cannot fit an empty matrix")
    if config.variant != "ordinal" and data.n_classes != 1:
        raise ConfigError(f"variant {config.variant!r} needs binary data "
                          f"(V = 1), got V = {data.n_classes}")
    rng = np.random.default_rng(config.seed)
    K = config.n_components
    factors = []
    for alpha, n_rows in ((config.alpha_w, data.n_users),
                          (config.alpha_h, data.n_items)):
        # target factor magnitude ~ sqrt(mean nnz per row / K)
        t = np.sqrt(max(data.nnz / n_rows, 1e-8) / K)
        shape = alpha * (1.0 + 0.01 * rng.random((n_rows, K)))
        factors.append(GammaVariationalMatrix(shape, shape / t, alpha,
                                              np.full(n_rows, alpha / t)))
    W, H = factors
    return VariationalState(W=W, H=H, thresholds=init_thresholds(data))


def _take_by_class(table, vals, out):
    """out[j] = table[vals[j]], one block at a time, as np.take casts an
    int32 index array such as OrdinalMatrix.vals to an intp copy."""
    for block in blocks(len(vals)):
        # classes are in 0..V; mode="raise" would buffer the output
        np.take(table, vals[block], out=out[block], mode="clip")
    return out


def scaled_blocks(state, data, lam_big):
    """(slice, x = Lambda * delta_y) per block of data's entries, in order,
    x in one reused buffer; lam_big holds Lambda, one value per entry (the
    fit's intensities, or the held-out likelihood's posterior means)."""
    delta = state.thresholds.delta_by_class
    buf = np.empty(min(GATHER_CELLS, data.nnz))
    for block in blocks(data.nnz):
        x = _take_by_class(delta, data.vals[block], buf[:len(lam_big[block])])
        x *= lam_big[block]
        yield block, x


def _count_sums(state, data, lam_big, point_mass):
    """Sums of E[n] by class 1..V, E[n] = ztp_mean(Lambda * delta_y) or 1
    under the point mass, added in entry order (see class_sums) block by
    block; writes E[n] / Lambda over lam_big."""
    sums = np.zeros(data.n_classes + 1)
    e_n = np.ones(min(GATHER_CELLS, data.nnz))
    for block, x in scaled_blocks(state, data, lam_big):
        n = e_n[:len(x)]
        if not point_mass:
            ztp_mean(x, out=n)
        np.add.at(sums, data.vals[block], n)
        np.divide(n, lam_big[block], out=lam_big[block])
    return sums[1:]


def local_update(state, data, lam_big, point_mass=False):
    """E-step over the non-zero entries, in the caller's arrays.

    Lambda_uik = G_w[u,k] * G_h[i,k] (exp of expected logs), and lam_big
    holds Lambda_ui = sum_k Lambda_uik; n_ui has mean ztp_mean(Lambda_ui *
    delta_y) (or exactly 1 under the point-mass approximation); c allocates
    n proportionally to Lambda_uik.  Returns the sums of E[n] by class
    1..V, and writes E[n] / Lambda over lam_big.  The per-(u,k) and
    per-(i,k) allocation totals sum E[c] are written over the factors'
    shapes, which nothing reads before update_factors.
    """
    GW, GH = state.W.geo_mean, state.H.geo_mean  # of the old shapes
    n_by_class = _count_sums(state, data, lam_big, point_mass)
    # sum_i E[c_uik] = G_w[u,k] * sum_i (E[n]/Lambda) G_h[i,k]; ditto for items
    _sparse_product(data, lam_big, GH, state.W.shape)
    state.W.shape *= GW
    _sparse_product(data, lam_big, GW, state.H.shape, transposed=True)
    state.H.shape *= GH
    return n_by_class


def update_factors(state, data, scratch):
    """shape = alpha + sum E[c], alpha added in place to the totals that
    local_update wrote over the shape; rate = beta_r + sum over the row's
    cells of theta_{y-1} * E[other factor] (theta_0 at y = 0).  Users
    first, so item rates see the new user means.  So a rate is a dense
    theta_0 * colsum term plus a sparse product of theta_{y-1} - theta_0
    over the non-zeros (its transpose for the items), whose values are
    written over scratch, one float per entry.  The product is written
    over the side's mean, which set then overwrites, and the new rate over
    the old one, which nothing reads after the local step.  At V = 1
    every value is 0 and adding the product changes no rate, so it is
    not formed."""
    theta = state.thresholds.theta
    sparse_term = len(theta) > 1
    if sparse_term:  # theta_{y-1} - theta_0 by class y (y = 0 not stored)
        _take_by_class(np.append(0.0, theta - theta[0]), data.vals, scratch)
    for side, other, transposed in ((state.W, state.H, False),
                                    (state.H, state.W, True)):
        rate = np.add(side.beta[:, None], theta[0] * other.mean_colsum,
                      out=side.rate)
        if sparse_term:
            rate += _sparse_product(data, scratch, other.mean, side.mean,
                                    transposed)
        side.shape += side.alpha
        side.set(side.shape, rate)


def total_expected_lambda(state):
    """sum over all U x I cells of E[lambda_ui], in O(K)."""
    return float(state.W.mean_colsum @ state.H.mean_colsum)


def update_thresholds(state, n_by_class, lam_by_class):
    """Point-estimate update of the V decrements; n_by_class is
    local_update's and lam_by_class class_sums' (each of length V).

    delta_l = (sum over entries with y = l of E[n]) /
              (sum over cells with y <= l of E[lambda]).

    The denominator is the all-cells total minus a suffix sum over classes
    above l, so only non-zeros are touched.  Classes absent from the data
    get DELTA_FLOOR.  Returns the new sequence and the list of floored
    classes.
    """
    # above[l-1] = sum of E[lambda] over entries with y > l
    above = np.concatenate((np.cumsum(lam_by_class[::-1])[::-1][1:], [0.0]))
    den = total_expected_lambda(state) - above
    ok = n_by_class > 0
    delta = np.full(len(n_by_class), DELTA_FLOOR)
    delta[ok] = n_by_class[ok] / den[ok]
    floored = [int(1 + f) for f in np.flatnonzero(~ok)]
    return ThresholdSequence.from_delta(delta), floored


def update_rate_hyperparams(state):
    """Empirical-Bayes rates: beta_r = K * alpha / sum_k E[x_rk], W then H.

    Closed-form maximizer of the expected gamma prior term in beta.
    """
    for factor in (state.W, state.H):
        row_sum = factor.mean.sum(axis=1)
        if np.any(row_sum <= 0):
            raise NumericalError("zero factor sum in rate update")
        factor.beta = state.n_components * factor.alpha / row_sum


def compute_elbo(state, data, lam_big, lam_by_class, point_mass=False):
    """Exact variational objective for the state, its entry intensities
    Lambda and its class sums of E[lambda] (class_sums).

    Per non-zero entry the augmented-likelihood and local-entropy terms
    collapse to -E[lambda] * theta_{y-1} + x + log(1 - e^{-x}) with
    x = Lambda * delta_y (under the point-mass count approximation the last
    two terms become log x); the first term is linear in E[lambda], so it
    sums per class.  Zero cells contribute -E[lambda] * theta_0,
    accumulated as total-minus-nonzero.  Factor terms are closed-form gamma
    cross-entropy minus entropy.  The per-entry terms are summed block by
    block.
    """
    thr = state.thresholds
    term = np.empty(min(GATHER_CELLS, data.nnz))
    nonlinear = 0.0
    for _, x in scaled_blocks(state, data, lam_big):
        if point_mass:
            nonlinear += np.log(x, out=x).sum()
        else:
            t = log1mexp(x, out=term[:len(x)])
            t += x
            nonlinear += t.sum()
    nz_part = float(nonlinear - lam_by_class @ thr.theta)
    zero_part = -thr.theta[0] * (total_expected_lambda(state)
                                 - float(lam_by_class.sum()))
    elbo = (nz_part + zero_part + state.W.prior_minus_entropy()
            + state.H.prior_minus_entropy())
    if not np.isfinite(elbo):
        raise NumericalError("non-finite ELBO")
    return float(elbo)  # fit's tol * |ELBO| then overflows without a warning


def iterate(state, data, lam_big, variant):
    """One CAVI iteration of variant (see FitConfig), in place on state,
    whose entry intensities are lam_big: local step, users, items,
    thresholds (ordinal only), rate hyperparameters.  lam_big is its
    per-entry scratch and on return holds the new state's entry
    intensities.  Returns the ELBO."""
    point_mass = variant == "pf"
    n_by_class = local_update(state, data, lam_big, point_mass)
    update_factors(state, data, lam_big)
    # threshold and rate updates leave W and H, hence these, unchanged
    lam_by_class = class_sums(state, data, out=lam_big)
    entry_intensities(state, data, out=lam_big)
    if variant == "ordinal":
        state.thresholds, _ = update_thresholds(state, n_by_class,
                                                lam_by_class)
    update_rate_hyperparams(state)
    return compute_elbo(state, data, lam_big, lam_by_class, point_mass)


def fit(data, config):
    """Run iterate until the relative ELBO increment falls below
    config.tol or max_iter is reached."""
    state = init_state(config, data)
    lam_big = np.empty(data.nnz)
    lam_by_class = class_sums(state, data, out=lam_big)
    entry_intensities(state, data, out=lam_big)
    prev = compute_elbo(state, data, lam_big, lam_by_class,
                        config.variant == "pf")
    trace = []
    converged = False
    for _ in range(config.max_iter):
        elbo = iterate(state, data, lam_big, config.variant)
        trace.append(elbo)
        # also covers a positive initial ELBO: iteration 1's is no lower,
        # or the decrease check below raises
        if elbo > 0:
            raise NumericalError(
                f"ELBO {elbo:.3g} at iteration {len(trace)} is positive, but "
                "it bounds the log-probability of discrete data")
        if elbo < prev - 1e-8 * abs(prev):
            raise NumericalError(
                f"ELBO decreased at iteration {len(trace)}: {prev} -> {elbo}")
        if (elbo - prev) < config.tol * abs(prev):
            converged = True
            break
        prev = elbo
    return FitResult(state=state, elbo_trace=np.asarray(trace),
                     converged=converged)


def save_state(path, state, metadata=None):
    """Versioned serialization; loading reproduces scores bit-exactly."""
    np.savez(
        path,
        schema_version=np.int64(_STATE_VERSION),
        theta=state.thresholds.theta,
        w_shape=state.W.shape, w_rate=state.W.rate,
        h_shape=state.H.shape, h_rate=state.H.rate,
        beta_w=state.W.beta, beta_h=state.H.beta,
        alpha_w=np.float64(state.W.alpha), alpha_h=np.float64(state.H.alpha),
        metadata=np.bytes_(json.dumps(metadata or {}).encode()))


def load_state(path):
    """(state, metadata) from a save_state file; DataError naming path for
    any other file, including a truncated or corrupted model and one whose
    metadata is not a JSON object."""
    try:
        z = np.load(path)  # ValueError, EOFError: neither .npz nor .npy
        version = int(z["schema_version"])  # KeyError, IndexError: not ours
        with z:
            if version != _STATE_VERSION:
                raise DataError(
                    f"{path}: unsupported model schema version {version}")
            # each factor's constructor checks its own shapes
            W = GammaVariationalMatrix(z["w_shape"], z["w_rate"],
                                       z["alpha_w"], z["beta_w"])
            H = GammaVariationalMatrix(z["h_shape"], z["h_rate"],
                                       z["alpha_h"], z["beta_h"])
            if H.n_components != W.n_components:
                raise ValueError("factors disagree in K")
            (U, K), I = W.shape.shape, H.shape.shape[0]
            if min(U, I, K) == 0:
                raise DataError(f"{path}: model has {U} users, {I} items "
                                f"and K = {K}; each must be at least 1")
            state = VariationalState(W=W, H=H,
                                     thresholds=ThresholdSequence(z["theta"]))
            metadata = json.loads(bytes(z["metadata"]).decode())
        if not isinstance(metadata, dict):
            raise DataError(f"{path}: model metadata is not a JSON object")
    except (ValueError, EOFError, zipfile.BadZipFile, KeyError, IndexError,
            NumericalError):
        raise DataError(f"{path}: not a valid ordnmf model file") from None
    return state, metadata
