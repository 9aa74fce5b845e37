"""Generic numerical kernels, each quadrature and series rule written once.

A checked time series type, a real-valued QUADPACK adapter for (possibly
oscillatory) spectral integrals, one Gauss-Legendre panel rule, a
product-trapezoidal solver for memory-kernel Volterra equations, a fixed-step
4th-order density-matrix integrator, the run's size budget, and the one
worker pool that the dephasing exponent and the second-order engine share.
All routines are pure functions of their inputs and safe for concurrent use.
"""

import collections
import functools
import importlib
import os
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, QuadratureError

__all__ = [
    "TimeGrid",
    "Series",
    "integrate_adaptive",
    "solve_volterra",
    "integrate_matrix_ode",
    "gauss_legendre_panels",
]


_GL_ORDER = 10

# the bytes a run may ask for in any one allocation that grows with its input
_SIZE_BUDGET = 2**30


def _check_size(count, unit_bytes, what, keys):
    """NumericError, before anything is allocated, unless ``count`` ``what`` of
    ``unit_bytes`` traced bytes each fit; the message names the ``keys`` that shrink it."""
    if not count * unit_bytes <= _SIZE_BUDGET:  # also for an inf or nan count
        shown = f"{count:,.0f}" if isinstance(count, float) else f"{count:,}"
        raise NumericError(f"{shown} {what}, {unit_bytes:,} bytes each, exceed the size "
                           f"budget of {_SIZE_BUDGET:,} bytes; shrink {' or '.join(keys)}")


class _LazyModule:
    """Stand-in for a module that is imported on first attribute access.

    scipy takes most of a cold start, and only QUADPACK's routes call it:
    the module global ``integrate`` stays this object, and
    ``integrate.quad`` is looked up anew on every call.
    """

    def __init__(self, name):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)


integrate = _LazyModule("scipy.integrate")


# the least rtol that brentq accepts, 4 eps, as in scipy
_BRENT_RTOL = 2.0 ** -50


def brentq(f, a, b, xtol=2e-12, rtol=_BRENT_RTOL, maxiter=100):
    """A root of f in the sign-changing bracket [a, b] by Brent's method, without scipy.

    A line-by-line port of scipy's ``Zeros/brentq.c`` (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4), so it returns the bits
    of ``scipy.optimize.brentq`` with scipy's defaults, argument checks and
    exceptions: ValueError for xtol <= 0, rtol < 4 eps, maxiter < 0, a NaN
    value of f or a bracket without a sign change; RuntimeError when maxiter
    iterations do not converge.  It has no ``args``, ``full_output`` or
    ``disp``.
    """
    from operator import index

    maxiter = index(maxiter)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENT_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENT_RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")

    def value(x):
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):  # neither is 0 or NaN here, so this is C's signbit test
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's step is then inf or NaN, and it bisects
                stry = float("inf")
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid t_k = k*dt for k = 0..count-1."""

    dt: float
    count: int

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"TimeGrid.dt must be positive, got dt={self.dt!r}")
        if self.dt == np.inf:
            raise ValueError(f"TimeGrid.dt must be finite, got dt={self.dt!r}")
        if self.count < 2:
            raise ValueError(f"TimeGrid.count must be at least 2, got count={self.count!r}")

    @property
    def times(self):
        return self.dt * np.arange(self.count)


@dataclass(frozen=True)
class Series:
    """A quantity sampled on a TimeGrid, with the route (``source``) that computed it.

    ``values`` keeps the dtype it is given: complex for G, real for Gamma_T.
    """

    grid: TimeGrid
    values: np.ndarray
    source: str

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.shape != (self.grid.count,):
            raise ValueError(
                f"series length {values.shape} does not match grid count {self.grid.count}")
        object.__setattr__(self, "values", values)

    def check(self, lo, hi):
        """NumericError unless each value, a complex one by modulus, is finite and in [lo, hi]."""
        size = np.abs(self.values) if np.iscomplexobj(self.values) else self.values
        bad = np.flatnonzero(~(np.isfinite(size) & (size >= lo) & (size <= hi)))
        if bad.size:
            raise NumericError(f"{self.source} series leaves [{lo!r}, {hi!r}] at t = "
                               f"{float(self.grid.times[bad[0]])!r}: {float(size[bad[0]])!r}")
        return self


def integrate_adaptive(f, a, b, rel_tol=1e-10, abs_tol=1e-12, *, points=(),
                       weight=None, wvar=None):
    """QUADPACK quadrature of a real-valued ``f`` over [a, b] (b may be ``np.inf``).

    Returns a float whose reported error bound satisfies
    ``bound <= max(abs_tol, rel_tol * |result|)``; otherwise raises
    :class:`QuadratureError` carrying the best estimate and the bound.
    ``points`` lists interior breakpoints (finite intervals only; an empty
    list is no breakpoints, not QUADPACK's QAGP rule), and the subinterval
    limit follows from them as max(200, 4 (len + 2));
    ``weight``/``wvar`` pass an oscillatory QUADPACK weight (e.g. 'cos', t)
    through, which is far more robust than plain subdivision when the phase
    across [a, b] spans many cycles.
    """
    if not a < b:
        raise ValueError("integrate_adaptive requires a < b")
    kwargs = dict(epsabs=abs_tol, epsrel=rel_tol, limit=max(200, 4 * (len(points) + 2)),
                  full_output=1)
    if weight is not None:
        kwargs["weight"] = weight
        kwargs["wvar"] = wvar
    elif len(points) and np.isfinite(b):
        kwargs["points"] = points
    out = integrate.quad(f, a, b, **kwargs)
    estimate, bound = out[0], out[1]
    # a 4th element is QUADPACK's non-convergence message
    if len(out) > 3 or bound > max(abs_tol, rel_tol * abs(estimate)):
        raise QuadratureError(
            f"quadrature did not converge: estimate={estimate}, bound={bound:g}",
            estimate=estimate,
            error_bound=bound,
        )
    return estimate


def solve_volterra(samples, grid):
    """Solve ``c'(t) = -∫₀ᵗ f(t-τ) c(τ) dτ`` with ``c(0) = 1``; the complex array c.

    ``samples`` holds the kernel f at the grid times, one per time.
    Product-trapezoidal discretization (second-order accurate): both the
    memory integral and the time step use the trapezoidal rule, with the
    implicit diagonal term solved per step.
    """
    h = grid.dt
    m = grid.count
    F = np.asarray(samples, dtype=complex)
    if F.shape != (m,):
        raise ValueError(f"{F.shape} kernel samples do not match grid count {m}")
    c = np.empty(m, dtype=complex)
    c[0] = 1.0
    deriv = 0.0 + 0.0j  # c'(0): the memory integral is empty at t = 0
    denom = 1.0 + 0.25 * h * h * F[0]
    for k in range(m - 1):
        # Trapezoidal memory sum for t_{k+1}, excluding the (implicit) τ = t_{k+1} node.
        s = h * 0.5 * F[k + 1] * c[0]
        if k >= 1:
            s += h * np.dot(F[k:0:-1], c[1:k + 1])
        c_next = (c[k] + 0.5 * h * (deriv - s)) / denom
        deriv = -(s + 0.5 * h * F[0] * c_next)
        c[k + 1] = c_next
    return c


def integrate_matrix_ode(rhs, rho0, grid):
    """Classical fixed-step RK4 for ``ρ' = rhs(ρ)`` on a TimeGrid.

    ``rhs`` must be linear in its argument (time-independent generator).
    Returns an array of shape (count, d, d).
    """
    rho = np.asarray(rho0, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("rho0 must be a square matrix")
    probe = np.asarray(rhs(rho))
    if probe.shape != rho.shape:
        raise ValueError("rhs output shape does not match the state shape")
    out = np.empty((grid.count,) + rho.shape, dtype=complex)
    out[0] = rho
    dt = grid.dt
    for k in range(grid.count - 1):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = rho
    return out


def row_blocks(n_rows, max_rows):
    """Contiguous slices that split ``range(n_rows)`` into near-equal row blocks.

    Each block has at most ``max_rows`` rows where that allows at least two
    per block; a one-row block is never formed from a longer input, because
    a one-row matrix product takes a different BLAS kernel and rounds
    differently.  Block sizes differ by at most one row, and ``n_rows <=
    max_rows`` (in particular ``n_rows = 1``) gives a single block.
    """
    count = max(1, min(-(-n_rows // max(max_rows, 1)), n_rows // 2))
    size, extra = divmod(n_rows, count)
    return [slice(k * size + min(k, extra), (k + 1) * size + min(k + 1, extra))
            for k in range(count)]


@functools.cache
def _worker_pool():
    """The package's one thread pool, made on first use.

    One worker per core of the CPU affinity mask (``os.cpu_count()`` where
    there is none); None on a single core, where every task runs inline.
    """
    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:
        workers = os.cpu_count() or 1
    if workers < 2:
        return None
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(workers, thread_name_prefix="zenotraj-workers")


# a forked child inherits the pool but none of its threads
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_worker_pool.cache_clear)


def _pool_map(fn, units):
    """[fn(unit) for unit in units], the units spread over the worker pool.

    At most one task per worker is in flight, so each task's own buffers
    exist at most once per worker; with one unit, or no pool, every call
    runs inline and no thread starts.  The results keep the order of
    ``units``, and the exception raised is that of the earliest failing
    unit; no task outlives the call.
    """
    units = list(units)
    pool = _worker_pool() if len(units) > 1 else None
    if pool is None:
        return [fn(unit) for unit in units]
    results, pending = [], collections.deque()
    try:
        for unit in units:
            if len(pending) == pool._max_workers:
                results.append(pending.popleft().result())
            pending.append(pool.submit(fn, unit))
        while pending:
            results.append(pending.popleft().result())
        return results
    finally:
        from concurrent.futures import wait

        for future in pending:
            future.cancel()
        wait(pending)


@functools.lru_cache(maxsize=None)
def _legendre_rule(order):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def panel_nodes(edges):
    """Order-10 Gauss-Legendre rule on each panel between consecutive ``edges``.

    Returns the nodes mid + half * x as a (panels, order) array, the panel
    half-widths and the weights on [-1, 1]; the panel-weighted sum of f is
    ``sum(half * (f(nodes) @ w))``.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("edges must contain at least two panel boundaries")
    x, w = _legendre_rule(_GL_ORDER)
    half = 0.5 * np.diff(edges)
    mid = edges[:-1] + half
    # mid + half * x, built in one (panels, order) array
    nodes = np.multiply(half[:, None], x)
    nodes += mid[:, None]
    return nodes, half, w


def gauss_legendre_panels(f, edges):
    """Vectorized order-10 Gauss-Legendre quadrature over contiguous panels.

    ``edges`` is an increasing array of panel boundaries; ``f`` must accept an
    ndarray of abscissae. Useful for oscillatory integrands split at their
    natural periods, where adaptive breakpoint lists would be too long.
    """
    nodes, half, w = panel_nodes(edges)
    vals = f(nodes.ravel()).reshape(nodes.shape)
    return float(np.sum(half * (vals @ w)))
