"""Dense symmetric-matrix utilities used by the scoring arithmetic.

Everything here works on plain float64 ``numpy`` arrays. The Cholesky factor
is LAPACK's (``numpy.linalg.cholesky``), followed by an explicit pivot
tolerance: it gives us the log-determinant and the inverse for free, and a
clean failure signal when a precision or covariance matrix is not positive
definite. The module needs numpy alone.
"""

from __future__ import annotations

import numpy as np

from .errors import IndexOutOfRangeError, NotPositiveDefiniteError

# A pivot at or below PIVOT_RTOL * max(diagonal) counts as non-positive:
# genuine singularity rather than rounding noise at this problem scale.
PIVOT_RTOL = 1e-12

_SYMMETRY_RTOL = 1e-8


def as_sym(a) -> np.ndarray:
    """Validate a square symmetric matrix and return a float64 copy.

    The first step of :func:`spd_factor`. A principal submatrix of the result
    is itself checked and exactly symmetric, so it can go straight to
    :func:`sym_factor`.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = np.abs(a).max() if a.size else 0.0
    if a.size and np.abs(a - a.T).max() > _SYMMETRY_RTOL * max(scale, 1.0):
        raise ValueError("matrix is not symmetric")
    # Canonicalize tiny asymmetries from accumulated rounding.
    return (a + a.T) / 2.0


def sym_factor(a: np.ndarray) -> np.ndarray:
    """The second step of :func:`spd_factor`: Cholesky-factor a float64
    matrix that :func:`as_sym` returned (or a principal submatrix of one),
    with the same pivot test."""
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("matrix is not positive definite") from None
    pivots = lower.diagonal() ** 2
    tol = PIVOT_RTOL * max(a.diagonal().max(initial=0.0), 0.0)
    if pivots.min(initial=np.inf) <= tol:
        j = int(np.argmax(pivots <= tol))
        raise NotPositiveDefiniteError(
            f"pivot {pivots[j]:.3e} at index {j} is not positive"
        )
    return lower


def spd_factor(a) -> np.ndarray:
    """Cholesky-factor a symmetric positive definite matrix.

    Returns the lower-triangular L with ``L @ L.T == a``. Raises
    :class:`NotPositiveDefiniteError` when the factorization fails or a
    pivot ``L[j, j]**2`` falls at or below ``PIVOT_RTOL`` times the largest
    diagonal entry.
    """
    return sym_factor(as_sym(a))


def sym_log_det(a: np.ndarray) -> float:
    """:func:`log_det` of a matrix that :func:`as_sym` returned (or a
    principal submatrix of one)."""
    return float(2.0 * np.log(sym_factor(a).diagonal()).sum())


def log_det(a) -> float:
    """Natural log of the determinant of a positive definite matrix.

    Computed as twice the log-trace of the Cholesky factor, never via the
    raw determinant, so values like exp(-200) stay representable.
    """
    return sym_log_det(as_sym(a))


def invert_spd(a) -> np.ndarray:
    """Invert a symmetric positive definite matrix via its Cholesky factor:
    with ``a = L L^T``, the inverse is ``L^-T L^-1``."""
    inv_lower = np.linalg.inv(spd_factor(a))
    inv = inv_lower.T @ inv_lower
    return (inv + inv.T) / 2.0


def submatrix(a, keep) -> np.ndarray:
    """Restrict rows and columns to the index sequence ``keep``, in order."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    keep = list(keep)
    for k in keep:
        if not (isinstance(k, (int, np.integer)) and 0 <= k < n):
            raise IndexOutOfRangeError(f"index {k!r} not in [0, {n})")
    if len(set(keep)) != len(keep):
        raise IndexOutOfRangeError(f"duplicate index in {keep}")
    return a[np.ix_(keep, keep)].copy()
