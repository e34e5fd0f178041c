"""Least-squares linear unmixing solvers.

UFCLS (Algorithm 3) scores every pixel by the residual of its *fully
constrained* linear-mixture fit against the current target set: the
abundances must be non-negative and sum to one.  We provide the
unconstrained (LS), sum-to-one (SCLS, closed form via a Lagrange
multiplier), non-negative (NNLS), and fully constrained (FCLS,
Heinz–Chang style active-set iteration on top of SCLS) solvers, plus
the reconstruction-error map UFCLS consumes.

The FCLS path is vectorized over pixels: the SCLS solve is a single
batched linear-algebra expression, and each active-set round solves all
pixels whose solution went negative in one stacked ``np.linalg.solve``.
Every product is computed per pixel row (``einsum`` rather than BLAS
``@``, whose summation order varies with the row count), so a pixel's
result does not depend on which other pixels share its batch — the
property that lets partitioned ranks reproduce a sequential pass
bit-for-bit.  Non-finite pixels or endmembers raise :class:`DataError`.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

from repro.errors import ConvergenceError, DataError, ShapeError
from repro.types import FloatArray

__all__ = [
    "ls_abundances",
    "scls_abundances",
    "nnls_abundances",
    "fcls_abundances",
    "reconstruction_error",
    "IncrementalFCLS",
    "ScratchFCLS",
]


def _require_finite(values: FloatArray, what: str) -> None:
    """Raise :class:`DataError` naming ``what`` if it holds NaN or inf.

    A single non-finite pixel otherwise poisons every sum it enters: the
    error image turns NaN and ``argmax`` silently returns garbage picks.
    """
    finite = np.isfinite(values)
    if not finite.all():
        rows = np.flatnonzero(~finite.all(axis=1))
        raise DataError(
            f"{what} contain non-finite values (NaN or inf) in "
            f"{rows.size} row(s), first at row {int(rows[0])}"
        )


def _validate(pixels: FloatArray, endmembers: FloatArray) -> tuple[FloatArray, FloatArray]:
    pix = np.asarray(pixels, dtype=float)
    end = np.asarray(endmembers, dtype=float)
    if pix.ndim == 1:
        pix = pix[None, :]
    if end.ndim == 1:
        end = end[None, :]
    if pix.ndim != 2 or end.ndim != 2:
        raise ShapeError(
            f"pixels and endmembers must be 2-D, got {pix.shape} and {end.shape}"
        )
    if pix.shape[1] != end.shape[1]:
        raise ShapeError(
            f"band mismatch: pixels {pix.shape[1]} vs endmembers {end.shape[1]}"
        )
    if end.shape[0] == 0:
        raise DataError("need at least one endmember")
    _require_finite(pix, "pixels")
    _require_finite(end, "endmembers")
    return pix, end


def _solver_pixels(pixels: FloatArray) -> FloatArray:
    """Validate the ``(n, bands)`` pixel matrix a UFCLS solver state holds."""
    pix = np.asarray(pixels, dtype=float)
    if pix.ndim == 1:
        pix = pix[None, :]
    if pix.ndim != 2:
        raise ShapeError(f"expected (n, bands), got {pix.shape}")
    _require_finite(pix, "pixels")
    return pix


def _target_signature(signature: FloatArray, bands: int) -> FloatArray:
    """Validate one target row about to join a solver's target set."""
    sig = np.asarray(signature, dtype=float).reshape(-1)
    if sig.shape[0] != bands:
        raise ShapeError(
            f"signature has {sig.shape[0]} bands, expected {bands}"
        )
    _require_finite(sig[None, :], "target signature")
    return sig


def _reg_inverse(gram: FloatArray, ridge: float) -> FloatArray:
    # A tiny ridge keeps near-collinear target sets (common once ATDCA/UFCLS
    # have extracted many similar spectra) numerically solvable.  The damping
    # is per-entry (``ridge·max(1, G_jj)``, Levenberg–Marquardt style): entry
    # ``j``'s regularization depends only on target ``j``, never on later
    # additions, which is what lets :class:`IncrementalFCLS` grow the inverse
    # by rank-1 bordering and still invert *exactly* the same matrix as this
    # from-scratch path.
    damped = gram + np.diag(ridge * np.maximum(1.0, np.diag(gram)))
    return np.linalg.inv(damped)


def _gram_inverse(end: FloatArray, ridge: float) -> FloatArray:
    return _reg_inverse(end @ end.T, ridge)


def _scls_from_cross(cross: FloatArray, ginv: FloatArray) -> FloatArray:
    """The closed-form SCLS solution from cross-products alone.

    ``cross`` is ``pixels @ endmembers.T`` (``(n, k)``) and ``ginv`` the
    (regularized) Gram inverse — everything the Lagrange formula needs,
    so callers that already hold these products skip the O(n·bands·k)
    design-matrix work entirely.
    """
    a_ls = np.einsum("ij,jk->ik", cross, ginv)  # (n, k)
    ones = np.ones(ginv.shape[0])
    ginv_one = ginv @ ones  # (k,)
    denom = float(ones @ ginv_one)
    if abs(denom) < 1e-300:
        raise DataError("sum-to-one constraint is degenerate for these endmembers")
    correction = (a_ls.sum(axis=1) - 1.0) / denom
    return a_ls - correction[:, None] * ginv_one[None, :]


#: Cap on sub-Gram entries per stacked solve: a round's transient memory
#: stays O(block) instead of O(n·k²) on full frames (one block at the
#: benchmark and microbench scales).
_SOLVE_BLOCK = 1 << 18


def _stacked_scls(
    cross: FloatArray, live: np.ndarray, gram: FloatArray, damping: FloatArray
) -> FloatArray:
    """SCLS of ``m`` pixels, each over its own ``c`` live endmembers.

    ``live`` is ``(m, c)`` endmember indices and ``cross`` the matching
    ``(m, c)`` cross-products.  One batched ``np.linalg.solve`` of the
    damped sub-Grams (:func:`_reg_inverse`'s per-entry damping) against
    ``[x_L, 1]`` yields ``G⁻¹x`` and ``G⁻¹1`` per pixel — all the
    Lagrange formula needs.  Each pixel's solve is independent of the
    rest of the batch, so results do not depend on the batch's rows.
    """
    m, c = live.shape
    sub_gram = gram[live[:, :, None], live[:, None, :]]
    diag = np.arange(c)
    sub_gram[:, diag, diag] += damping[live]
    rhs = np.empty((m, c, 2))
    rhs[:, :, 0] = cross
    rhs[:, :, 1] = 1.0
    sol = np.linalg.solve(sub_gram, rhs)
    a_ls, ginv_one = sol[:, :, 0], sol[:, :, 1]
    denom = ginv_one.sum(axis=1)
    if (np.abs(denom) < 1e-300).any():
        raise DataError(
            "sum-to-one constraint is degenerate for these endmembers"
        )
    return a_ls - ((a_ls.sum(axis=1) - 1.0) / denom)[:, None] * ginv_one


def _active_set_refine(
    result: FloatArray,
    cross: FloatArray,
    gram: FloatArray,
    ridge: float,
    rounds: int,
) -> FloatArray:
    """Heinz–Chang active-set refinement on top of a full SCLS solve.

    Every still-infeasible pixel has dropped exactly one endmember per
    round, so at round ``r`` all of them share the live count
    ``c = k − 1 − r`` and the round is one stacked SCLS over them
    (:func:`_stacked_scls`, in blocks of at most ``_SOLVE_BLOCK``
    sub-Gram entries).  A sub-problem reads only ``cross[p, live]`` and
    ``gram[live][:, live]`` — the same floats as recomputing
    ``pix[p] @ end[live].T`` from scratch.  Pixels that come out
    feasible are done; the rest drop their most negative abundance.

    Mutates and returns ``result`` with all abundances non-negative.
    """
    n, k = result.shape
    todo = np.flatnonzero((result < -1e-12).any(axis=1))
    active = np.ones((n, k), dtype=bool)
    # Round 0 already solved the all-active case; record first drops.
    active[todo, np.argmin(result[todo], axis=1)] = False
    damping = ridge * np.maximum(1.0, np.diag(gram))

    for r in range(rounds):
        if todo.size == 0:
            break
        c = k - 1 - r
        if c <= 0:
            raise ConvergenceError(
                "FCLS active-set iteration emptied an active set"
            )
        live = np.nonzero(active[todo])[1].reshape(todo.size, c)
        sub_cross = cross[todo[:, None], live]
        step = max(1, _SOLVE_BLOCK // (c * c))
        sub = np.concatenate([
            _stacked_scls(
                sub_cross[lo:lo + step], live[lo:lo + step], gram, damping
            )
            for lo in range(0, todo.size, step)
        ])
        infeasible = (sub < -1e-12).any(axis=1)
        done = ~infeasible
        rows = todo[done]
        result[rows] = 0.0
        result[rows[:, None], live[done]] = np.maximum(sub[done], 0.0)
        todo = todo[infeasible]
        worst = np.argmin(sub[infeasible], axis=1)
        active[todo, live[infeasible, worst]] = False
    if todo.size:
        raise ConvergenceError(
            f"FCLS failed to converge for {todo.size} pixel(s) in "
            f"{rounds} rounds"
        )
    np.maximum(result, 0.0, out=result)
    return result


def ls_abundances(
    pixels: FloatArray, endmembers: FloatArray, ridge: float = 1e-10
) -> FloatArray:
    """Unconstrained least-squares abundances → ``(n, k)``.

    Solves ``min_a ‖x − aᵀE‖²`` per pixel for endmember matrix ``E``
    (rows are signatures).
    """
    pix, end = _validate(pixels, endmembers)
    ginv = _gram_inverse(end, ridge)
    return pix @ end.T @ ginv


def scls_abundances(
    pixels: FloatArray, endmembers: FloatArray, ridge: float = 1e-10
) -> FloatArray:
    """Sum-to-one constrained least squares (closed form) → ``(n, k)``.

    Lagrange solution:
    ``a = a_ls − G⁻¹1 (1ᵀa_ls − 1) / (1ᵀG⁻¹1)`` with ``G = EEᵀ``.
    Abundances may still be negative; FCLS fixes that.
    """
    pix, end = _validate(pixels, endmembers)
    ginv = _gram_inverse(end, ridge)
    return _scls_from_cross(pix @ end.T, ginv)


def nnls_abundances(pixels: FloatArray, endmembers: FloatArray) -> FloatArray:
    """Non-negative least squares per pixel (scipy NNLS) → ``(n, k)``."""
    pix, end = _validate(pixels, endmembers)
    out = np.empty((pix.shape[0], end.shape[0]))
    design = np.ascontiguousarray(end.T)  # (bands, k)
    for i in range(pix.shape[0]):
        out[i], _ = scipy.optimize.nnls(design, pix[i])
    return out


def fcls_abundances(
    pixels: FloatArray,
    endmembers: FloatArray,
    ridge: float = 1e-10,
    max_iter: int | None = None,
) -> FloatArray:
    """Fully constrained (non-negative, sum-to-one) abundances → ``(n, k)``.

    Batched active-set iteration: each round solves every
    still-infeasible pixel's SCLS over its own live endmembers in one
    stacked linear solve, and deactivates each pixel's most negative
    abundance.  With ``k`` endmembers a pixel converges in at most
    ``k − 1`` drops, so the whole solve is at most ``k`` batched
    linear-algebra steps whatever mix of active sets the pixels reach.
    """
    pix, end = _validate(pixels, endmembers)
    k = end.shape[0]
    rounds = max_iter if max_iter is not None else k + 1
    cross = np.einsum("ij,kj->ik", pix, end)
    gram = end @ end.T
    result = _scls_from_cross(cross, _reg_inverse(gram, ridge))
    return _active_set_refine(result, cross, gram, ridge, rounds)


def reconstruction_error(
    pixels: FloatArray, endmembers: FloatArray, abundances: FloatArray
) -> FloatArray:
    """Per-pixel squared reconstruction error ``‖x − aᵀE‖²`` → ``(n,)``.

    This is the UFCLS 'error image' score: the pixel worst explained by
    the current target set becomes the next target.
    """
    pix, end = _validate(pixels, endmembers)
    ab = np.asarray(abundances, dtype=float)
    if ab.shape != (pix.shape[0], end.shape[0]):
        raise ShapeError(
            f"abundances shape {ab.shape} does not match "
            f"({pix.shape[0]}, {end.shape[0]})"
        )
    resid = pix - np.einsum("ij,jk->ik", ab, end)
    return np.einsum("ij,ij->i", resid, resid)


class ScratchFCLS:
    """Reference UFCLS state: a from-scratch FCLS solve per error query.

    Presents the same ``add_target``/``error_image`` surface as
    :class:`IncrementalFCLS` (the ``fcls_solve`` registry protocol) but
    carries no cross-products or Gram inverse — every
    :meth:`error_image` call rebuilds the design matrix, solves
    :func:`fcls_abundances`, and forms the residual
    :func:`reconstruction_error` directly.  This is the rank-tolerant
    baseline: near-collinear target sets go through the one fully
    regularized solve instead of a bordering update plus guard, and the
    microbench verifies the incremental variant against the picks this
    one makes.  Batch-size independent, like the incremental state.
    """

    def __init__(self, pixels: FloatArray, ridge: float = 1e-10) -> None:
        self._pix = _solver_pixels(pixels)
        self._ridge = float(ridge)
        self._targets: list[FloatArray] = []

    @property
    def count(self) -> int:
        """Targets added so far."""
        return len(self._targets)

    def add_target(self, signature: FloatArray) -> None:
        """Append one target row (validated against the band count)."""
        sig = _target_signature(signature, self._pix.shape[1])
        if not self._targets and float(sig @ sig) == 0.0:
            raise DataError("cannot add an all-zero first target")
        self._targets.append(sig)

    def abundances(self, max_iter: int | None = None) -> FloatArray:
        """FCLS abundances of every pixel against the current targets."""
        if not self._targets:
            raise DataError("need at least one endmember")
        end = np.vstack(self._targets)
        return fcls_abundances(self._pix, end, self._ridge, max_iter)

    def error_image(self, max_iter: int | None = None) -> FloatArray:
        """The UFCLS error image, formed from the explicit residual."""
        if not self._targets:
            raise DataError("need at least one endmember")
        end = np.vstack(self._targets)
        ab = fcls_abundances(self._pix, end, self._ridge, max_iter)
        return reconstruction_error(self._pix, end, ab)


class IncrementalFCLS:
    """Incremental UFCLS state: cross-products and the Gram inverse are
    carried across iterations as the target set grows one row at a time.

    Per added target this computes one ``pixels @ signature`` product
    (O(n·bands)) and a rank-1 *bordering* update of the regularized Gram
    inverse (O(t²)); the per-iteration FCLS error image is then solved
    entirely from cached cross-products — O(n·t²) instead of the
    from-scratch O(n·bands·t).  Because :func:`_reg_inverse` damps each
    diagonal entry independently of later additions, the bordered update
    inverts *exactly* the same matrix as the from-scratch path.

    Bypass: when the new target's Schur complement is not safely
    positive (a numerically dependent / near-collinear signature), the
    bordering update would amplify round-off, so the inverse is
    recomputed from scratch for that step instead.

    The per-pixel arithmetic is row-independent (see the module
    docstring), so partitioned ranks reproduce a sequential pass
    bit-for-bit — pinned on random row splits by
    ``tests/test_fcls_differential.py``.
    """

    #: Relative Schur-complement floor below which bordering falls back
    #: to a from-scratch inverse.
    SCHUR_GUARD = 1e-9

    def __init__(self, pixels: FloatArray, ridge: float = 1e-10) -> None:
        pix = _solver_pixels(pixels)
        self._pix = pix
        self._ridge = float(ridge)
        self._total = np.einsum("ij,ij->i", pix, pix)
        self._end = np.empty((0, pix.shape[1]))
        self._cross = np.empty((pix.shape[0], 0))
        self._gram = np.empty((0, 0))
        self._minv = np.empty((0, 0))

    @property
    def count(self) -> int:
        """Targets added so far."""
        return self._end.shape[0]

    @property
    def gram_inverse(self) -> FloatArray:
        """The maintained inverse of the regularized Gram matrix."""
        return self._minv

    def add_target(self, signature: FloatArray) -> None:
        """Grow the target set by one signature (O(n·bands) + O(t²))."""
        sig = _target_signature(signature, self._pix.shape[1])
        k = self.count
        b = self._end @ sig  # (k,) new Gram column
        c = float(sig @ sig)
        new_gram = np.empty((k + 1, k + 1))
        new_gram[:k, :k] = self._gram
        new_gram[:k, k] = b
        new_gram[k, :k] = b
        new_gram[k, k] = c
        damped_c = c + self._ridge * max(1.0, c)
        if k == 0:
            if damped_c == 0.0:
                raise DataError("cannot add an all-zero first target")
            minv = np.array([[1.0 / damped_c]])
        else:
            u = self._minv @ b
            schur = damped_c - float(b @ u)
            if schur <= self.SCHUR_GUARD * damped_c:
                # Bypass: near-collinear addition — bordering would
                # amplify round-off; rebuild the inverse from scratch.
                minv = _reg_inverse(new_gram, self._ridge)
            else:
                minv = np.empty((k + 1, k + 1))
                minv[:k, :k] = self._minv + np.outer(u, u) / schur
                minv[:k, k] = -u / schur
                minv[k, :k] = -u / schur
                minv[k, k] = 1.0 / schur
        self._gram = new_gram
        self._minv = minv
        self._end = np.vstack([self._end, sig[None, :]])
        self._cross = np.concatenate(
            [self._cross, np.einsum("ij,j->i", self._pix, sig)[:, None]],
            axis=1,
        )

    def abundances(self, max_iter: int | None = None) -> FloatArray:
        """FCLS abundances of every pixel against the current targets."""
        if self.count == 0:
            raise DataError("need at least one endmember")
        rounds = max_iter if max_iter is not None else self.count + 1
        result = _scls_from_cross(self._cross, self._minv)
        return _active_set_refine(
            result, self._cross, self._gram, self._ridge, rounds
        )

    def error_image(self, max_iter: int | None = None) -> FloatArray:
        """The UFCLS error image from cached products → ``(n,)``.

        Uses the expansion ``‖x − aᵀE‖² = ‖x‖² − 2a·(Ex) + aᵀGa`` so no
        O(n·bands) reconstruction is formed; clipped at zero to absorb
        the round-off the expansion admits where the residual vanishes.
        """
        ab = self.abundances(max_iter)
        ab_gram = np.einsum("ij,jk->ik", ab, self._gram)
        err = (
            self._total
            - 2.0 * np.einsum("ij,ij->i", ab, self._cross)
            + np.einsum("ij,ij->i", ab_gram, ab)
        )
        return np.maximum(err, 0.0)
