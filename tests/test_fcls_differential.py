"""Differential and partition tests for the FCLS active-set solver.

The active-set refinement solves every still-infeasible pixel of a round
in one stacked ``np.linalg.solve``.  These tests pin it against a frozen
copy of the earlier formulation — pixels grouped by active-endmember
mask, one explicit regularized inverse per distinct mask — kept here as
an oracle only, and check that the solver state gives bit-identical
results on any row partition of the pixels (what lets parallel ranks
reproduce a sequential UFCLS pass).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ufcls import ufcls_pixels
from repro.errors import ConvergenceError
from repro.linalg.fcls import IncrementalFCLS, ScratchFCLS, fcls_abundances
from repro.linalg.osp import brightest_pixel_index

BANDS = 24
VARIANTS = {"incremental": IncrementalFCLS, "reference": ScratchFCLS}


# -- frozen oracle: the per-mask active-set loop ------------------------------


def _oracle_inverse(gram, ridge):
    return np.linalg.inv(gram + np.diag(ridge * np.maximum(1.0, np.diag(gram))))


def _oracle_scls(cross, ginv):
    a_ls = cross @ ginv
    ones = np.ones(ginv.shape[0])
    ginv_one = ginv @ ones
    denom = float(ones @ ginv_one)
    correction = (a_ls.sum(axis=1) - 1.0) / denom
    return a_ls - correction[:, None] * ginv_one[None, :]


def _oracle_refine(result, cross, gram, ridge, rounds):
    n, k = result.shape
    bad = np.flatnonzero((result < -1e-12).any(axis=1))
    if bad.size == 0:
        np.maximum(result, 0.0, out=result)
        return result
    active = np.ones((n, k), dtype=bool)
    active[bad, np.argmin(result[bad], axis=1)] = False
    todo = bad
    for _ in range(rounds):
        if todo.size == 0:
            break
        masks, inverse = np.unique(active[todo], axis=0, return_inverse=True)
        next_todo = []
        for m_idx in range(masks.shape[0]):
            rows = todo[inverse.reshape(-1) == m_idx]
            live = np.flatnonzero(masks[m_idx])
            sub = _oracle_scls(
                cross[rows[:, None], live[None, :]],
                _oracle_inverse(gram[live[:, None], live[None, :]], ridge),
            )
            feasible = ~(sub < -1e-12).any(axis=1)
            done_rows = rows[feasible]
            result[done_rows] = 0.0
            result[done_rows[:, None], live[None, :]] = np.maximum(
                sub[feasible], 0.0
            )
            bad_rows = rows[~feasible]
            if bad_rows.size:
                worst = np.argmin(sub[~feasible], axis=1)
                active[bad_rows, live[worst]] = False
                next_todo.append(bad_rows)
        todo = np.concatenate(next_todo) if next_todo else todo[:0]
    assert todo.size == 0
    np.maximum(result, 0.0, out=result)
    return result


def oracle_fcls(pixels, endmembers, ridge=1e-10):
    pix = np.atleast_2d(np.asarray(pixels, dtype=float))
    end = np.atleast_2d(np.asarray(endmembers, dtype=float))
    cross = pix @ end.T
    gram = end @ end.T
    result = _oracle_scls(cross, _oracle_inverse(gram, ridge))
    return _oracle_refine(result, cross, gram, ridge, end.shape[0] + 1)


def oracle_ufcls_picks(pixels, n_targets):
    picks = [brightest_pixel_index(pixels)]
    for _ in range(1, n_targets):
        end = pixels[picks]
        resid = pixels - oracle_fcls(pixels, end) @ end
        picks.append(int(np.argmax(np.einsum("ij,ij->i", resid, resid))))
    return picks


# -- adversarial inputs --------------------------------------------------------


def _endmembers(rng, k):
    return rng.random((k, BANDS)) + 0.05


def _mixtures(rng, end, n, spread=1.5):
    """Pixels mostly *outside* the simplex, so the active set works."""
    weights = rng.normal(size=(n, end.shape[0])) * spread + 1.0 / end.shape[0]
    return weights @ end + 0.01 * rng.normal(size=(n, BANDS))


def _case(name, seed=11):
    rng = np.random.default_rng(seed)
    if name == "near_collinear":
        end = _endmembers(rng, 4)
        end = np.vstack([end, end[1] + 1e-6 * rng.random(BANDS)])
        return _mixtures(rng, end[:4], 200), end, 1e-10
    if name == "pixel_equals_endmember":
        end = _endmembers(rng, 5)
        pix = _mixtures(rng, end, 100)
        pix[::10] = end[rng.integers(0, 5, 10)]
        return pix, end, 1e-10
    if name == "dynamic_range":
        end = _endmembers(rng, 5)
        scale = 10.0 ** rng.uniform(-6.0, 6.0, (200, 1))
        return _mixtures(rng, end, 200) * scale, end, 1e-10
    if name == "single_endmember":
        end = _endmembers(rng, 1)
        return _mixtures(rng, end, 50), end, 1e-10
    if name == "single_pixel":
        end = _endmembers(rng, 6)
        return _mixtures(rng, end, 1, spread=3.0), end, 1e-10
    if name == "no_ridge":
        end = _endmembers(rng, 6)
        return _mixtures(rng, end, 200), end, 0.0
    if name == "many_endmembers":
        end = _endmembers(rng, 12)
        return _mixtures(rng, end, 300, spread=3.0), end, 1e-10
    raise KeyError(name)


WELL_POSED = [
    "near_collinear",
    "pixel_equals_endmember",
    "dynamic_range",
    "single_endmember",
    "single_pixel",
    "no_ridge",
    "many_endmembers",
]


def _assert_close(got, want, pix, end):
    """Abundances agree to 1e-12, scaled by how far the pixel lies out.

    A pixel ``s`` times brighter than the dimmest endmember has
    unconstrained abundances of order ``s``; the sum-to-one correction
    cancels them back onto the simplex, so either solver's round-off
    grows with ``s`` (a 1e6-bright pixel agrees to ~1e-10 absolute,
    ~1e-16 relative).
    """
    scale = np.linalg.norm(pix, axis=1) / np.linalg.norm(end, axis=1).min()
    tol = 1e-12 * np.maximum(1.0, scale)
    assert (np.abs(got - want).max(axis=1) <= tol).all()


class TestAgainstPerMaskOracle:
    @pytest.mark.parametrize("name", WELL_POSED)
    def test_abundances_agree(self, name):
        pix, end, ridge = _case(name)
        got = fcls_abundances(pix, end, ridge)
        _assert_close(got, oracle_fcls(pix, end, ridge), pix, end)

    def test_duplicated_endmembers_same_support(self):
        # An exact duplicate makes the Gram singular; only the ridge
        # fixes the split between the twin columns, so both solvers
        # carry round-off amplified by cond(damped Gram) ~ 1e10.  They
        # must still agree on every pixel's support and to within the
        # linear-solve forward-error bound cond · eps.
        rng = np.random.default_rng(3)
        end = _endmembers(rng, 4)
        end = np.vstack([end, end[1]])
        pix = _mixtures(rng, end[:4], 200)
        got = fcls_abundances(pix, end)
        want = oracle_fcls(pix, end)
        gram = end @ end.T
        damped = gram + np.diag(1e-10 * np.maximum(1.0, np.diag(gram)))
        cond = np.linalg.cond(damped)
        assert np.array_equal(got > 0, want > 0)
        assert np.abs(got - want).max() <= cond * np.finfo(float).eps
        assert got.min() >= 0.0
        assert np.allclose(got.sum(axis=1), 1.0, atol=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_problems_agree(self, seed):
        rng = np.random.default_rng(100 + seed)
        end = _endmembers(rng, int(rng.integers(2, 10)))
        pix = _mixtures(rng, end, 150, spread=float(rng.uniform(0.5, 4.0)))
        got = fcls_abundances(pix, end)
        _assert_close(got, oracle_fcls(pix, end), pix, end)


def _scene(name, seed=5):
    rng = np.random.default_rng(seed)
    end = _endmembers(rng, 5)
    weights = rng.dirichlet(np.full(5, 0.4), size=160)
    pix = weights @ end + 0.02 * rng.random((160, BANDS))
    if name == "duplicated_pixels":
        return np.vstack([pix, pix[::4]])
    if name == "near_collinear_pixels":
        return np.vstack([pix, pix[::4] + 1e-6 * rng.random((40, BANDS))])
    if name == "pure_pixels":
        pix[::20] = end[np.arange(8) % 5]
        return pix
    if name == "dynamic_range":
        return pix * 10.0 ** rng.uniform(-6.0, 6.0, (160, 1))
    if name == "mixtures":
        return pix
    raise KeyError(name)


class TestUFCLSPicksAgainstOracle:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize(
        "name",
        [
            "mixtures",
            "duplicated_pixels",
            "near_collinear_pixels",
            "pure_pixels",
            "dynamic_range",
        ],
    )
    def test_identical_picks(self, name, variant):
        pix = _scene(name)
        got = ufcls_pixels(pix, 8, variant).flat_indices.tolist()
        assert got == oracle_ufcls_picks(pix, 8)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_two_targets_single_endmember_solve(self, variant):
        pix = _scene("mixtures")
        got = ufcls_pixels(pix, 2, variant).flat_indices.tolist()
        assert got == oracle_ufcls_picks(pix, 2)


class TestActiveSetChecks:
    def test_round_budget_exhausted_raises(self):
        pix, end, ridge = _case("many_endmembers")
        with pytest.raises(ConvergenceError, match="failed to converge"):
            fcls_abundances(pix, end, ridge, max_iter=1)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_solver_state_round_budget(self, variant):
        pix, end, _ = _case("many_endmembers")
        solver = VARIANTS[variant](pix)
        for row in end:
            solver.add_target(row)
        with pytest.raises(ConvergenceError):
            solver.abundances(max_iter=1)


# -- partition independence ----------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    n_pixels=st.integers(min_value=2, max_value=60),
    n_targets=st.integers(min_value=1, max_value=8),
    spread=st.floats(min_value=0.2, max_value=4.0),
    cuts=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=10),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_row_split_bit_identical(n_pixels, n_targets, spread, cuts, seed):
    """Both registry variants give the same bits on any row partition."""
    rng = np.random.default_rng(seed)
    end = _endmembers(rng, n_targets)
    pix = _mixtures(rng, end, n_pixels, spread=spread)
    bounds = sorted({int(c * n_pixels) for c in cuts} - {0, n_pixels})
    for solver_cls in VARIANTS.values():
        whole = solver_cls(pix)
        parts = [solver_cls(p) for p in np.split(pix, bounds)]
        for row in end:
            for state in (whole, *parts):
                state.add_target(row)
            assert np.array_equal(
                whole.abundances(),
                np.concatenate([p.abundances() for p in parts]),
            )
            assert np.array_equal(
                whole.error_image(),
                np.concatenate([p.error_image() for p in parts]),
            )


def test_blocked_solve_bit_identical(monkeypatch):
    """Splitting a round into several stacked solves changes no bits."""
    import repro.linalg.fcls as fcls

    pix, end, ridge = _case("many_endmembers")
    whole = fcls_abundances(pix, end, ridge)
    monkeypatch.setattr(fcls, "_SOLVE_BLOCK", 300)
    assert np.array_equal(fcls_abundances(pix, end, ridge), whole)
