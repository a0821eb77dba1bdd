"""Quadratic-programming kernel: simplex-constrained least squares plus a
Frobenius-nearest PSD projection, and check_pd, the relative-eigenvalue
singularity check every module applies with its own floor and exception.

The simplex solver is a dual active-set method (Goldfarb-Idnani): start at the
unconstrained minimizer, impose the sum-to-one equality first, then add violated
nonnegativity constraints one at a time, taking the dual-feasible step length at
each move. The design dimension K is small, so per-step systems are solved
directly against one Cholesky factorization of W'W. Both entry points take
stacks: `solve_simplex_ls` a matrix of responses against one W'W, checked and
factored once, and `solve_simplex_normal` a stack of normal equations. The
first phase, the unconstrained start and the sum-to-one step, runs for the
whole stack at once, elementwise across its members; in the same function,
one loop then takes the members whose step leaves the simplex, one at a
time, through the rest of the active set.

The PSD projection clips negative eigenvalues at zero. The thresholded
covariances it receives are often positive definite already, and otherwise
have few negative eigenvalues next to p positive ones. So, for large p, a
Cholesky factorization first proves the common PD case for a fraction of an
eigendecomposition's cost. Only when that fails are the nonpositive
eigenpairs, and only those, computed and subtracted. Small matrices take
one full eigendecomposition: there the partial solve does not pay. A
diagonal matrix, which a SCAD level of 1 makes of a covariance, needs
neither: its diagonal is clipped at zero.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve, eigh
from scipy.linalg.lapack import dpotrf

from .errors import DimensionMismatch, MaxIterations, NonFinite, SingularDesign

# Relative eigenvalue threshold below which W'W counts as singular.
_COND_FLOOR = 1e-10
# _is_pd's shift, relative to ||S||_inf; also gls's eigenvalue floor, which
# must equal it for the gate to prove that the floor cannot act.
_PD_GATE = 1e-10
# The active set loop ends once every entry is at least this; the negative
# dust left is clamped to zero before normalizing.
_FEASIBLE = -1e-11
# A step toward a constraint is degenerate when its component along the
# constraint's normal is at most this times max(1, |violation|).
_STEP_FLOOR = 1e-13
# Size from which nearest_psd computes only the nonpositive eigenpairs. Timed
# on one core, that partial solve costs no more than a full eigh at p >= 500
# when up to 22% of the eigenvalues are negative (the median share in
# paper-scale fits, p=300), and loses below: at p=300 it took 14.7 ms to
# eigh's 10.7 ms. Wide and tall fits (p=600, 1200) show at most 13%.
_PARTIAL_EIG_MIN_P = 500


def _as_problem(W, y, ndims=(1,)):
    W = np.asarray(W, dtype=float)
    y = np.asarray(y, dtype=float)
    if W.ndim != 2 or y.ndim not in ndims or W.shape[0] != y.shape[0]:
        raise DimensionMismatch(
            f"design {W.shape} and response {y.shape} are incompatible")
    p, K = W.shape
    if p < K or K < 2:
        raise DimensionMismatch(f"need p >= K >= 2, got p={p}, K={K}")
    if not np.isfinite(W).all() or (y.ndim == 1 and not np.isfinite(y).all()):
        raise NonFinite("design or response contains NaN/Inf")
    return W, y


def check_pd(M, floor: float, exc, msg: str) -> None:
    """Raise exc(msg) unless symmetric M is numerically positive definite.

    M counts as singular when its smallest eigenvalue is at most `floor`
    times its largest, or its largest is not positive. The message gets the
    eigenvalue range appended. A stack M (n, K, K) is checked with one
    batched eigvalsh; the first failing matrix raises, and the message names
    its index."""
    w = np.linalg.eigvalsh(M)
    bad = (w[..., 0] <= floor * w[..., -1]) | (w[..., -1] <= 0.0)
    if not bad.any():
        return
    if bad.ndim:                             # a stack: name its first failure
        i = int(np.argmax(bad))
        w, msg = w[i], f"matrix {i}: {msg}"
    raise exc(f"{msg} (eig range [{w[0]:.3e}, {w[-1]:.3e}])")


def _gram(W):
    G = W.T @ W
    check_pd(G, _COND_FLOOR, SingularDesign, "W'W numerically singular")
    return G


def solve_simplex_ls(W, y, *, names=None) -> np.ndarray:
    """Minimize ||y - W pi||^2 over the probability simplex.

    Returns the unique minimizer with every entry >= 0 and sum exactly 1.
    Raises MaxIterations if the active-set loop exceeds 50*(K+1) changes.

    A 2-D y (p, n) returns the (n, K) minimizers of its columns, each equal
    to its one-column solve: W'W is checked and factored once, and a 1-D y
    is solved as a matrix of one column. Every response is checked before
    any is solved. An error about one column is prefixed with its entry of
    `names` (default "column i").
    """
    W, y = _as_problem(W, y, ndims=(1, 2))

    def name(i):
        return names[i] if names is not None else f"column {i}"

    Y = y.reshape(len(y), -1)
    bad = ~np.isfinite(Y).all(axis=0)
    if bad.any():
        raise NonFinite(f"{name(int(np.argmax(bad)))}: design or response "
                        "contains NaN/Inf")
    L = np.linalg.cholesky(_gram(W))
    # einsum sums each column on its own, in an order that does not depend on
    # how many columns there are (a BLAS product's rounding can)
    a = np.einsum('pk,pn->nk', W, Y)
    pi = _solve_stack(L[None], a, name if y.ndim == 2 else None)
    return pi if y.ndim == 2 else pi[0]


def solve_simplex_normal(G, a) -> np.ndarray:
    """Simplex-constrained minimizer of 0.5 x'Gx - a'x for positive definite G.

    Normal-equation form of solve_simplex_ls: equivalent to it on any design
    with W'W = G and W'y = a. Useful when the design itself is never formed.
    A stack G (n, K, K), a (n, K) returns the (n, K) minimizers, each equal
    to its one-matrix solve; an error about one member names its index.
    """
    G = np.asarray(G, dtype=float)
    a = np.asarray(a, dtype=float)
    if (G.ndim not in (2, 3) or G.shape[-1] != G.shape[-2]
            or a.shape != G.shape[:-1]):
        raise DimensionMismatch(f"incompatible shapes {G.shape} and {a.shape}")
    stack = G.ndim == 3
    bad = ~(np.isfinite(G).all(axis=(-2, -1)) & np.isfinite(a).all(axis=-1))
    if bad.any():
        raise NonFinite((f"matrix {int(np.argmax(bad))}: " if stack else "")
                        + "normal equations contain NaN/Inf")
    G = 0.5 * (G + np.swapaxes(G, -1, -2))
    check_pd(G, _COND_FLOOR, SingularDesign,
             "moment matrix numerically singular")
    K = G.shape[-1]
    L = np.linalg.cholesky(G).reshape(-1, K, K)
    pi = _solve_stack(L, a.reshape(-1, K),
                      (lambda i: f"matrix {i}") if stack else None)
    return pi if stack else pi[0]


def _solve_stack(L, a, name):
    """Simplex minimizers (n, K) of 0.5 x'G_i x - a_i'x for the rows a_i of
    a (n, K), with L (n or 1, K, K) the lower Cholesky factors of the G_i.

    The first phase of the active set, the sum-to-one step from the
    unconstrained start, runs for all rows at once. It is the whole solve
    for a row whose step lands in the simplex. The loop below takes the
    other rows one at a time, from the state the phase left: the equality
    active, with the step length as its multiplier. It adds violated
    nonnegativity constraints, each with the dual-feasible step length,
    until every entry is at least _FEASIBLE. MaxIterations from row i is
    prefixed with name(i), or not at all when name is None."""
    n, K = a.shape
    L = np.broadcast_to(L, (n, K, K))
    X = _cho_solve_rows(L, np.stack([a, np.ones((n, K))], axis=2))
    pi, z = X[:, :, 0], X[:, :, 1]
    viol = 1.0 - _row_sum(pi)
    denom = _row_sum(z)
    ok = _step_ok(denom, viol)
    t = viol / np.where(ok, denom, 1.0)
    pi = pi + t[:, None] * z
    # constraint normals: row 0 is the equality, row k pins pi[k-1] at 0
    E = np.vstack([np.ones(K), np.eye(K)])
    cap = 50 * (K + 1)
    for i in np.flatnonzero(~ok | (pi.min(axis=1) < _FEASIBLE)):
        where = "" if name is None else f"{name(i)}: "
        if not ok[i]:
            raise MaxIterations(where + "no feasible step; constraints "
                                "degenerate")
        # cho_solve's pair for G_i; the solves skip scipy's finiteness checks
        c = (L[i].T, False)
        x, act, u = pi[i], [0], np.array([t[i]])
        changes = 1                          # the first phase's equality
        while not x.min() >= _FEASIBLE:      # a NaN entry stays in the loop
            # take in the most violated constraint, keeping dual feasibility
            idx, uplus = int(np.argmin(x)) + 1, 0.0
            while True:
                changes += 1
                if changes > cap:
                    raise MaxIterations(where + "active-set change cap "
                                        "exceeded")
                # N is C-ordered: its layout picks the BLAS kernel of
                # N.T @ z0, and the kernels round differently
                nplus, N = E[idx], E[act].T.copy()
                z0 = cho_solve(c, nplus, check_finite=False)
                GiN = cho_solve(c, N, check_finite=False)
                r = np.linalg.solve(N.T @ GiN, N.T @ z0)
                z = z0 - GiN @ r
                # the step keeps active entries at zero; pinning them exactly
                # keeps rounding from pushing one below the exit test, which
                # on an ill-conditioned G makes the loop take it in again and
                # cycle
                z[[j - 1 for j in act if j]] = 0.0
                viol = 0.0 - nplus @ x       # 0.0 - keeps a zero unsigned
                # dual blocking step (equality constraint never leaves)
                t1 = np.inf
                drop = -1
                for pos, j in enumerate(act):
                    if j != 0 and r[pos] > _STEP_FLOOR:
                        tj = u[pos] / r[pos]
                        if tj < t1:
                            t1, drop = tj, pos
                denom = nplus @ z
                t2 = viol / denom if _step_ok(denom, viol) else np.inf
                step = min(t1, t2)
                if not np.isfinite(step):
                    raise MaxIterations(where + "no feasible step; "
                                        "constraints degenerate")
                x = x + step * z
                u = u - step * r
                uplus += step
                if t2 <= t1:
                    act.append(idx)
                    u = np.append(u, uplus)
                    break
                # blocked: drop the binding constraint, retry the candidate
                act.pop(drop)
                u = np.delete(u, drop)
        pi[i] = x
    pi = np.maximum(pi, 0.0)                 # dust above the exit test
    return pi / _row_sum(pi)[:, None]


def _step_ok(denom, viol):
    return denom > _STEP_FLOOR * np.maximum(1.0, np.abs(viol))


def _row_sum(M):
    # left to right over the K columns, elementwise over the rows, so a row's
    # sum does not depend on the other rows
    s = M[:, 0].copy()
    for k in range(1, M.shape[1]):
        s += M[:, k]
    return s


def _cho_solve_rows(L, B):
    """X (n, K, r) with L_i L_i' X_i = B_i, for lower factors L (n, K, K),
    by forward and back substitution over the K rows. The arithmetic is
    elementwise across the stack, so each X_i is what a stack of one gives."""
    K = B.shape[1]
    X = np.empty_like(B)
    for j in range(K):
        s = B[:, j]
        for m in range(j):
            s = s - L[:, j, m, None] * X[:, m]
        X[:, j] = s / L[:, j, j, None]
    for j in reversed(range(K)):
        s = X[:, j]
        for m in range(j + 1, K):
            s = s - L[:, m, j, None] * X[:, m]
        X[:, j] = s / L[:, j, j, None]
    return X


def nearest_psd(S) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix to S.

    Symmetrizes, then clips negative eigenvalues at zero (the projection onto
    the PSD cone for the Frobenius norm). Idempotent. A diagonal matrix is
    its own eigendecomposition and gets its diagonal clipped, without
    LAPACK. Below _PARTIAL_EIG_MIN_P rows any other matrix takes a full
    eigendecomposition. From there on, a matrix that passes the Cholesky
    test of _is_pd is returned as it is, and any other has only its
    nonpositive eigenpairs (w_, Q_) computed and gets S - Q_ diag(w_) Q_',
    which is the same projection up to rounding.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] == 0:
        raise DimensionMismatch(
            f"expected a non-empty square matrix, got shape {S.shape}")
    if not np.isfinite(S).all():
        raise NonFinite("matrix contains NaN/Inf")
    S = S + S.T
    S *= 0.5
    d = np.diagonal(S)
    if np.count_nonzero(S) == np.count_nonzero(d):       # S is diagonal
        np.fill_diagonal(S, np.maximum(d, 0.0))
        return S
    if len(S) < _PARTIAL_EIG_MIN_P:
        w, Q = np.linalg.eigh(S)
        if w[0] >= 0.0:
            return S
        S = (Q * np.maximum(w, 0.0)) @ Q.T
    elif _is_pd(S):
        return S
    else:
        w, Q = eigh(S, subset_by_value=(-np.inf, 0.0), driver="evr",
                    check_finite=False)
        if w.size == 0:
            return S
        S -= (Q * w) @ Q.T           # in place: S is the symmetrized copy
    out = S + S.T                    # two p x p arrays at a time from here
    out *= 0.5
    return out


def _is_pd(S) -> bool:
    """Whether S - tau I, tau = _PD_GATE ||S||_inf, has a Cholesky factor.

    The max absolute row sum bounds every eigenvalue, so success proves the
    smallest eigenvalue of S exceeds tau >= 0, with a margin far above the
    rounding of an eigendecomposition."""
    tau = _PD_GATE * np.abs(S).sum(axis=1).max()
    M = S.copy()
    M.flat[::len(S) + 1] -= tau
    # M is symmetric, so M.T is M, Fortran-ordered: factored in place
    return not dpotrf(M.T, lower=1, clean=0, overwrite_a=1)[1]
