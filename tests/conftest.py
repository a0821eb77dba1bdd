"""Shared reference implementations and reporting helpers for the tests.

The two simplex-LS oracles here are deliberately independent of the package
solver: a projected-gradient iteration and an exhaustive support enumeration.
Next to them sit a KKT certificate and the closed-form equality-constrained
fit, which the interior-optimum checks compare against, the same fit on a
solver's final support by scipy's Cholesky solves, and the one-shot
bias-corrected moment regression that run_decals' recombination must match,
and the dense subject covariances the GLS tests compare the per-type form with.
The JSON float renderer's recursive form, one template and one finiteness
check per matrix, is kept as the oracle the io module's renderer must match.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from decals import covest
from decals.deconv import sandwich
from decals.qp import _as_problem, _gram

# pass/fail lines appended by the acceptance tests, printed at session end
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    rho = np.nonzero(u - css / idx > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def pg_simplex_ls(W: np.ndarray, y: np.ndarray, max_iter: int = 200_000,
                  tol: float = 1e-14) -> np.ndarray:
    """Projected gradient on 0.5*||y - Wx||^2 over the simplex.

    Fixed step 1/L with L the largest Gram eigenvalue; stops at a projection
    fixed point. Slow but independent of the active-set solver."""
    G = W.T @ W
    a = W.T @ y
    L = np.linalg.eigvalsh(G)[-1]
    x = np.full(W.shape[1], 1.0 / W.shape[1])
    for _ in range(max_iter):
        grad = G @ x - a
        xn = project_simplex(x - grad / L)
        if np.abs(xn - x).max() < tol:
            return xn
        x = xn
    return x


def one_sandwich(W, Sigma) -> np.ndarray:
    """Sandwich covariance of sqrt(p) * (estimate - truth) for one sample
    with subject covariance Sigma (p, p): `sandwich` on a stack of one."""
    return sandwich(W, np.asarray(Sigma, dtype=float)[None], np.ones((1, 1)))[0]


def subject_covariance(proportions, cts) -> np.ndarray:
    """Dense subject covariances sum_k pi_k^2 Sigma^(k), shape (..., p, p),
    of proportions (..., K) and per-type covariances cts (K, p, p), all
    formed at once: the stack the GLS (S, H) form builds a chunk at a time."""
    pi = np.asarray(proportions, dtype=float)
    return np.einsum('...k,kpq->...pq', pi ** 2, np.asarray(cts, dtype=float))


def json_floats_oracle(a: np.ndarray) -> str:
    """A float array as nested JSON lists: one % over a template per
    matrix, rebuilt for each, with the non-finite tokens swapped per matrix."""
    if a.ndim > 2:
        return "[" + ", ".join(json_floats_oracle(m) for m in a) + "]"
    tmpl = "%.16e"
    for dim in reversed(a.shape):
        tmpl = "[" + ", ".join([tmpl] * dim) + "]"
    text = tmpl % tuple(a.ravel().tolist())
    if not np.isfinite(a).all():
        for tok in ("-inf", "inf", "nan"):
            text = text.replace(tok, "null")
    return text


def solve_equality_ls(W, y) -> np.ndarray:
    """Minimize ||y - W pi||^2 subject only to sum(pi) = 1.

    Closed form: shift the unconstrained solution along G^{-1} 1 until the
    constraint holds. Entries may be negative.
    """
    W, y = _as_problem(W, y)
    G = _gram(W)
    c = cho_factor(G)
    pit = cho_solve(c, W.T @ y)
    g1 = cho_solve(c, np.ones(len(pit)))
    pi = pit - g1 * ((pit.sum() - 1.0) / g1.sum())
    # guard against rounding in the shift itself
    pi[-1] += 1.0 - pi.sum()
    return pi


def cho_support_solution(G, a, pi) -> np.ndarray:
    """The minimizer of 0.5 x'Gx - a'x with sum(x) = 1 and x = 0 where pi
    is at most 1e-12 (rounding dust), by scipy's Cholesky solves against G
    restricted to pi's support: the system an active-set solver that ends
    on that support has solved."""
    S = np.flatnonzero(pi > 1e-12)
    c = cho_factor(np.asarray(G, dtype=float)[np.ix_(S, S)])
    g = cho_solve(c, np.asarray(a, dtype=float)[S])
    h = cho_solve(c, np.ones(len(S)))
    x = np.zeros(len(pi))
    x[S] = g - h * ((g.sum() - 1.0) / h.sum())
    return x


def kkt_residual(W, y, pi) -> float:
    """Max KKT violation of pi for the simplex problem; small means optimal.

    Checks stationarity (gradient equal across strictly positive coordinates,
    no smaller on zero coordinates), primal feasibility, and nonnegativity.
    """
    W = np.asarray(W, dtype=float)
    y = np.asarray(y, dtype=float)
    pi = np.asarray(pi, dtype=float)
    g = W.T @ (W @ pi - y)
    free = pi > 1e-10
    mu = g[free].mean() if free.any() else g.min()
    res = abs(pi.sum() - 1.0)
    res = max(res, float(-pi.min()) if pi.min() < 0 else 0.0)
    if free.any():
        res = max(res, float(np.abs(g[free] - mu).max()))
    if (~free).any():
        res = max(res, float(max(0.0, (mu - g[~free]).max())))
    return res


def enum_simplex_ls(W: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact solution by enumerating supports (exponential in K; K small).

    For every nonempty support solve the equality-constrained stationarity
    system; the best feasible candidate is the optimum."""
    G = W.T @ W
    a = W.T @ y
    K = len(a)
    best, best_obj = None, np.inf
    for mask in range(1, 2 ** K):
        S = [k for k in range(K) if mask >> k & 1]
        m = len(S)
        kkt = np.zeros((m + 1, m + 1))
        kkt[:m, :m] = 2.0 * G[np.ix_(S, S)]
        kkt[:m, m] = 1.0
        kkt[m, :m] = 1.0
        rhs = np.concatenate([2.0 * a[S], [1.0]])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            continue
        x = np.zeros(K)
        x[S] = sol[:m]
        if x.min() < -1e-12:
            continue
        x = np.clip(x, 0.0, None)
        x /= x.sum()
        obj = x @ G @ x - 2.0 * a @ x
        if obj < best_obj:
            best, best_obj = x, obj
    return best


def random_instance(rng, K=None, p=None, spread=1.0):
    """Random (W, y) with a mix of interior and boundary optima."""
    K = K if K is not None else int(rng.integers(2, 7))
    p = p if p is not None else int(rng.integers(K + 2, 50))
    W = rng.normal(0.0, 1.0, (p, K))
    if rng.random() < 0.5:
        pi = rng.dirichlet(np.ones(K))
        y = W @ pi + spread * rng.normal(0.0, 1.0, p)
    else:
        y = spread * rng.normal(0.0, 2.0, p)
    return W, y


def cts_covariance_corrected(H_hat, Z, B1, B2) -> np.ndarray:
    """Bias-corrected covariance estimates, (K, p, p), symmetrized.

    Solves {H'H - B1} C = (H - B2)' and assembles sum_i C_ki z_i z_i'.
    Raises SingularCorrectedMoment when H'H - B1 is not positive definite."""
    H = np.asarray(H_hat, dtype=float)
    Z = np.asarray(Z, dtype=float)
    C = np.linalg.solve(covest._corrected_moment(H, B1), (H - B2).T)
    return covest._moments(Z, C.T)
