"""Spectral radii rho(G) and q(G), closed forms, and bound inequalities.

rho(G) is the largest eigenvalue of the adjacency matrix A; q(G) is the
largest eigenvalue of the signless Laplacian Q = A + D.  The default backend
is the dense symmetric LAPACK eigensolver at every order (deterministic,
residuals near machine precision); a self-contained cyclic Jacobi-rotation
solver is provided as an independent recomputation route, and shifted power
iteration runs only on request (``method="power"``).

A single comparison tolerance (1e-9) is used wherever a computed eigenvalue
meets a closed form or another computed eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .graphs import Graph, as_graph, bipartition, bits

__all__ = [
    "DEFAULT_TOL",
    "SpectralResult",
    "ConvergenceError",
    "BoundRecord",
    "BoundReport",
    "adjacency_matrix",
    "signless_laplacian_matrix",
    "jacobi_eigenvalues",
    "spectral_radius",
    "q_radius",
    "closed_form",
    "rho_complete",
    "q_complete",
    "rho_complete_bipartite",
    "q_complete_bipartite",
    "rho_complete_split",
    "bound_report",
    "radius_intervals",
    "BOUND_IDS",
]

DEFAULT_TOL = 1e-9


def _check_tol(tol: float) -> float:
    """tol itself; ValueError unless it is finite and >= 0 (NaN passes no comparison)."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")
    return tol


@dataclass(frozen=True)
class SpectralResult:
    """An extreme-eigenvalue computation with its quality evidence.

    ``method`` is one of dense_eigensolver, power_iteration, closed_form.
    ``residual`` is ||Mx - lambda*x||_inf for the returned eigenpair.
    """

    value: float
    method: str
    residual: float
    iterations: int


class ConvergenceError(RuntimeError):
    """Eigensolver hit its iteration cap; carries the best estimate."""

    def __init__(self, message: str, best: float, residual: float):
        super().__init__(f"{message} (best estimate {best:.12g}, residual {residual:.3g})")
        self.best = best
        self.residual = residual


def adjacency_matrix(g: Graph) -> np.ndarray:
    return g.matrix()

def signless_laplacian_matrix(g: Graph) -> np.ndarray:
    a = g.matrix()
    a[np.diag_indices_from(a)] = a.sum(axis=1)
    return a


# ---------------------------------------------------------------------------
# Eigensolvers
# ---------------------------------------------------------------------------

def jacobi_eigenvalues(
    m, tol: float = 1e-12, max_sweeps: int = 100
) -> tuple[np.ndarray, np.ndarray, int]:
    """Cyclic Jacobi rotation sweeps on a symmetric matrix.

    Sweeps run until the off-diagonal Frobenius norm drops below ``tol``.
    Returns (eigenvalues ascending, eigenvector columns, sweeps).  Raises
    ConvergenceError after ``max_sweeps`` (never observed in practice: the
    method converges quadratically).
    """
    a = np.array(m, dtype=float)
    n = a.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0)), 0
    v = np.eye(n)
    sweeps = 0
    diag_idx = np.arange(n)
    for sweeps in range(1, max_sweeps + 1):
        offm = a.copy()
        offm[diag_idx, diag_idx] = 0.0
        off = float(np.linalg.norm(offm))
        if off < tol:
            sweeps -= 1
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                diff = a[q, q] - a[p, p]
                if abs(apq) < 1e-150 * max(1.0, abs(diff)):
                    continue  # negligible pivot; rotating it would over/underflow
                theta = diff / (2.0 * apq)
                if abs(theta) > 1e150:
                    t = 1.0 / (2.0 * theta)
                else:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                ap = a[:, p].copy()
                aq = a[:, q].copy()
                a[:, p] = c * ap - s * aq
                a[:, q] = s * ap + c * aq
                ap = a[p, :].copy()
                aq = a[q, :].copy()
                a[p, :] = c * ap - s * aq
                a[q, :] = s * ap + c * aq
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    else:
        w = np.diag(a)
        i = int(np.argmax(w))
        res = float(np.max(np.abs(np.asarray(m) @ v[:, i] - w[i] * v[:, i])))
        raise ConvergenceError("Jacobi sweeps did not converge", float(w[i]), res)
    w = np.diag(a).copy()
    order = np.argsort(w)
    return w[order], v[:, order], sweeps


def _top_eigenpair_lapack(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of symmetric m and an eigenvector for it.

    The value comes from LAPACK's values-only solver (eigvalsh, the routine
    the harness batches), the vector from one inverse-iteration solve with
    (lam + s) I - m.  The shift s = 1e-13 max(1, |lam|) is some 450 ulps,
    above eigvalsh's error, so the system is positive definite, and the
    residual it leaves is below 1e-13 lam.  The shifted matrix is formed in
    m's own buffer and m is restored exactly afterwards: at most two n x n
    buffers are live at once, where eigh with eigenvectors needs five.
    """
    n = m.shape[0]
    lam = float(np.linalg.eigvalsh(m)[-1])
    diag = np.diag_indices(n)
    d = m[diag]
    np.negative(m, out=m)
    m[diag] = lam + 1e-13 * max(1.0, abs(lam)) - d
    x = np.linalg.solve(m, np.ones(n))  # ones is not orthogonal to the Perron vector
    np.negative(m, out=m)
    m[diag] = d
    return lam, x / np.linalg.norm(x)


def _power_iteration(
    m: np.ndarray, tol: float = 1e-10, max_iter: int = 100_000
) -> tuple[float, np.ndarray, int]:
    """Power iteration on a symmetric PSD-shifted matrix.

    The start vector is strictly positive, so for nonnegative matrices it is
    never orthogonal to the Perron vector.
    """
    n = m.shape[0]
    x = np.ones(n) + np.arange(n) / (10.0 * n)
    x /= np.linalg.norm(x)
    lam = 0.0
    for it in range(1, max_iter + 1):
        y = m @ x
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return 0.0, x, it
        x = y / norm
        lam = float(x @ (m @ x))
        res = float(np.max(np.abs(m @ x - lam * x)))
        if res < tol:
            return lam, x, it
    raise ConvergenceError("power iteration did not converge", lam, res)


def _extreme(g: Graph, which: str, method: str) -> SpectralResult:
    """Shared driver for rho (which='adjacency') and q (which='signless')."""
    if g.n < 1:
        raise ValueError("spectral radius undefined on the 0-vertex graph")
    if g.edge_count == 0:
        return SpectralResult(0.0, "closed_form", 0.0, 0)
    m = adjacency_matrix(g) if which == "adjacency" else signless_laplacian_matrix(g)
    if method in ("auto", "lapack"):
        lam, x = _top_eigenpair_lapack(m)
        res = float(np.max(np.abs(m @ x - lam * x)))
        return SpectralResult(lam, "dense_eigensolver", res, 1)
    if method == "jacobi":
        w, v, sweeps = jacobi_eigenvalues(m)
        lam = float(w[-1])
        x = v[:, -1]
        res = float(np.max(np.abs(m @ x - lam * x)))
        return SpectralResult(lam, "dense_eigensolver", res, sweeps)
    if method == "power":
        if which == "adjacency":
            # Shift by nI so the extreme adjacency eigenvalue is on top even
            # for bipartite spectra (symmetric about 0).
            shifted = m + g.n * np.eye(g.n)
            try:
                lam, x, it = _power_iteration(shifted)
            except ConvergenceError as exc:
                raise ConvergenceError(
                    "power iteration did not converge", exc.best - g.n, exc.residual
                ) from None
            lam -= g.n
        else:
            lam, x, it = _power_iteration(m)  # Q is PSD: top eigenvalue dominates
        res = float(np.max(np.abs(m @ x - lam * x)))
        return SpectralResult(lam, "power_iteration", res, it)
    raise ValueError(f"unknown method {method!r}")


def spectral_radius(g, method: str = "auto") -> SpectralResult:
    """rho(G): largest adjacency eigenvalue (0 for edgeless graphs)."""
    return _extreme(as_graph(g), "adjacency", method)


def q_radius(g, method: str = "auto") -> SpectralResult:
    """q(G): largest signless-Laplacian eigenvalue (0 for edgeless graphs)."""
    return _extreme(as_graph(g), "signless", method)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def rho_complete(m: int) -> float:
    if m < 1:
        raise ValueError("complete graph needs m >= 1")
    return float(m - 1)


def q_complete(m: int) -> float:
    if m < 1:
        raise ValueError("complete graph needs m >= 1")
    return float(2 * m - 2)


def rho_complete_bipartite(a: int, b: int) -> float:
    if a < 0 or b < 0:
        raise ValueError("side sizes must be nonnegative")
    return math.sqrt(a * b)


def q_complete_bipartite(a: int, b: int) -> float:
    if a < 0 or b < 0:
        raise ValueError("side sizes must be nonnegative")
    if a * b == 0:
        return 0.0
    return float(a + b)


def rho_complete_split(n: int, k: int) -> float:
    """rho of the complete split graph K_k v (n-2k)K_1 (order n-k).

    Valid for 1 <= k <= (n-1)/2.
    """
    if not (1 <= k and 2 * k <= n - 1):
        raise ValueError(f"complete split graph needs 1 <= k <= (n-1)/2, got n={n}, k={k}")
    disc = 4 * k * (n - k) - (3 * k - 1) * (k + 1)
    return (k - 1 + math.sqrt(disc)) / 2.0


_CLOSED_FORMS = {
    ("rho", "complete"): (rho_complete, ("m",)),
    ("q", "complete"): (q_complete, ("m",)),
    ("rho", "complete_bipartite"): (rho_complete_bipartite, ("a", "b")),
    ("q", "complete_bipartite"): (q_complete_bipartite, ("a", "b")),
    ("rho", "complete_split"): (rho_complete_split, ("n", "k")),
}


def closed_form(quantity: str, family: str, **params) -> float:
    """Closed-form spectral value by family name.

    quantity: "rho" or "q"; family: "complete" (param m),
    "complete_bipartite" (a, b), or "complete_split" (n, k) for
    K_k v (n-2k)K_1.  Out-of-range parameters raise ValueError.
    """
    key = (quantity, family)
    if key not in _CLOSED_FORMS:
        raise ValueError(f"no closed form for {quantity} of {family}")
    fn, names = _CLOSED_FORMS[key]
    try:
        args = [params.pop(name) for name in names]
    except KeyError as exc:
        raise ValueError(f"{family} closed form needs parameter {exc}") from None
    if params:
        raise ValueError(f"unexpected parameters {sorted(params)}")
    return fn(*args)


# ---------------------------------------------------------------------------
# Bound inequalities
# ---------------------------------------------------------------------------

BOUND_IDS = (
    "nikiforov",
    "feng_yu",
    "bipartite_sqrt_e",
    "degree_mean",
    "balanced_bipartite_q",
    "berman_zhang",
    "anderson_morley",
)


@dataclass(frozen=True)
class BoundRecord:
    bound_id: str
    kind: str  # "upper" or "lower"
    applicable: bool
    bound_value: Optional[float]
    measured_value: Optional[float]
    satisfied: Optional[bool]
    slack: Optional[float]

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BoundReport:
    """The bound records plus the rho and q values they were measured against."""

    records: tuple[BoundRecord, ...]
    rho: float
    q: float

    def __getitem__(self, bound_id: str) -> BoundRecord:
        for rec in self.records:
            if rec.bound_id == bound_id:
                return rec
        raise KeyError(bound_id)

    def all_satisfied(self) -> bool:
        return all(rec.satisfied for rec in self.records if rec.applicable)

    def to_json(self) -> dict:
        return {rec.bound_id: rec.to_json() for rec in self.records}


def _record(bound_id, kind, bound, measured, tol) -> BoundRecord:
    slack = (bound - measured) if kind == "upper" else (measured - bound)
    return BoundRecord(bound_id, kind, True, bound, measured, slack >= -tol, slack)


def _inapplicable(bound_id, kind) -> BoundRecord:
    return BoundRecord(bound_id, kind, False, None, None, None, None)


# The bound formulas below serve both bound_report (one graph, Python
# numbers) and radius_intervals (numpy arrays, elementwise).

def _nikiforov(n, e, k):
    """rho <= (k-1)/2 + sqrt(2e - nk + (k+1)^2/4) for every graph with delta >= k."""
    return (k - 1) / 2.0 + np.sqrt(2 * e - n * k + (k + 1) ** 2 / 4.0)


def _feng_yu(n, e):
    """q <= 2e/(n-1) + n - 2, for n >= 2."""
    return 2 * e / (n - 1) + n - 2


def _balanced_bipartite_q(e, half):
    """q <= e/half + half on balanced bipartite graphs with sides of size half."""
    return e / half + half


def radius_intervals(n: int, e, dmin, dmax, half: Optional[int] = None):
    """Sound enclosures of rho and q from integer degree statistics.

    Elementwise over arrays: graphs of order n with e edges and degrees
    between dmin and dmax have

    * rho in [max(2e/n, sqrt(dmax)), min(dmax, Nikiforov at k = dmin)];
    * q in [max(4e/n, dmax + 1 if e > 0), min(2 dmax, Feng-Yu)].

    The lower bounds are the Rayleigh quotient of the all-ones vector and
    the spanning star K_{1,dmax}.  With ``half`` the graphs are balanced
    bipartite with sides of that size, which adds rho <= sqrt(e) and
    q <= e/half + half.  Returns ((rho_lo, rho_hi), (q_lo, q_hi)); both
    intervals collapse to a point on regular graphs.
    """
    rho_lo = np.maximum(2 * e / n, np.sqrt(dmax))
    rho_hi = np.minimum(dmax, _nikiforov(n, e, dmin))
    q_lo = np.maximum(4 * e / n, np.where(e > 0, dmax + 1, 0))
    q_hi = 2.0 * dmax
    if n >= 2:
        q_hi = np.minimum(q_hi, _feng_yu(n, e))
    if half is not None:
        rho_hi = np.minimum(rho_hi, np.sqrt(e))
        q_hi = np.minimum(q_hi, _balanced_bipartite_q(e, half))
    return (rho_lo, rho_hi), (q_lo, q_hi)


def bound_report(g: Graph, k: Optional[int] = None, tol: float = DEFAULT_TOL) -> BoundReport:
    """Evaluate the seven bound inequalities on g.

    k is the minimum-degree parameter for the Nikiforov upper bound; when
    omitted or exceeding delta(G) that record is marked inapplicable, as are
    the structurally gated bounds (bipartite / balanced-bipartite ones).
    """
    _check_tol(tol)
    g = as_graph(g)
    if g.n == 0:
        raise ValueError("bound report undefined on the 0-vertex graph")
    degs, delta, e = g.degrees(), min(g.degrees()), g.edge_count
    n = g.n
    rho = spectral_radius(g).value
    q = q_radius(g).value
    records = []

    # (a) Nikiforov: rho <= (k-1)/2 + sqrt(2e - nk + (k+1)^2/4), needs delta >= k
    if k is not None and 0 <= k <= delta:
        records.append(_record("nikiforov", "upper", float(_nikiforov(n, e, k)), rho, tol))
    else:
        records.append(_inapplicable("nikiforov", "upper"))

    # (b) Feng-Yu: q <= 2e/(n-1) + n - 2
    if n >= 2:
        records.append(_record("feng_yu", "upper", _feng_yu(n, e), q, tol))
    else:
        records.append(_inapplicable("feng_yu", "upper"))

    # (c) bipartite: rho <= sqrt(e)
    sides = bipartition(g)
    if sides is not None:
        records.append(_record("bipartite_sqrt_e", "upper", math.sqrt(e), rho, tol))
    else:
        records.append(_inapplicable("bipartite_sqrt_e", "upper"))

    # (d) degree mean: q <= max_u d(u) + avg degree over N(u)
    if e >= 1:
        val = max(
            degs[u] + sum(degs[v] for v in bits(g.adj[u])) / degs[u]
            for u in range(n)
            if degs[u] > 0
        )
        records.append(_record("degree_mean", "upper", val, q, tol))
    else:
        records.append(_inapplicable("degree_mean", "upper"))

    # (e) balanced bipartite: q <= e/half + half
    if sides is not None and len(sides[0]) == len(sides[1]) and n >= 2:
        half = n // 2
        records.append(
            _record("balanced_bipartite_q", "upper", _balanced_bipartite_q(e, half), q, tol)
        )
    else:
        records.append(_inapplicable("balanced_bipartite_q", "upper"))

    # (f) Berman-Zhang: rho >= min over edges sqrt(d(u) d(v))
    if e >= 1:
        val = min(math.sqrt(degs[u] * degs[v]) for u, v in g.edges())
        records.append(_record("berman_zhang", "lower", val, rho, tol))
    else:
        records.append(_inapplicable("berman_zhang", "lower"))

    # (g) Anderson-Morley: q >= min over edges d(u) + d(v)
    if e >= 1:
        val = min(degs[u] + degs[v] for u, v in g.edges())
        records.append(_record("anderson_morley", "lower", float(val), q, tol))
    else:
        records.append(_inapplicable("anderson_morley", "lower"))

    return BoundReport(tuple(records), rho, q)
