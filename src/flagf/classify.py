"""Membership of metric f-structures in the Killing / nearly-Kaehler / G1 classes.

For a metric f-structure f on the flag space, with alpha the connection
bilinear map and U its symmetric part, membership in each class is equivalent
to the identical vanishing of a quadratic map on m:

    kill : (1/2)[X, fX]_m   + U(X, fX)      - f(U(X, X))
    nk   : (1/2)[fX, f^2X]_m + U(fX, f^2X)  - f(U(fX, fX))
    g1   : f( 2 U(fX, f^2X) - f(U(fX, fX)) + f(U(f^2X, f^2X)) )

Each map is tested by full polarization: the bilinear extension C(X, Y) is
evaluated on all ordered basis pairs and the quadratic map vanishes
identically iff C(X, Y) + C(Y, X) does.  Residuals are normalized by the
operator norm of f and by (1 + s + t + 1/s + 1/t), so grid sweeps stay
comparable as the U coefficients grow near the parameter boundary.

Membership is declared below 1e-9, non-membership above 1e-3; the band in
between is flagged indeterminate (never observed on this family).

With closed-form U each polarized condition reads A @ (1, c) = 0 for a fixed
four-column A and the channel coefficients c = ((t-s)/2, (t-1)/(2s), (s-1)/(2t)),
so zero sets are exact: the SVD of A gives constraint rows w . (1, c) = 0, read
as a point, an axis line, all, empty, or else kept as polynomial equations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .canonical import CanonicalStructure
from .metricgeom import (
    MetricParams, TripleSplit, block_weights, u_channel_coefficients, u_channel_masks, u_coords_tensor,
)

CONDITION_NAMES = ("kill", "nk", "g1")

TAU_MEMBER = 1e-9
NONMEMBER_MARGIN = 1e-3
# Zero sets: singular values of A up to TAU_RANK * ||f|| are rounding noise
# (kept ones are >= 1 for n = 4..24, dropped ones <= 1e-14), and so are unit
# vector components and relative coordinate differences up to TAU_RANK.
TAU_RANK = 1e-9


def _condition_tensor(name: str, f: np.ndarray, f2: np.ndarray, bm: np.ndarray, u: np.ndarray) -> np.ndarray:
    """C[i, j, :] for the named condition, given the U tensor to use."""
    if name == "kill":
        return (
            0.5 * np.einsum("bj,ibr->ijr", f, bm, optimize=True)
            + np.einsum("bj,ibr->ijr", f, u, optimize=True)
            - np.einsum("rb,ijb->ijr", f, u, optimize=True)
        )
    if name == "nk":
        return (
            0.5 * np.einsum("ai,bj,abr->ijr", f, f2, bm, optimize=True)
            + np.einsum("ai,bj,abr->ijr", f, f2, u, optimize=True)
            - np.einsum("rc,ai,bj,abc->ijr", f, f, f, u, optimize=True)
        )
    if name == "g1":
        inner = (
            2.0 * np.einsum("ai,bj,abr->ijr", f, f2, u, optimize=True)
            - np.einsum("rc,ai,bj,abc->ijr", f, f, f, u, optimize=True)
            + np.einsum("rc,ai,bj,abc->ijr", f, f2, f2, u, optimize=True)
        )
        return np.einsum("rs,ijs->ijr", f, inner, optimize=True)
    raise ValueError(f"unknown condition {name!r}")


def _row_blocks(d: int) -> list[slice]:
    """Row slices of <= 2^15 entries for per-point work: freed d^3 temporaries
    may go back to the OS, to be faulted in again on every call."""
    size = max(1, (1 << 15) // (d * d))
    return [slice(i, i + size) for i in range(0, d, size)]


def _pair(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[i, j, :] = sum_pq a[p, i] b[q, j] x[p, q, :], i.e. x(A X_i, B X_j)."""
    d = a.shape[0]
    y = b.T @ x  # y[p, j, :] = sum_q b[q, j] x[p, q, :]
    return (a.T @ y.reshape(d, d * d)).reshape(d, d, d)


def _channel_kernels(f: np.ndarray, f2: np.ndarray, u: np.ndarray, kill, nk, g1) -> None:
    """Write the kill, nk and g1 tensors of one U channel u (bracket terms
    belong to the base tensors) into the given arrays, with few temporaries."""
    ft = f.T
    np.matmul(ft, u, out=kill)
    kill -= u @ ft
    p12 = _pair(u, f, f2)
    np.matmul(_pair(u, f, f), ft, out=nk)
    np.subtract(p12, nk, out=nk)  # u(fX, f^2Y) - f u(fX, fY)
    inner = _pair(u, f2, f2) @ ft
    inner += p12
    inner += nk  # 2 u(fX, f^2Y) - f u(fX, fY) + f u(f^2X, f^2Y)
    np.matmul(inner, ft, out=g1)


@dataclass(frozen=True)
class MembershipResult:
    condition: str
    residual: float
    member: bool
    indeterminate: bool
    witness: tuple[int, int] | None


@dataclass(frozen=True)
class ClassReport:
    """Class residuals and verdicts for one structure at one (s, t)."""

    structure_label: str
    s: float
    t: float
    residuals: dict[str, float]
    memberships: dict[str, bool]
    indeterminate: dict[str, bool]
    witnesses: dict[str, tuple[int, int] | None]

    @property
    def chain_ok(self) -> bool:
        m = self.memberships
        return (not m["kill"] or m["nk"]) and (not m["nk"] or m["g1"])


@dataclass(frozen=True)
class CharacteristicSet:
    """Zero set of a class condition over the open quadrant s, t > 0.

    kind is "all", "empty", "line" (``lines``: (axis, value), axis "s" or "t"),
    "points" (``points``: (s, t)) or "equations": the common zeros of
    ``equations``, the constraints times 2st (degree <= 3) as tuples of
    (i, j, coeff) terms coeff s^i t^j.  ``rank`` counts the constraints;
    ``sigma_min_kept`` / ``sigma_max_dropped`` (or None) bound its gap.
    """

    kind: str
    points: tuple[tuple[float, float], ...] = ()
    lines: tuple[tuple[str, float], ...] = ()
    equations: tuple[tuple[tuple[int, int, float], ...], ...] = ()
    rank: int = 0
    sigma_min_kept: float | None = None
    sigma_max_dropped: float | None = None

    def contains(self, s: float, t: float) -> bool:
        """Whether (s, t) lies in the set, coordinates compared to TAU_RANK."""
        if self.kind == "all":
            return True
        if self.kind == "equations":
            terms = [[c * s**i * t**j for i, j, c in poly] for poly in self.equations]
            return all(abs(sum(ts)) <= TAU_RANK * sum(abs(v) for v in ts) for ts in terms)
        on_line = any(_near(s if axis == "s" else t, v) for axis, v in self.lines)
        return on_line or any(_near(s, ps) and _near(t, pt) for ps, pt in self.points)

    def description(self) -> str:
        if self.kind == "all":
            return "all (s, t)"
        if self.kind == "empty":
            return "empty"
        parts = [f"line {axis}={value:.6f}" for axis, value in self.lines]
        parts += [f"({s:.6f}, {t:.6f})" for s, t in self.points]
        parts += [" ".join(_term_text(*term) for term in poly) + " = 0" for poly in self.equations]
        return "; ".join(parts)


def _near(x: float, v: float) -> bool:
    return abs(x - v) <= TAU_RANK * max(1.0, abs(v))


def _term_text(i: int, j: int, coeff: float) -> str:
    powers = [v if p == 1 else f"{v}^{p}" for v, p in (("s", i), ("t", j)) if p]
    return "*".join([f"{coeff:+.6f}", *powers])


def decode_constraints(rows) -> CharacteristicSet:
    """Zero set over s, t > 0 of w . (1, c(s, t)) = 0 for each of the (r, 4)
    independent constraint rows w.  No rows is "all"; a kernel without the
    constant term is "empty"; a 1-dim kernel is a point ("empty" at infinity
    or off the open quadrant); one row on c3 (c2) alone is the line s = 1
    (t = 1).  Any other shape is returned as "equations", not guessed."""
    w = np.asarray(rows, dtype=float).reshape(-1, 4)
    rank = len(w)
    if rank == 0:
        return CharacteristicSet(kind="all")
    _, _, vt = np.linalg.svd(w)
    kernel = vt[rank:]
    if not np.any(np.abs(kernel[:, 0]) > TAU_RANK):
        return CharacteristicSet(kind="empty", rank=rank)
    if rank == 3:
        points = _kernel_points(kernel[0])
        return CharacteristicSet(kind="points" if points else "empty", points=points, rank=rank)
    support = np.flatnonzero(np.abs(vt[0]) > TAU_RANK).tolist()
    if rank == 1 and support in ([3], [2]):
        axis = "s" if support == [3] else "t"
        return CharacteristicSet(kind="line", lines=((axis, 1.0),), rank=rank)
    equations = tuple(_constraint_polynomial(row) for row in vt[:rank])
    return CharacteristicSet(kind="equations", equations=equations, rank=rank)


def _kernel_points(v: np.ndarray) -> tuple[tuple[float, float], ...]:
    """The (s, t) with c(s, t) = v[1:] / v[0] for a kernel vector v: one or none."""
    c1, c2, c3 = v[1:] / v[0]
    den = 1.0 - 2.0 * c2
    if abs(den) <= TAU_RANK:  # the point lies at infinity
        return ()
    s = (1.0 - 2.0 * c1) / den
    t = s + 2.0 * c1
    if s <= TAU_RANK or t <= TAU_RANK:  # on or beyond the edge of the quadrant
        return ()
    if abs((s - 1.0) / (2.0 * t) - c3) > TAU_RANK * (1.0 + abs(c3)):
        return ()
    return ((float(s), float(t)),)


def _constraint_polynomial(w: np.ndarray) -> tuple[tuple[int, int, float], ...]:
    """2st * w . (1, c(s, t)) as (i, j, coeff) terms of coeff s^i t^j, with
    the sign of w fixed so that its first nonzero component is positive."""
    lead = w[np.flatnonzero(np.abs(w) > TAU_RANK)[0]]
    w0, w1, w2, w3 = (float(x) for x in np.sign(lead) * w)
    terms = ((1, 1, 2.0 * w0), (1, 2, w1), (2, 1, -w1), (0, 2, w2), (0, 1, -w2), (2, 0, w3), (1, 0, -w3))
    return tuple(term for term in terms if abs(term[2]) > TAU_RANK)


class ClassEvaluator:
    """Evaluates the three class conditions for one structure on one split.

    With u_mode "closed" the parameter dependence is reduced to three scalar
    channel coefficients, so each grid point costs a few tensor adds, and the
    exact zero sets come from the same tensors.  With u_mode "solved" the U
    tensor is recomputed from the metric equation at every call; this is the
    slow independent route used for cross-checks.
    """

    def __init__(self, f: CanonicalStructure, split: TripleSplit, u_mode: str = "closed"):
        if u_mode not in ("closed", "solved"):
            raise ValueError(f"unknown U mode {u_mode!r}")
        self.structure = f
        self.split = split
        self.u_mode = u_mode
        self.f_matrix = f.op.matrix_on(split.combined)
        self._f2 = self.f_matrix @ self.f_matrix
        self.f_norm = float(np.linalg.norm(self.f_matrix, 2)) or 1.0
        if u_mode == "closed":
            fm, f2, bm = self.f_matrix, self._f2, split.bracket_m
            # Per condition, base and channel tensors in one (4, d, d, d) stack.
            self._kernels = {name: np.zeros((4,) + bm.shape) for name in CONDITION_NAMES}
            self._kernels["kill"][0] = 0.5 * (fm.T @ bm)
            self._kernels["nk"][0] = 0.5 * _pair(bm, fm, f2)
            for k, mask in enumerate(u_channel_masks(split), start=1):
                _channel_kernels(fm, f2, mask[:, :, None] * bm, *(self._kernels[c][k] for c in CONDITION_NAMES))

    def condition_tensor(self, name: str, params: MetricParams) -> np.ndarray:
        if name not in CONDITION_NAMES:
            raise ValueError(f"unknown condition {name!r}")
        if self.u_mode == "closed":
            base, *chans = self._kernels[name]
            out = base.copy()
            for c, ch in zip(u_channel_coefficients(params), chans):
                if c != 0.0:
                    for rows in _row_blocks(out.shape[0]):
                        out[rows] += c * ch[rows]
            return out
        u = u_coords_tensor(self.split, params, mode="solved")
        return _condition_tensor(name, self.f_matrix, self._f2, self.split.bracket_m, u)

    def residual(self, name: str, params: MetricParams) -> tuple[float, tuple[int, int]]:
        """Normalized polarized residual and the basis pair achieving it."""
        c = self.condition_tensor(name, params)
        norms = np.empty(c.shape[:2])
        for rows in _row_blocks(c.shape[0]):
            norms[rows] = np.linalg.norm(c[rows] + c[:, rows].transpose(1, 0, 2), axis=2)
        i, j = np.unravel_index(int(np.argmax(norms)), norms.shape)
        scale = 1.0 + params.s + params.t + 1.0 / params.s + 1.0 / params.t
        return float(norms[i, j] / (self.f_norm * scale)), (int(i), int(j))

    def membership(self, name: str, params: MetricParams) -> MembershipResult:
        res, pair = self.residual(name, params)
        member = res < TAU_MEMBER
        indeterminate = (not member) and res <= NONMEMBER_MARGIN
        return MembershipResult(
            condition=name,
            residual=res,
            member=member,
            indeterminate=indeterminate,
            witness=None if member else pair,
        )

    def report(self, params: MetricParams) -> ClassReport:
        results = {name: self.membership(name, params) for name in CONDITION_NAMES}
        return ClassReport(
            structure_label=self.structure.label,
            s=params.s,
            t=params.t,
            residuals={k: r.residual for k, r in results.items()},
            memberships={k: r.member for k, r in results.items()},
            indeterminate={k: r.indeterminate for k, r in results.items()},
            witnesses={k: r.witness for k, r in results.items()},
        )

    def sweep(self, grid, kappa: float = 1.0) -> list[ClassReport]:
        """One ClassReport per grid point, in grid order."""
        return [self.report(MetricParams(s=s, t=t, kappa=kappa)) for s, t in grid]

    def zero_set(self, name: str) -> CharacteristicSet:
        """Exact zero set of the named condition.  A's columns are the polarized
        base and channel tensors; its leading right singular vectors, the constraints."""
        if name not in CONDITION_NAMES or self.u_mode != "closed":
            raise ValueError(f"no exact zero set for condition {name!r} with u_mode {self.u_mode!r}")
        k = self._kernels[name]
        a = (k + k.transpose(0, 2, 1, 3)).reshape(4, -1).T
        _, sigma, vt = np.linalg.svd(np.linalg.qr(a, mode="r"))
        rank = int(np.sum(sigma > TAU_RANK * self.f_norm))
        return replace(
            decode_constraints(vt[:rank]),
            sigma_min_kept=float(sigma[rank - 1]) if rank else None,
            sigma_max_dropped=float(sigma[rank]) if rank < sigma.size else None,
        )


def membership(
    f: CanonicalStructure,
    split: TripleSplit,
    params: MetricParams,
    condition: str,
    u_mode: str = "closed",
) -> MembershipResult:
    return ClassEvaluator(f, split, u_mode=u_mode).membership(condition, params)


def metric_compat_residual(f: CanonicalStructure, split: TripleSplit, params: MetricParams) -> float:
    """Max |g(fX, Y) + g(X, fY)| over basis pairs, normalized by kappa."""
    fm = f.op.matrix_on(split.combined)
    gd = block_weights(split, params)
    lhs = fm.T * gd[None, :]  # lhs[i, j] = g(f X_i, X_j) = gd_j F[j, i]
    rhs = gd[:, None] * fm  # rhs[i, j] = g(X_i, f X_j) = gd_i F[i, j]
    return float(np.max(np.abs(lhs + rhs)) / params.kappa)


def check_metric_compat(
    f: CanonicalStructure, split: TripleSplit, params: MetricParams, tol: float = 1e-10
) -> bool:
    """True iff f is skew-adjoint for g(s, t) on all basis pairs."""
    return metric_compat_residual(f, split, params) < tol


def product_compat_residual(p: CanonicalStructure, split: TripleSplit, params: MetricParams) -> float:
    """Max |g(PX, PY) - g(X, Y)| over basis pairs, normalized by kappa
    (the compatibility notion appropriate for almost product structures)."""
    pm = p.op.matrix_on(split.combined)
    g = np.diag(block_weights(split, params))
    return float(np.max(np.abs(pm.T @ g @ pm - g)) / params.kappa)


def build_grid(
    gmin: float = 0.25,
    gmax: float = 3.0,
    step: float = 0.25,
    extras: tuple[tuple[float, float], ...] = ((1.0, 1.0), (1.0, 4.0 / 3.0)),
) -> list[tuple[float, float]]:
    """Row-major (s, t) grid with the special points appended (deduplicated)."""
    if step <= 0:
        raise ValueError("grid step must be positive")
    if gmin <= 0:
        raise ValueError("grid values must be positive")
    count = int(np.floor((gmax - gmin) / step + 1e-9)) + 1
    vals = [gmin + i * step for i in range(count)]
    pts = [(s, t) for s in vals for t in vals]
    for p in extras:
        if p not in pts:
            pts.append((float(p[0]), float(p[1])))
    return pts


def default_grid() -> list[tuple[float, float]]:
    return build_grid()


def sweep(
    f: CanonicalStructure, split: TripleSplit, grid, kappa: float = 1.0, u_mode: str = "closed"
) -> list[ClassReport]:
    """One ClassReport per grid point, in grid order."""
    return ClassEvaluator(f, split, u_mode=u_mode).sweep(grid, kappa)


def grid_disagreement(sets: dict[str, CharacteristicSet], reports) -> str | None:
    """The first grid verdict (from residuals) that the exact zero set of its
    condition in ``sets`` (from the kernel of A) contradicts, or None."""
    for r in reports:
        for name, zs in sets.items():
            if r.memberships[name] != zs.contains(r.s, r.t):
                return (
                    f"{r.structure_label} {name} at (s, t) = ({r.s!r}, {r.t!r}): grid verdict "
                    f"member={r.memberships[name]}, exact zero set {zs.description()!r}"
                )
    return None


def characteristic_set(
    f: CanonicalStructure, split: TripleSplit, condition: str, grid=None, kappa: float = 1.0
) -> CharacteristicSet:
    """Exact zero set of the condition; see :meth:`ClassEvaluator.zero_set`.

    With a grid, every grid verdict is checked against the set, and a
    disagreement raises RuntimeError naming the point.
    """
    ev = ClassEvaluator(f, split)
    zs = ev.zero_set(condition)
    problem = grid_disagreement({condition: zs}, ev.sweep(grid or (), kappa))
    if problem is not None:
        raise RuntimeError(problem)
    return zs
