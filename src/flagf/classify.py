"""Membership of metric f-structures in the Killing / nearly-Kaehler / G1 classes.

For a metric f-structure f on the flag space, with alpha the connection
bilinear map and U its symmetric part, membership in each class is equivalent
to the identical vanishing of a quadratic map on m:

    kill : (1/2)[X, fX]_m   + U(X, fX)      - f(U(X, X))
    nk   : (1/2)[fX, f^2X]_m + U(fX, f^2X)  - f(U(fX, fX))
    g1   : f( 2 U(fX, f^2X) - f(U(fX, fX)) + f(U(f^2X, f^2X)) )

Each map is tested by full polarization: the quadratic map vanishes
identically iff its bilinear extension has C(X, Y) + C(Y, X) = 0 on all
basis pairs; pairs where that holds for every metric are dropped at set-up.
Set-up reads the conditions term by term (_TERMS) off the nonzeros of the
bracket tensor and of f; the dense tensors are the reference (condition_tensor).
Residuals are normalized by the operator norm of f and by (1 + s + t + 1/s
+ 1/t), so grid sweeps stay comparable as the U coefficients grow near the
parameter boundary.

Membership is declared below TAU_MEMBER = 1e-9, non-membership above
NONMEMBER_MARGIN = 1e-3 (both in :mod:`flagf.tolerances`); the band in between
is flagged indeterminate.

With closed-form U each polarized condition reads A @ (1, c) = 0 for a fixed
four-column A and the channel coefficients c = ((t-s)/2, (t-1)/(2s), (s-1)/(2t)),
so zero sets are exact: the SVD of A gives constraint rows w . (1, c) = 0, read
as a point, an axis line, all, empty, or else kept as polynomial equations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .canonical import CanonicalStructure, nonzero_rows
from .liealg import sum_by_key
from .metricgeom import MetricParams, TripleSplit, block_weights, u_channel_coefficients, u_coords_tensor
from .tolerances import NONMEMBER_MARGIN, TAU_GRID, TAU_MEMBER, TAU_RANK

CONDITION_NAMES = ("kill", "nk", "g1")
MAX_GRID_POINTS = 10**5  # build_grid refuses a larger grid
MAX_N = 40  # the CLI refuses a larger --n: on a 2-core box verify --k 4 takes 2 s at n = 40, 25 s and 0.5 GB at 64
MAX_K = 16  # the CLI refuses a larger --k: generate_f_structures tries 3^(k/2 - 1) polynomials in theta


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


# C[i, j, :] of each condition is a sum of terms coef * P T(A X_i, B X_j), T the
# bracket tensor (base) or U; A, B, P index the row tables of I, f, f^2 and, for
# P, of f^T, (f^2)^T (3, 4), since P T(..)_s sums P[s, r] T(..)_r.
_TERMS = (  # (condition, on U, coef, A, B, P), term by term as in the module docstring
    (0, 0, 0.5, 0, 1, 0), (0, 1, 1.0, 0, 1, 0), (0, 1, -1.0, 0, 0, 3),  # kill
    (1, 0, 0.5, 1, 2, 0), (1, 1, 1.0, 1, 2, 0), (1, 1, -1.0, 1, 1, 3),  # nk
    (2, 1, 2.0, 1, 2, 3), (2, 1, -1.0, 1, 1, 4), (2, 1, 1.0, 2, 2, 4),  # g1, its outer f in P
)
_COND, _ON_U, _COEF, _A, _B, _P = (np.array(col)[:, None] for col in zip(*_TERMS))
_BLOCK = 1 << 12  # padded products per block of conditions: bounds set-up memory


def _kept_entries(f: np.ndarray, split: TripleSplit):
    """Per block of conditions, its kept polarized entries (see _polarize)."""
    d = split.dim
    tables = nonzero_rows(np.eye(d), f, f @ f, f.T, (f @ f).T)
    idx, val = (x.transpose(2, 0, 1).reshape(-1, 5 * d) for x in tables)
    idx = idx.astype(np.int32 if 12 * d**3 < 2**31 else np.int64)  # keys stay below 12 d^3
    step = max(1, _BLOCK // (3 * len(split.bracket_nonzeros[0]) * len(idx) ** 3))
    for c in range(0, len(CONDITION_NAMES), step):
        conds = range(c, min(c + step, len(CONDITION_NAMES)))
        yield _polarize(*_summed_entries(slice(3 * c, 3 * conds.stop), idx, val, split), d, conds)


def _summed_entries(t: slice, idx: np.ndarray, val: np.ndarray, split: TripleSplit):
    """The entries != 0 of K[c, ch, i, j, r] (ch 0: base terms, 1-3: the U
    channels) summed over the terms t, as keys into shape (3, 4, d, d, d) and
    values: each nonzero of bracket_m times the rows of A, B and P^T at its
    indices, from the tables idx, val padded to (w, w, w, terms, nonzeros)."""
    i, j, r, v, channel, sign = split.bracket_nonzeros
    d = split.dim
    rows = [(m[t] * d + at).astype(idx.dtype) for m, at in ((_A, i), (_B, j), (_P, r))]
    value = np.take(val, rows[0], axis=1) * (_COEF[t] * np.where(_ON_U[t], sign * v, v))
    for row in rows[1:]:
        value = np.einsum("wte,...te->w...te", np.take(val, row, axis=1), value)  # no broadcast buffers
    live = value != 0.0
    value = value[live]
    key = np.take(idx, rows[0], axis=1) + ((_COND[t] * 4 + np.where(_ON_U[t], channel, 0)) * d).astype(idx.dtype)
    for row in rows[1:]:
        key = _outer_sum(np.take(idx, row, axis=1), key * d)
    key = key[live]
    return sum_by_key(key, value)


def _outer_sum(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """out[w] = x + rows[w], a row at a time (broadcasting allocates buffers)."""
    out = np.empty((len(rows),) + x.shape, dtype=x.dtype)
    for w, row in enumerate(rows):
        np.add(x, row, out=out[w])
    return out


def _polarize(keys: np.ndarray, k: np.ndarray, d: int, conds) -> tuple[np.ndarray, ...]:
    """From the entries K[c, ch, i, j, r] of the conditions conds (ascending
    keys into shape (3, 4, d, d, d), values k): the (c, i, j) keys of the pairs
    i <= j whose rows K[c, :, i, j] or K[c, :, j, i] hold an entry != 0, and
    (0, 0), so that an all-zero residual has the dense witness; and the
    polarized entries K[c, :, i, j, r] + K[c, :, j, i, r] != 0 in some channel,
    as the keys of their pairs (ascending) and channel values (4, E).  A pair
    whose rows cancel keeps one zero entry."""
    c, ch, i, j, r = np.unravel_index(keys[k != 0.0], (len(CONDITION_NAMES), 4, d, d, d))
    k = k[k != 0.0]
    pair = (c * d + np.minimum(i, j)) * d + np.maximum(i, j)
    pairs = np.unique(np.concatenate([pair, np.asarray(conds) * d * d]))
    # Keyed (pair, r, ch), K[.., i, j, r] meets K[.., j, i, r]; a diagonal pair doubles.
    keys, pol = sum_by_key((pair * d + r) * 4 + ch, np.where(i == j, 2.0 * k, k))
    keys, pol = keys[pol != 0.0], pol[pol != 0.0]
    entries, at = np.unique(keys // 4, return_inverse=True)
    values = np.zeros((4, len(entries) + len(pairs)))  # room for one zero entry per pair
    values[keys % 4, at] = pol
    empty = np.ones(len(pairs), dtype=bool)
    empty[np.searchsorted(pairs, entries // d)] = False
    owner = np.concatenate([entries // d, pairs[empty]])
    order = np.argsort(owner, kind="stable")
    return pairs, owner[order], values[:, order]


def _combined_norms(values: np.ndarray, starts: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """(B, R) pair norms of the (4, E) polarized entries combined with (1, c)
    for each of the (B, 3) channel coefficients c; pair p owns the entries from
    starts[p] to starts[p + 1].  The channels are added elementwise in a fixed
    order, so a point's norms do not depend on the batch it is in."""
    comb = coeffs[:, 0:1] * values[1]
    comb += values[0]
    term = coeffs[:, 1:2] * values[2]
    comb += term
    np.multiply(coeffs[:, 2:3], values[3], out=term)
    comb += term
    comb *= comb
    return np.sqrt(np.add.reduceat(comb, starts, axis=1))


@dataclass(frozen=True)
class MembershipResult:
    condition: str
    residual: float
    member: bool
    indeterminate: bool
    witness: tuple[int, int] | None


def _verdict(name: str, res: float, pair: tuple[int, int]) -> MembershipResult:
    member = res < TAU_MEMBER
    indeterminate = (not member) and res <= NONMEMBER_MARGIN
    return MembershipResult(name, res, member, indeterminate, witness=None if member else pair)


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

    With u_mode "closed", set-up joins the nonzeros of the bracket tensor and
    of f into each condition's base and three U-channel tensors, polarizes
    them and keeps only what carries data: the basis pairs i <= j with a
    nonzero row (at most 169 of 2,145 per condition at n = 24, k = 6) and,
    of their polarized rows, the entries nonzero in some channel: under 40 kB
    per evaluator at n = 24, and no d^3 array on the way.  A residual combines
    the kept entries with (1, c(s, t)) and takes the pair norms, a sweep does
    the same for blocks of grid points, and the exact zero sets come from the
    same entries.  With u_mode "solved" the U tensor is recomputed from the
    metric equation and the dense condition tensor is polarized at every call;
    this is the slow independent route used for cross-checks.
    """

    def __init__(self, f: CanonicalStructure, split: TripleSplit, u_mode: str = "closed"):
        if u_mode not in ("closed", "solved"):
            raise ValueError(f"unknown U mode {u_mode!r}")
        self.structure = f
        self.split = split
        self.u_mode = u_mode
        self.f_matrix = f.op.matrix_on(split.combined)
        self.f_norm = float(np.linalg.norm(self.f_matrix, 2)) or 1.0
        if u_mode == "closed":
            blocks = zip(*_kept_entries(self.f_matrix, split))
            pairs, owner, self._values = (np.concatenate(x, axis=-1) for x in blocks)
            cond, i, j = np.unravel_index(pairs, (len(CONDITION_NAMES), split.dim, split.dim))
            self._pairs, self._owner = np.stack([i, j], axis=1), np.searchsorted(pairs, owner)
            self._starts = np.searchsorted(self._owner, np.arange(len(self._pairs)))
            bounds = np.searchsorted(cond, range(len(CONDITION_NAMES) + 1))
            self._spans = {name: slice(lo, hi) for name, lo, hi in zip(CONDITION_NAMES, bounds, bounds[1:])}

    def condition_tensor(self, name: str, params: MetricParams) -> np.ndarray:
        """The dense C[i, j, :] of the named condition: the reference route."""
        u = u_coords_tensor(self.split, params, self.u_mode)
        fm = self.f_matrix
        return _condition_tensor(name, fm, fm @ fm, self.split.bracket_m, u)

    def _residuals(self, params: list[MetricParams]) -> dict[str, list[tuple[float, tuple[int, int]]]]:
        """Per condition and point, the normalized polarized residual and the
        first basis pair i <= j (row-major) achieving it."""
        if self.u_mode == "closed":
            coeffs = np.array([u_channel_coefficients(p) for p in params]).reshape(-1, 3)
            norms = np.empty((len(params), len(self._pairs)))
            step = max(1, (1 << 16) // self._values.shape[1])  # points per block of ~2^16 entries
            for b in range(0, len(params), step):
                norms[b : b + step] = _combined_norms(self._values, self._starts, coeffs[b : b + step])
            parts = {name: (self._pairs[span], norms[:, span]) for name, span in self._spans.items()}
        else:
            i, j = np.triu_indices(self.split.dim)
            parts = {}
            for name in CONDITION_NAMES:
                dense = (self.condition_tensor(name, p) for p in params)
                norms = [np.linalg.norm(c[i, j] + c[j, i], axis=1) for c in dense]
                parts[name] = (np.stack([i, j], axis=1), np.reshape(norms, (len(params), len(i))))
        scale = np.array([self.f_norm * (1.0 + p.s + p.t + 1.0 / p.s + 1.0 / p.t) for p in params])
        out = {}
        for name, (pairs, norms) in parts.items():
            res = np.max(norms, axis=1) / scale
            out[name] = list(zip(res.tolist(), map(tuple, pairs[np.argmax(norms, axis=1)].tolist())))
        return out

    def residual(self, name: str, params: MetricParams) -> tuple[float, tuple[int, int]]:
        """Normalized polarized residual and the basis pair achieving it."""
        if name not in CONDITION_NAMES:
            raise ValueError(f"unknown condition {name!r}")
        return self._residuals([params])[name][0]

    def membership(self, name: str, params: MetricParams) -> MembershipResult:
        return _verdict(name, *self.residual(name, params))

    def _reports(self, params: list[MetricParams]) -> list[ClassReport]:
        results = {name: [_verdict(name, *r) for r in rs] for name, rs in self._residuals(params).items()}
        return [
            ClassReport(
                structure_label=self.structure.label,
                s=p.s,
                t=p.t,
                residuals={k: r[i].residual for k, r in results.items()},
                memberships={k: r[i].member for k, r in results.items()},
                indeterminate={k: r[i].indeterminate for k, r in results.items()},
                witnesses={k: r[i].witness for k, r in results.items()},
            )
            for i, p in enumerate(params)
        ]

    def report(self, params: MetricParams) -> ClassReport:
        return self._reports([params])[0]

    def sweep(self, grid, kappa: float = 1.0) -> list[ClassReport]:
        """One ClassReport per grid point, in grid order."""
        return self._reports([MetricParams(s=s, t=t, kappa=kappa) for s, t in grid])

    def zero_set(self, name: str) -> CharacteristicSet:
        """Exact zero set of the named condition.  A's columns are the polarized
        base and channel tensors; its leading right singular vectors, the constraints.
        A pair i < j stands for both ordered pairs, so its rows weigh sqrt(2):
        A^T A is that of the dense polarized tensors."""
        if name not in CONDITION_NAMES or self.u_mode != "closed":
            raise ValueError(f"no exact zero set for condition {name!r} with u_mode {self.u_mode!r}")
        span = self._spans[name]
        mine = (self._owner >= span.start) & (self._owner < span.stop)
        i, j = self._pairs[self._owner[mine]].T
        a = (self._values[:, mine] * np.where(i == j, 1.0, np.sqrt(2.0))).T
        _, sigma, vt = np.linalg.svd(np.linalg.qr(a, mode="r"))
        rank = int(np.sum(sigma > TAU_RANK * self.f_norm))  # kept sigma >= 1, dropped <= 1e-14 (n = 4..24)
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
    per_axis = max(0.0, np.floor((gmax - gmin) / step + TAU_GRID) + 1)
    if not per_axis**2 + len(extras) <= MAX_GRID_POINTS:  # counted before any is built; refuses inf, nan
        raise ValueError(f"{per_axis:.3g}^2 + {len(extras)} grid points exceed MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    count = int(per_axis)
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
