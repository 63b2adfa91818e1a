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
bracket tensor (TripleSplit.bracket_nonzeros) and the rows of f, f^2 and
their transposes; the tests keep the dense einsum tensors of each condition
as the reference.  f is the matrix of the structure's sign pair,
eps1 J1 (+) eps2 J2 (+) 0 (canonical.sign_pair_matrices), J the split's
signed permutation: every entry is 0 or +-1, at most one per row, where the
generated operator carries rounding noise beside each entry.  J is
block-diagonal, so the one nonzero of each row of f, f^2, f^T and (f^2)^T
is that of J, J^2, J^T and (J^2)^T times the sign (or its square) of its
block: set-up scales the split's tables of J (TripleSplit.row_tables) and
scans no structure's matrix.  It joins the signs of the bracket tensor,
whose nonzeros share the one magnitude 1/sqrt(2), so every kept entry is a
half-integer, exactly; the residuals read it times that magnitude.  The
generated operator stays what verify checks against it
(structure-sign-pair) and what the metric-compatibility residuals read.
All the structures of a space share the bracket tensor, so
class_evaluators sets them up in one pass over every structure, condition
and term, keyed structure first, with the bits of a set-up of each alone;
ClassEvaluator(f, split) is the list [f].
Residuals are normalized by (1 + s + t + 1/s + 1/t), so grid sweeps stay
comparable as the U coefficients grow near the parameter boundary; the
operator norm of f, max(|eps1|, |eps2|), is 1 for every sign pair.  A point
where a pair norm still overflows is refused with ValueError rather than
given a verdict.

Membership is declared below TAU_MEMBER = 1e-9, non-membership above
NONMEMBER_MARGIN = 1e-3 (both in :mod:`flagf.tolerances`); the band in between
is flagged indeterminate.

With closed-form U each polarized condition reads A @ (1, c) = 0 for a fixed
four-column A and the channel coefficients c = ((t-s)/2, (t-1)/(2s), (s-1)/(2t)),
so zero sets are exact: 8 A^T A is an integer 4 x 4 matrix, and its reduced
rows, found in integers, are the constraint rows w . (1, c) = 0, read with
exact zero tests as one of the four shapes they take on every flag space: a
point, an axis line, all or empty (any other shape is refused).  zero_sets
sums the matrix of every condition of a list of evaluators in one pass;
ClassEvaluator.zero_set is the list [self].

ClassEvaluator.report gives one ClassReport for one MetricParams.  A sweep
works on columns: build_grid builds the grid as two float arrays, a
MetricGrid whose points are checked once, however many structures are
swept, and ClassEvaluator.sweep returns one ClassSweep, whose s, t,
residuals, memberships, indeterminate flags, witnesses and chain_ok are
arrays over the grid, computed from the same blocks of pair norms as a
report, bit for bit.  CharacteristicSet.contains
takes arrays too, so grid_disagreement compares whole columns with the exact
zero sets.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .canonical import CanonicalStructure, sign_pair_matrices, sign_pair_rows
from .liealg import sum_by_key
from .metricgeom import MetricGrid, MetricParams, TripleSplit, block_weights, u_channel_coefficients, u_channels
from .tolerances import NONMEMBER_MARGIN, TAU_GRID, TAU_MEMBER, TAU_RANK

CONDITION_NAMES = ("kill", "nk", "g1")
MAX_GRID_POINTS = 10**5  # build_grid refuses a larger grid
DEFAULT_GRID = (0.25, 3.0, 0.25)  # (min, max, step) of each axis of the default sweep grid
SPECIAL_POINTS = ((1.0, 1.0), (1.0, 4.0 / 3.0))  # the neutral metric and the f0/f1 Kill point, added to every grid
MAX_N = 40  # the CLI refuses a larger --n: on a 2-core Xeon verify --k 4 takes 0.07-0.12 s at n = 40, 0.3 s and 80 MB at 64
# The CLI refuses a larger --k.  At m_blocks = 1 theta has 3 eigen-angles, so there are at most
# 8 f- and 8 P-structures for any k; m_blocks >= 2 can reach all k/2 - 1 angles below pi, and
# then 3^(k/2 - 1) - 1 f-structures.
MAX_K = 16


# C[i, j, :] of each condition is a sum of terms coef * P T(A X_i, B X_j), T the
# bracket tensor (base) or U; A, B, P index the row tables of I, f, f^2 and, for
# P, of f^T, (f^2)^T (3, 4), since P T(..)_s sums P[s, r] T(..)_r.
_TERMS = (  # (on U, coef, A, B, P), term by term as in the module docstring, 3 per condition
    (0, 0.5, 0, 1, 0), (1, 1.0, 0, 1, 0), (1, -1.0, 0, 0, 3),  # kill
    (0, 0.5, 1, 2, 0), (1, 1.0, 1, 2, 0), (1, -1.0, 1, 1, 3),  # nk
    (1, 2.0, 1, 2, 3), (1, -1.0, 1, 1, 4), (1, 1.0, 2, 2, 4),  # g1, its outer f in P
)
_ON_U, _COEF, _A, _B, _P = (np.array(col)[:, None] for col in zip(*_TERMS))


def _kept_entries(eps: np.ndarray, split: TripleSplit) -> tuple[np.ndarray, ...]:
    """The kept polarized entries (see _polarize) of the groups g = 3 *
    structure + condition of the structures f = eps J, eps the (S, d) signs
    of each structure on the block of each basis row (sign_pair_rows), over
    the signs of the bracket tensor: half-integers, exactly.  J is
    block-diagonal, so f, f^2, f^T and (f^2)^T are J, J^2, J^T and (J^2)^T
    with row r scaled by eps_r or eps_r^2: the split's one-entry row tables,
    scaled.  Per group, term and bracket nonzero, one product of the rows of
    A, B and P^T at its indices, keyed into shape (groups, 4, d, d, d) (ch 0:
    base terms, 1-3: the U channels); each key sums its terms."""
    d, groups = split.dim, 3 * len(eps)
    i, j, r, v = split.bracket_nonzeros
    channel, bsign = u_channels(split, i, j)
    col, sign = split.row_tables
    sq = eps * eps
    val = sign * np.stack([np.ones_like(eps), eps, sq, eps, sq], axis=1)  # (S, 5, d), for I, f, f^2, f^T, (f^2)^T
    col = np.broadcast_to(col, val.shape).ravel().astype(np.int32 if 4 * groups * d**3 < 2**31 else np.int64)
    val = val.ravel()  # row a of table m of structure s is at (5 s + m) d + a; keys stay below 4 groups d^3
    term = np.tile(np.arange(len(_TERMS)), len(eps))  # 9 per structure: 3 per group, the groups in order
    table = 5 * (np.arange(len(term)) // len(_TERMS))[:, None]  # the first table of each term's structure
    a, b, p = ((table + m[term]) * d + at for m, at in ((_A, i), (_B, j), (_P, r)))
    value = val[a] * val[b] * val[p] * _COEF[term] * np.where(_ON_U[term], bsign, 1.0) * np.sign(v)  # of +-1, 1/2, 2
    group = (np.arange(len(term)) // 3)[:, None]
    key = ((group * 4 + np.where(_ON_U[term], channel, 0)) * d).astype(col.dtype) + col[a]
    key = (key * d + col[b]) * d + col[p]
    live = value != 0.0
    return _polarize(*sum_by_key(key[live], value[live]), d, groups)


def _polarize(keys: np.ndarray, k: np.ndarray, d: int, groups: int) -> tuple[np.ndarray, ...]:
    """From the entries K[g, ch, i, j, r] of all groups (ascending keys into
    shape (groups, 4, d, d, d), values k): the (g, i, j) keys of the
    pairs i <= j whose rows K[g, :, i, j] or K[g, :, j, i] hold an entry != 0,
    and (0, 0), so that an all-zero residual has the dense witness; and the
    polarized entries K[g, :, i, j, r] + K[g, :, j, i, r] != 0 in some channel,
    as the keys of their pairs (ascending) and channel values (4, E).  A pair
    whose rows cancel keeps one zero entry."""
    g, ch, i, j, r = np.unravel_index(keys[k != 0.0], (groups, 4, d, d, d))
    k = k[k != 0.0]
    pair = (g * d + np.minimum(i, j)) * d + np.maximum(i, j)
    pairs = np.sort(np.concatenate([pair, np.arange(groups) * d * d]))
    pairs = pairs[np.concatenate(([True], pairs[1:] != pairs[:-1]))]  # distinct; np.unique hashes first, slower here
    # Keyed (pair, r, ch), K[.., i, j, r] meets K[.., j, i, r]; a diagonal pair doubles.
    keys, pol = sum_by_key((pair * d + r) * 4 + ch, np.where(i == j, 2.0 * k, k))
    keys, pol = keys[pol != 0.0], pol[pol != 0.0]
    entry = keys // 4  # ascending, as keys are: the entries start where it changes
    first = np.concatenate(([True], entry[1:] != entry[:-1]))[: len(entry)]
    entries, at = entry[first], np.cumsum(first) - 1
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


def _chain_ok(m):
    """kill => nk => g1 on the memberships m: bools, or bool arrays."""
    return (m["kill"] <= m["nk"]) & (m["nk"] <= m["g1"])


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
        return _chain_ok(self.memberships)


@dataclass(frozen=True, eq=False)
class ClassSweep:
    """Class residuals and verdicts for one structure on a grid, as columns
    in grid order: ``s`` and ``t`` (P,) floats; per condition ``residuals``
    (P,) floats, ``memberships`` and ``indeterminate`` (P,) bools and
    ``witnesses`` (P, 2) basis pairs, (-1, -1) where the point is a member."""

    structure_label: str
    s: np.ndarray
    t: np.ndarray
    residuals: dict[str, np.ndarray]
    memberships: dict[str, np.ndarray]
    indeterminate: dict[str, np.ndarray]
    witnesses: dict[str, np.ndarray]

    @property
    def chain_ok(self) -> np.ndarray:
        return _chain_ok(self.memberships)


@dataclass(frozen=True)
class CharacteristicSet:
    """Zero set of a class condition over the open quadrant s, t > 0.

    kind is "all", "empty", "line" (``lines``: (axis, value), axis "s" or "t")
    or "points" (``points``: (s, t)).  ``rank`` counts the constraints;
    ``sigma_min_kept`` is the smallest nonzero singular value of the
    condition's matrix (None at rank 0) and ``sigma_max_dropped`` its largest
    zero one, exactly 0.0 (None at rank 4).
    """

    kind: str
    points: tuple[tuple[float, float], ...] = ()
    lines: tuple[tuple[str, float], ...] = ()
    rank: int = 0
    sigma_min_kept: float | None = None

    @property
    def sigma_max_dropped(self) -> float | None:
        return 0.0 if self.rank < 4 else None

    def contains(self, s, t):
        """Whether (s, t) lies in the set: a bool for one point, a bool array
        for arrays of points.  Coordinates are compared to TAU_RANK."""
        s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
        inside = np.full(np.broadcast(s, t).shape, self.kind == "all")
        for axis, v in self.lines:
            inside |= _near(s if axis == "s" else t, v)
        for ps, pt in self.points:
            inside |= _near(s, ps) & _near(t, pt)
        return inside[()]

    def description(self) -> str:
        if self.kind == "all":
            return "all (s, t)"
        if self.kind == "empty":
            return "empty"
        parts = [f"line {axis}={value:.6f}" for axis, value in self.lines]
        parts += [f"({s:.6f}, {t:.6f})" for s, t in self.points]
        return "; ".join(parts)


def _near(x: np.ndarray, v: float) -> np.ndarray:
    return np.abs(x - v) <= TAU_RANK * max(1.0, abs(v))


def decode_constraints(rows) -> CharacteristicSet:
    """Zero set over s, t > 0 of w . (1, c(s, t)) = 0 for each row w of
    ``rows``, four integers each, decided exactly on their reduced rows
    (_reduced_rows).  No rows is "all"; rows that hold the constant row
    (1, 0, 0, 0) are "empty"; rank 3 leaves one kernel vector, a point
    ("empty" at infinity or off the open quadrant), found in integers; one
    row on c3 (c2) alone is the line s = 1 (t = 1).  These are the shapes
    the rows take on every flag space; any other raises ValueError naming
    the reduced rows."""
    rows = _reduced_rows(rows)
    rank = len(rows)
    if rank == 0:
        return CharacteristicSet(kind="all")
    if not any(rows[0][1:]):
        return CharacteristicSet(kind="empty", rank=rank)
    if rank == 3:
        points = _kernel_point(rows)
        return CharacteristicSet(kind="points" if points else "empty", points=points, rank=rank)
    if rows in ([(0, 0, 0, 1)], [(0, 0, 1, 0)]):
        return CharacteristicSet(kind="line", lines=(("s" if rows[0][3] else "t", 1.0),), rank=rank)
    raise ValueError(f"reduced rows {rows}: none of rank 0 or 3, a constant row or one row on c2 or c3 alone")


def _reduced_rows(rows) -> list[tuple[int, ...]]:
    """The nonzero rows of the reduced row echelon form of integer rows, each
    scaled to coprime integers with a positive pivot, by fraction-free
    Gauss-Jordan elimination in Python ints."""
    rest, done = [[operator.index(x) for x in w] for w in rows], []
    for col in range(4):
        live = [w for w in rest if w[col]]
        if live:
            pivot = live[0] if live[0][col] > 0 else [-x for x in live[0]]
            rest, done = ([[pivot[col] * x - w[col] * y for x, y in zip(w, pivot)] if w[col] else w for w in group]
                          for group in ([w for w in rest if w is not live[0]], done))
            done.append(pivot)
    return [tuple(x // math.gcd(*w) for x in w) for w in done]


def _kernel_point(rows) -> tuple[tuple[float, float], ...]:
    """The (s, t) with c(s, t) = v[1:] / v[0], v the kernel vector of three
    reduced rows whose kernel has v[0] != 0, exactly: one or none."""
    leads = [next(x for x, w in enumerate(row) if w) for row in rows]
    (free,) = {0, 1, 2, 3} - set(leads)
    scale = math.prod(row[lead] for row, lead in zip(rows, leads))  # v in integers
    v = {free: scale} | {lead: -row[free] * scale // row[lead] for row, lead in zip(rows, leads)}
    sn, sd = v[0] - 2 * v[1], v[0] - 2 * v[2]  # s = (1 - 2 c1) / (1 - 2 c2) = sn / sd
    if sd == 0:  # c2 = 1/2: the point lies at infinity
        return ()
    tn, td = sn * v[0] + 2 * v[1] * sd, sd * v[0]  # t = s + 2 c1 = tn / td
    # s and t must be positive, and c3 = v[3] / v[0] must equal (s - 1) / (2t)
    if sn * sd <= 0 or tn * td <= 0 or (sn - sd) * td * v[0] != 2 * tn * sd * v[3]:
        return ()
    return ((sn / sd, tn / td),)  # int / int rounds once


class ClassEvaluator:
    """Evaluates the three class conditions for one structure on one split.

    Set-up joins the nonzeros of the bracket tensor (``split.bracket_nonzeros``)
    and of f, the matrix of its sign pair (``f_matrix``), into each
    condition's base and three U-channel tensors, polarizes them and keeps
    only what carries data: the basis pairs i <= j with a nonzero row (at
    most 127 of 2,145 per condition at n = 24, k = 6) and, of their polarized
    rows, the entries nonzero in some channel (at most 171): under 11 kB per
    evaluator at n = 24, and no d^3 array on the way.  The join runs once
    per space: :func:`class_evaluators` sets up every structure of a list in
    one pass, 9 terms per structure times the bracket nonzeros (at most
    72 x 12 (n - 3) products), and each evaluator holds its slice of the
    shared arrays; this constructor is the list [f].  The join reads the
    bracket tensor's signs, so each kept entry is a half-integer, exactly
    (``_signed``); ``_values`` is that times the tensor's one magnitude.  A
    residual combines ``_values`` with (1, c(s, t)) of the closed-form U and
    takes the pair norms, a sweep does the same for blocks of grid points,
    and the exact zero sets come from ``_signed``.
    """

    def __init__(self, f: CanonicalStructure, split: TripleSplit):
        (ev,) = class_evaluators([f], split)
        vars(self).update(vars(ev))

    def _residuals(self, params: MetricParams | MetricGrid) -> tuple[np.ndarray, np.ndarray]:
        """Per condition and point, the normalized polarized residual and the
        first basis pair i <= j (row-major) achieving it: (3, P) and (3, P, 2).
        Raises ValueError at the first point where a pair norm overflows."""
        coeffs = u_channel_coefficients(params).T.reshape(-1, 3)
        norms = np.empty((len(coeffs), len(self._pairs)))
        step = max(1, (1 << 16) // self._values.shape[1])  # points per block of ~2^16 entries
        for b in range(0, len(coeffs), step):
            norms[b : b + step] = _combined_norms(self._values, self._starts, coeffs[b : b + step])
        s, t = params.s, params.t
        scale = 1.0 + s + t + 1.0 / s + 1.0 / t
        at = np.empty((len(self._spans), len(coeffs)), dtype=np.intp)  # the pair of each maximum
        for c, span in enumerate(self._spans.values()):
            at[c] = norms[:, span].argmax(axis=1) + span.start
        res = norms[np.arange(len(coeffs)), at] / scale
        if not np.isfinite(res).all():  # inf, or nan from inf - inf, where a pair norm overflows
            p = int(np.argmin(np.isfinite(res).all(axis=0)))
            s, t = (float(np.ravel(x)[p]) for x in (s, t))
            raise ValueError(f"{self.structure.label}: a class residual overflows at (s, t) = ({s!r}, {t!r})")
        return res, self._pairs[at]

    def _verdicts(self, params: MetricParams | MetricGrid) -> tuple[np.ndarray, ...]:
        """Residuals, memberships, indeterminate flags and witnesses per
        condition and point: (3, P) arrays, and (3, P, 2) with (-1, -1) for a member."""
        res, pairs = self._residuals(params)
        member = res < TAU_MEMBER
        indeterminate = ~member & (res <= NONMEMBER_MARGIN)
        return res, member, indeterminate, np.where(member[..., None], -1, pairs)

    def report(self, params: MetricParams) -> ClassReport:
        res, member, indeterminate, witness = (x[:, 0].tolist() for x in self._verdicts(params))
        return ClassReport(
            structure_label=self.structure.label,
            s=params.s,
            t=params.t,
            residuals=dict(zip(CONDITION_NAMES, res)),
            memberships=dict(zip(CONDITION_NAMES, member)),
            indeterminate=dict(zip(CONDITION_NAMES, indeterminate)),
            witnesses={name: None if m else tuple(w) for name, m, w in zip(CONDITION_NAMES, member, witness)},
        )

    def sweep(self, grid: MetricGrid) -> ClassSweep:
        """The residuals and verdicts at every point of the grid, as columns in grid order."""
        columns = [dict(zip(CONDITION_NAMES, x)) for x in self._verdicts(grid)]
        return ClassSweep(self.structure.label, grid.s, grid.t, *columns)

    def zero_set(self, name: str) -> CharacteristicSet:
        """Exact zero set of the named condition: ``zero_sets([self])[0][name]``."""
        if name not in CONDITION_NAMES:
            raise ValueError(f"no exact zero set for condition {name!r}")
        return zero_sets([self])[0][name]


def zero_sets(evaluators) -> list[dict[str, CharacteristicSet]]:
    """The exact zero set of each condition of each evaluator, by name: the
    constraints span the row space of the condition's 8 A^T A (_grams),
    which decode_constraints reduces exactly.  sigma_min_kept is the square
    root of the smallest of A^T A's top-rank eigenvalues (one stacked
    eigvalsh); the dropped singular values are exactly 0."""
    if not evaluators:
        return []
    grams, sets = _grams(evaluators), []
    for gram, lam in zip(grams.tolist(), np.linalg.eigvalsh(grams / 8.0).tolist()):  # lam ascending
        zs = decode_constraints(gram)
        sets.append(replace(zs, sigma_min_kept=math.sqrt(lam[4 - zs.rank]) if zs.rank else None))
    return [dict(zip(CONDITION_NAMES, sets[e : e + 3])) for e in range(0, len(sets), 3)]


def _grams(evaluators) -> np.ndarray:
    """8 A^T A of each condition of each evaluator, in order: a (3 E, 4, 4)
    integer array.  A condition's (E, 4) matrix A has its polarized entries
    as rows and the base and channel tensors as columns, and a pair i < j
    stands for both ordered pairs, so its rows weigh sqrt(2): A^T A is that
    of the dense polarized tensors.  Each entry is a half-integer times the
    bracket tensor's magnitude 1/sqrt(2), so with m twice the signed entry,
    8 A^T A sums m m^T over the diagonal pairs and 2 m m^T over the others,
    in integers, for every condition in one pass."""
    m = np.concatenate([2.0 * ev._signed.T for ev in evaluators]).astype(np.int64)
    i, j = np.concatenate([ev._pairs[ev._owner] for ev in evaluators]).T
    runs = np.cumsum([0] + [len(ev._owner) for ev in evaluators])  # a condition's entries are one run
    starts = [run + ev._starts[span.start] for run, ev in zip(runs, evaluators) for span in ev._spans.values()]
    return np.add.reduceat(np.where(i == j, 1, 2)[:, None, None] * m[:, :, None] * m[:, None, :], starts)


def class_evaluators(structures, split: TripleSplit) -> list[ClassEvaluator]:
    """One ClassEvaluator per structure, all set up by one join (see
    ClassEvaluator) of the matrices of their sign pairs with the signs of
    the bracket tensor; each holds a slice of the shared arrays.  Raises
    ValueError for a structure without a sign pair (only the m_blocks = 1
    f-structures have one), and for a bracket tensor whose nonzeros do not
    share one magnitude."""
    if not structures:
        return []
    unpaired = [cs.label for cs in structures if cs.sign_pair is None]
    if unpaired:
        raise ValueError(f"no sign pair (an m_blocks = 1 f-structure has one): {', '.join(unpaired)}")
    magnitude = np.abs(split.bracket_nonzeros[3])
    if np.any(magnitude != magnitude[0]):  # np.unique would import numpy.ma, 1.6 MB
        raise ValueError("the bracket tensor's nonzeros have more than one magnitude")
    signs = [cs.sign_pair for cs in structures]
    mats, eps = sign_pair_matrices(signs, split), sign_pair_rows(signs, split)
    pairs, owner, signed = _kept_entries(eps, split)
    values = signed * magnitude[0]
    owner = np.searchsorted(pairs, owner)
    group, i, j = np.unravel_index(pairs, (3 * len(structures), split.dim, split.dim))
    ij = np.stack([i, j], axis=1)
    starts = np.searchsorted(owner, np.arange(len(pairs) + 1))  # each pair owns an entry
    bounds = np.searchsorted(group, np.arange(3 * len(structures) + 1)).tolist()
    out = []
    for s, cs in enumerate(structures):
        lo, hi = bounds[3 * s], bounds[3 * s + 3]
        first, stop = starts[lo], starts[hi]
        ev = ClassEvaluator.__new__(ClassEvaluator)
        ev.structure, ev.split, ev.f_matrix = cs, split, mats[s]
        ev._pairs, ev._owner = ij[lo:hi], owner[first:stop] - lo
        ev._signed, ev._values = signed[:, first:stop], values[:, first:stop]
        ev._starts = starts[lo:hi] - first
        spans = zip(CONDITION_NAMES, bounds[3 * s :], bounds[3 * s + 1 :])
        ev._spans = {name: slice(a - lo, b - lo) for name, a, b in spans}
        out.append(ev)
    return out


def structure_matrices(structures, split: TripleSplit) -> np.ndarray:
    """The (S, d, d) stack of the structures' generated matrices, over m's
    basis, which is the split's (build_split requires it)."""
    return np.array([cs.matrix for cs in structures]).reshape(-1, split.dim, split.dim)


def metric_compat_residual(f: np.ndarray, split: TripleSplit, params: MetricParams | MetricGrid) -> float | np.ndarray:
    """Max |g(fX, Y) + g(X, fY)| over basis pairs, normalized by kappa, for a
    (d, d) block-basis matrix f or the most incompatible of an (S, d, d)
    stack: a float at one point, a (P,) array on a grid."""

    def worst(g):
        y = g[:, None] * f  # y[i, j] = g(X_i, f X_j) = g_i F[i, j], so y[j, i] = g(f X_i, X_j)
        return np.max(np.abs(np.swapaxes(y, -1, -2) + y), initial=0.0)

    return _at_each_point(worst, split, params)


def product_compat_residual(p: np.ndarray, split: TripleSplit, params: MetricParams | MetricGrid) -> float | np.ndarray:
    """Max |g(PX, PY) - g(X, Y)| over basis pairs, normalized by kappa, for a
    (d, d) block-basis matrix P or the worst of an (S, d, d) stack (the
    compatibility notion appropriate for almost product structures): a
    float at one point, a (P,) array on a grid."""

    def worst(g):
        # P^T G P with G = diag(g) as one product: g[:, None] * P is G P, row by row
        return np.max(np.abs(np.swapaxes(p, -1, -2) @ (g[:, None] * p) - np.diag(g)), initial=0.0)

    return _at_each_point(worst, split, params)


def _at_each_point(worst, split: TripleSplit, params: MetricParams | MetricGrid) -> float | np.ndarray:
    """worst(g) / kappa for the block weights g of the point, or of each point
    of a grid as a (P,) array: one point at a time, so that the (S, d, d)
    temporaries of a point stay in cache."""
    g = block_weights(split, params)
    if g.ndim == 1:
        return float(worst(g) / params.kappa)
    return np.array([worst(column) for column in g.T]) / params.kappa


def build_grid(
    gmin: float = DEFAULT_GRID[0],
    gmax: float = DEFAULT_GRID[1],
    step: float = DEFAULT_GRID[2],
    extras: tuple[tuple[float, float], ...] = SPECIAL_POINTS,
    kappa: float = 1.0,
) -> MetricGrid:
    """The row-major (s, t) grid at kappa, each axis gmin + i step up to gmax,
    then the extra points as floats in first-occurrence order: an extra is
    dropped when both its coordinates are axis values or it repeats an
    earlier one, so each point comes once.  Raises ValueError for more than
    MAX_GRID_POINTS points, counted before any is built, and as MetricGrid
    does for a point it refuses."""
    if step <= 0:
        raise ValueError("grid step must be positive")
    if gmin <= 0:
        raise ValueError("grid values must be positive")
    per_axis = max(0.0, float(np.floor((gmax - gmin) / step + TAU_GRID)) + 1.0)
    if not per_axis * per_axis + len(extras) <= MAX_GRID_POINTS:  # a float product, inf rather than a warning
        raise ValueError(f"{per_axis:.3g}^2 + {len(extras)} grid points exceed MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    vals = gmin + np.arange(int(per_axis)) * step
    vals = vals[np.diff(vals, prepend=-np.inf) > 0]  # each value once: they ascend, but rounding can repeat one
    on_axis = set(vals.tolist())
    extras = [p for p in dict.fromkeys(map(tuple, np.array(extras, dtype=float).reshape(-1, 2).tolist()))
              if not (p[0] in on_axis and p[1] in on_axis)]
    s, t = np.array(extras).reshape(-1, 2).T
    return MetricGrid(np.append(np.repeat(vals, len(vals)), s), np.append(np.tile(vals, len(vals)), t), kappa)


def grid_disagreement(sets: dict[str, CharacteristicSet], sweep: ClassSweep) -> str | None:
    """The first grid verdict (from residuals) that the exact zero set of its
    condition in ``sets`` (from the kernel of A) contradicts, or None: the
    first such point in grid order, and at it the first such condition."""
    names = list(sets)
    wrong = np.array([sweep.memberships[name] != sets[name].contains(sweep.s, sweep.t) for name in names])
    if not wrong.any():
        return None
    p = int(np.argmax(wrong.any(axis=0)))
    name = names[int(np.argmax(wrong[:, p]))]
    return (
        f"{sweep.structure_label} {name} at (s, t) = ({float(sweep.s[p])!r}, {float(sweep.t[p])!r}): grid verdict "
        f"member={bool(sweep.memberships[name][p])}, exact zero set {sets[name].description()!r}"
    )

