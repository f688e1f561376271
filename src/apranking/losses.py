"""Listwise AP surrogate losses and pairwise baselines over stacks of query rows.

Each loss is one rows function: it maps a (Q, P) stack of positive scores
and a (Q, M) stack of negative scores to the Q loss values and closed-form
gradients with respect to every score. :func:`matrix_loss` runs it on the
query rows of a similarity matrix; one query is a stack of one row.
:data:`RANKING_LOSSES` maps each ranking-loss name that training, ``train
--losses`` and ``bench-loss`` accept to its rows function.

The quad-linear surrogate replaces the step penalty on positive-negative
gaps with a piecewise map that is zero in the dead zone (gap < -delta),
quadratic across the margin, and linear beyond it, so badly mis-ranked
pairs keep a constant-slope gradient instead of the vanishing sigmoid tail.

Conventions shared by all losses here:

* gaps are d = s_neg - s_pos (positive d means the pair is mis-ranked);
* every row passed to a rows function has at least one positive;
  :func:`matrix_loss` skips a query with no positives (it gets zero
  gradient and does not count toward the batch mean's denominator);
* positive-positive rank weights in the quad-linear risk use the exact strict
  step and are treated as constants during differentiation;
* everything is computed in float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .errors import DegenerateInputError, StructuralError, check_range
from .ranking import QueryContext, RelevanceMatrix, heaviside

__all__ = [
    "QuadLinearParams",
    "SmoothApParams",
    "MatrixLossOutput",
    "r_minus",
    "r_minus_grad",
    "sigmoid_surrogate",
    "sigmoid_surrogate_grad",
    "quadlinear_ap_risk_rows",
    "heaviside_ap_risk",
    "smooth_ap_risk_rows",
    "triplet_loss_rows",
    "contrastive_loss_rows",
    "infonce_loss_rows",
    "sshn_loss_rows",
    "RANKING_LOSSES",
    "query_masks",
    "matrix_loss",
    "sshn_matrix_loss",
]

SSHN_CLAMP_EPS = 1e-6


@dataclass(frozen=True)
class QuadLinearParams:
    """Margin and positive-pair weight of the quad-linear AP surrogate."""

    delta: float = 0.05
    rho: float = 0.10

    def __post_init__(self):
        check_range("positive", delta=self.delta)
        check_range("nonnegative", rho=self.rho)


@dataclass(frozen=True)
class SmoothApParams:
    """Sigmoid temperature of the smooth AP surrogate."""

    tau: float = 0.01

    def __post_init__(self):
        check_range("positive", tau=self.tau)


@dataclass(frozen=True)
class MatrixLossOutput:
    """Batch loss over a similarity matrix; gradient is conformal to it."""

    value: float
    grad: np.ndarray
    active_queries: int


def _rows(pos, neg):
    """The (Q, P) and (Q, M) score stacks of a rows function as float64;
    every row must have a positive."""
    pos = np.asarray(pos, dtype=np.float64)
    neg = np.asarray(neg, dtype=np.float64)
    if pos.shape[1] == 0:
        raise StructuralError("rows must have at least one positive")
    return pos, neg


# ---------------------------------------------------------------------------
# scalar surrogate maps
# ---------------------------------------------------------------------------


def r_minus(x, delta: float):
    """Quad-linear penalty for a positive-negative gap x = s_neg - s_pos.

    Piecewise: 2x/delta + 1 for x >= 0; (x/delta + 1)^2 on [-delta, 0);
    exactly 0 below -delta. Continuous, convex, nondecreasing, and an upper
    bound of the strict step.
    """
    check_range("positive", delta=delta)
    x = np.asarray(x, dtype=np.float64)
    lin = 2.0 * x / delta + 1.0
    quad = (x / delta + 1.0) ** 2
    out = np.where(x >= 0.0, lin, np.where(x >= -delta, quad, 0.0))
    return float(out) if out.ndim == 0 else out


def r_minus_grad(x, delta: float):
    """Derivative of :func:`r_minus`; continuous, with value 2/delta on x >= 0."""
    check_range("positive", delta=delta)
    x = np.asarray(x, dtype=np.float64)
    # the ramp is written as 2(x/delta + 1)/delta so it is exactly 0 at the
    # dead-zone edge and exactly 2/delta at the linear joint
    ramp = 2.0 * (x / delta + 1.0) / delta
    slope = np.where(x >= 0.0, 2.0 / delta, np.where(x >= -delta, ramp, 0.0))
    return float(slope) if slope.ndim == 0 else slope


def sigmoid_surrogate(x, tau: float):
    """Temperature-tau sigmoid G(x) = 1 / (1 + exp(-x/tau)).

    Stable for large |x/tau|: saturates to exact 0.0 / 1.0 instead of
    overflowing.
    """
    check_range("positive", tau=tau)
    z = np.asarray(x, dtype=np.float64) / tau
    with np.errstate(over="ignore"):
        out = np.where(
            z >= 0.0,
            1.0 / (1.0 + np.exp(-np.maximum(z, 0.0))),
            np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(np.minimum(z, 0.0))),
        )
    return float(out) if out.ndim == 0 else out


def sigmoid_surrogate_grad(x, tau: float):
    """d/dx of :func:`sigmoid_surrogate`, computed in the exp(-|z|) form so the
    tail magnitude stays representable instead of rounding through 1 - G."""
    check_range("positive", tau=tau)
    z = np.abs(np.asarray(x, dtype=np.float64)) / tau
    e = np.exp(-z)
    out = e / (tau * (1.0 + e) ** 2)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# listwise AP risks
# ---------------------------------------------------------------------------


def quadlinear_ap_risk_rows(pos: np.ndarray, neg: np.ndarray, p: QuadLinearParams):
    """Quad-linear AP risk of each row, with analytic gradients.

    ``pos`` is (Q, P) and ``neg`` is (Q, M); returns (values (Q,),
    grad_pos (Q, P), grad_neg (Q, M)). A row's value is the mean over its
    positives i of h(A_i / B_i), where A_i = sum_j r_minus(s_neg_j - s_pos_i),
    B_i = 1 + rho * (#positives strictly above i), and h(u) = u / (1 + u).
    The rank-weight denominator B_i is a constant during differentiation.
    Runs the video loss on each stack of equal-count matrix rows and the
    frame loss on its pseudo-labeled rows.
    """
    pos, neg = _rows(pos, neg)
    nq, npos = pos.shape
    d_neg = neg[:, None, :] - pos[:, :, None]  # (Q, P, M)
    a = r_minus(d_neg, p.delta).sum(axis=-1) if neg.shape[1] else np.zeros((nq, npos))
    d_pos = pos[:, None, :] - pos[:, :, None]  # (Q, P, P), diagonal gaps are 0
    c = heaviside(d_pos).sum(axis=-1)
    b = 1.0 + p.rho * c
    denom = a + b
    values = (a / denom).mean(axis=-1)
    # dh/dA at u = A/B is B / (A + B)^2
    dterm = b / denom**2
    if neg.shape[1]:
        slope = r_minus_grad(d_neg, p.delta)  # (Q, P, M)
        grad_neg = (dterm[:, :, None] * slope).sum(axis=1) / npos
        grad_pos = -(dterm * slope.sum(axis=-1)) / npos
    else:
        grad_neg = np.zeros_like(neg)
        grad_pos = np.zeros_like(pos)
    return values, grad_pos, grad_neg


def heaviside_ap_risk(q: QueryContext) -> float:
    """Exact AP risk (1 - AP) of one query via strict-step rank counting.

    Evaluated in exact rational arithmetic and returned as the float
    complement of the exact AP, so that ``1.0 - average_precision(...)``
    compares bitwise equal for the same scores.
    """
    if q.num_positives == 0:
        raise StructuralError("AP risk undefined for a query with no positives")
    pos, neg = q.positives, q.negatives
    total = Fraction(0)
    for s in pos:
        n_above = int(np.count_nonzero(neg > s))
        p_above = int(np.count_nonzero(pos > s))
        total += Fraction(n_above, 1 + p_above + n_above)
    risk = total / len(pos)
    return 1.0 - float(1 - risk)


def smooth_ap_risk_rows(pos: np.ndarray, neg: np.ndarray, p: SmoothApParams):
    """Sigmoid-smoothed AP risk of each row, with every step replaced by
    G(.; tau): (Q, P) and (Q, M) score stacks to (values (Q,),
    grad_pos (Q, P), grad_neg (Q, M)).

    A row's value is the mean over its positives i of N_i / (1 + P_i + N_i),
    where N_i sums G over the negatives and P_i sums G over all positives
    including i itself (the self gap is 0, contributing the constant
    G(0) = 1/2). Gradients flow through both sums.
    """
    pos, neg = _rows(pos, neg)
    npos = pos.shape[1]
    d_neg = neg[:, None, :] - pos[:, :, None]  # (Q, P, M)
    d_pos = pos[:, None, :] - pos[:, :, None]  # (Q, P, P)
    n_i = sigmoid_surrogate(d_neg, p.tau).sum(axis=-1)
    p_i = sigmoid_surrogate(d_pos, p.tau).sum(axis=-1)
    d_i = 1.0 + p_i + n_i
    values = (n_i / d_i).mean(axis=-1)

    dg_neg = sigmoid_surrogate_grad(d_neg, p.tau)
    dg_pos = sigmoid_surrogate_grad(d_pos, p.tau)
    diag = np.arange(npos)
    dg_pos[:, diag, diag] = 0.0  # the self gap is identically zero
    nd = dg_neg.sum(axis=-1)
    pd = dg_pos.sum(axis=-1)

    grad_neg = (dg_neg * ((1.0 + p_i) / d_i**2)[:, :, None]).sum(axis=1) / npos
    own = (-nd * d_i + n_i * (pd + nd)) / d_i**2
    cross = (dg_pos * (n_i / d_i**2)[:, :, None]).sum(axis=1)
    grad_pos = (own - cross) / npos
    return values, grad_pos, grad_neg


# ---------------------------------------------------------------------------
# pairwise baselines and the self-supervised base losses
# ---------------------------------------------------------------------------


def triplet_loss_rows(pos: np.ndarray, neg: np.ndarray, margin: float = 0.2):
    """Mean hinge over all positive-negative pairs of each row:
    max(0, s_neg - s_pos + margin). Rows without negatives give 0."""
    check_range("nonnegative", margin=margin)
    pos, neg = _rows(pos, neg)
    (nq, npos), nneg = pos.shape, neg.shape[1]
    if nneg == 0:
        return np.zeros(nq), np.zeros_like(pos), np.zeros_like(neg)
    gap = neg[:, None, :] - pos[:, :, None] + margin
    active = gap > 0.0
    npairs = npos * nneg
    # the pairs of a row are added as one flat list of P * M entries
    values = np.where(active, gap, 0.0).reshape(nq, npairs).sum(axis=-1) / npairs
    grad_pos = -active.sum(axis=2) / npairs
    grad_neg = active.sum(axis=1) / npairs
    return values, grad_pos, grad_neg


def contrastive_loss_rows(pos: np.ndarray, neg: np.ndarray, margin: float = 0.2):
    """Mean of per-item terms of each row: (1 - s_pos) for positives,
    max(0, s_neg - margin) for negatives. Pulls positives toward similarity
    1 and pushes negatives below the margin."""
    check_range("nonnegative", margin=margin)
    pos, neg = _rows(pos, neg)
    n_terms = pos.shape[1] + neg.shape[1]
    neg_active = neg > margin
    values = (
        (1.0 - pos).sum(axis=-1) + np.where(neg_active, neg - margin, 0.0).sum(axis=-1)
    ) / n_terms
    grad_pos = np.full_like(pos, -1.0 / n_terms)
    grad_neg = neg_active.astype(np.float64) / n_terms
    return values, grad_pos, grad_neg


# ranking-loss name -> its rows function, given the quad-linear parameters,
# the smooth-AP parameters and the pairwise margin
RANKING_LOSSES = {
    "quadlinear": lambda ql, smooth, margin: partial(quadlinear_ap_risk_rows, p=ql),
    "smooth": lambda ql, smooth, margin: partial(smooth_ap_risk_rows, p=smooth),
    "triplet": lambda ql, smooth, margin: partial(triplet_loss_rows, margin=margin),
    "contrastive": lambda ql, smooth, margin: partial(contrastive_loss_rows, margin=margin),
}


def infonce_loss_rows(pos: np.ndarray, neg: np.ndarray, tau: float):
    """InfoNCE of each row: every positive against the row's negatives.

    value = -(1/P) sum_i log[ exp(s_i/tau) / (exp(s_i/tau) +
    sum_j exp(s_neg_j/tau)) ], computed through log-sum-exp. Rows without
    negatives give 0.
    """
    check_range("positive", tau=tau)
    pos, neg = _rows(pos, neg)
    (nq, npos), nneg = pos.shape, neg.shape[1]
    if nneg == 0:
        return np.zeros(nq), np.zeros_like(pos), np.zeros_like(neg)
    z_pos = pos / tau
    z_neg = neg / tau
    # per-positive logits: own score plus all negatives of its row
    logits = np.concatenate(
        [z_pos[:, :, None], np.broadcast_to(z_neg[:, None, :], (nq, npos, nneg))], axis=2
    )
    shift = logits.max(axis=2, keepdims=True)
    w = np.exp(logits - shift)
    zsum = w.sum(axis=2)
    lse = shift[:, :, 0] + np.log(zsum)
    values = (lse - z_pos).mean(axis=-1)
    soft = w / zsum[:, :, None]  # rows sum to 1
    grad_pos = -(1.0 - soft[:, :, 0]) / (npos * tau)
    grad_neg = soft[:, :, 1:].sum(axis=1) / (npos * tau)
    return values, grad_pos, grad_neg


def sshn_loss_rows(self_sim, hardest_negative):
    """Self-similarity / hardest-negative log loss over (Q,) arrays of self
    similarities and hardest negatives; returns (values, d/d(self_sim),
    d/d(hardest_negative)), each (Q,).

    value = -log(s_self) - log(1 - s_neg), with s_self clamped to [eps, 1]
    and s_neg to [0, 1 - eps] (eps = 1e-6) before the logs; the gradient is
    zero on a clamped side.
    """
    s_raw = np.asarray(self_sim, dtype=np.float64)
    n_raw = np.asarray(hardest_negative, dtype=np.float64)
    for name, v in (("self_sim", s_raw), ("hardest_negative", n_raw)):
        bad = ~(np.abs(v) <= 1.0 + 1e-9)  # NaN compares False
        if bad.any():
            raise DegenerateInputError(
                f"{name}={v[bad][0]} is outside the similarity range [-1, 1]"
            )
    s = np.minimum(np.maximum(s_raw, SSHN_CLAMP_EPS), 1.0)
    n = np.minimum(np.maximum(n_raw, 0.0), 1.0 - SSHN_CLAMP_EPS)
    values = -np.log(s) - np.log(1.0 - n)
    g_self = np.where((SSHN_CLAMP_EPS < s_raw) & (s_raw < 1.0), -1.0 / s, 0.0)
    g_neg = np.where((0.0 < n_raw) & (n_raw < 1.0 - SSHN_CLAMP_EPS), 1.0 / (1.0 - n), 0.0)
    return values, g_self, g_neg


# ---------------------------------------------------------------------------
# batch reductions over similarity matrices
# ---------------------------------------------------------------------------


def query_masks(relevance: RelevanceMatrix):
    """(positives, negatives): boolean (n, n) masks of the off-diagonal
    entries of relevance 1 and of relevance 0, the split
    :func:`~apranking.ranking.partition_query` makes of each row."""
    off = ~np.eye(relevance.n, dtype=bool)
    return off & (relevance.entries == 1), off & (relevance.entries == 0)


def _square(sim, relevance: RelevanceMatrix) -> np.ndarray:
    sim = np.asarray(sim, dtype=np.float64)
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1]:
        raise StructuralError("similarity matrix must be square")
    if sim.shape[0] != relevance.n:
        raise StructuralError(
            f"similarity is {sim.shape} but relevance is {relevance.n}x{relevance.n}"
        )
    return sim


def _sum_in_row_order(values) -> float:
    """0.0 plus each value in turn, as a Python loop adds them up; numpy's
    sum adds 8 or more values in interleaved partial sums."""
    return float(np.add.accumulate(np.concatenate(([0.0], values)))[-1])


def matrix_loss(sim, relevance: RelevanceMatrix, rows_fn) -> MatrixLossOutput:
    """Average a rows loss (a ``*_rows`` function) over the query rows of a
    similarity matrix.

    Row k's positives and negatives are its entries in :func:`query_masks`,
    in column order. Every row has n - 1 of them, so rows with equal
    positive counts stack and ``rows_fn`` runs once per stack; a
    group-balanced batch is one stack. Stacks, not zero-padded masks, keep
    every bit: numpy adds 8 or more entries in interleaved partial sums,
    which padding would regroup. Skipped queries (no positives) do not count
    toward the mean; their rows and the diagonal get zero gradient.
    """
    sim = _square(sim, relevance)
    pos, neg = query_masks(relevance)
    if not np.all(np.isfinite(sim[pos | neg])):
        raise StructuralError("similarity scores must be finite")
    n = relevance.n
    counts = pos.sum(axis=1)
    values = np.zeros(n)
    grad = np.zeros_like(sim)
    for p in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == p)
        pos_cols = np.nonzero(pos[rows])[1].reshape(rows.size, p)
        neg_cols = np.nonzero(neg[rows])[1].reshape(rows.size, n - 1 - p)
        at = rows[:, None]
        vals, grad_pos, grad_neg = rows_fn(sim[at, pos_cols], sim[at, neg_cols])
        values[rows] = vals
        grad[at, pos_cols] = grad_pos
        grad[at, neg_cols] = grad_neg
    active = int(np.count_nonzero(counts))
    if active == 0:
        return MatrixLossOutput(0.0, np.zeros_like(sim), 0)
    total = _sum_in_row_order(values[counts > 0])
    return MatrixLossOutput(total / active, grad / active, active)


def sshn_matrix_loss(sim, relevance: RelevanceMatrix) -> MatrixLossOutput:
    """Self-similarity / hardest-negative loss averaged over all rows: the
    diagonal entry against the row's first maximal negative. A row without
    negatives contributes the self term alone."""
    sim = _square(sim, relevance)
    n = relevance.n
    _, neg = query_masks(relevance)
    rows = np.flatnonzero(neg.any(axis=1))
    cols = np.argmax(np.where(neg, sim, -np.inf), axis=1)[rows]
    hardest = np.zeros(n)
    hardest[rows] = sim[rows, cols]
    values, g_self, g_neg = sshn_loss_rows(np.diagonal(sim), hardest)
    grad = np.zeros_like(sim)
    grad[rows, cols] += g_neg[rows]
    grad[np.diag_indices(n)] += g_self
    return MatrixLossOutput(_sum_in_row_order(values) / n, grad / n, n)
