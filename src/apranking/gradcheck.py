"""Central-finite-difference checking for the analytic loss gradients.

The FD side is the independent oracle: it only ever calls the loss value.
Samplers here keep every gap a safe distance from the piecewise breakpoints
(0 and -delta for the quad-linear map, the hinge corner for pairwise
losses), because a second-order difference across a kink says nothing about
the one-sided derivative the implementation is defined to return.
"""

from __future__ import annotations

import numpy as np

from .ranking import QueryContext

__all__ = [
    "rel_err",
    "fd_context_gradients",
    "max_gradient_error",
    "random_safe_context",
]


def rel_err(a, b, floor: float = 1e-2) -> float:
    """Worst absolute discrepancy relative to the gradient magnitude.

    The floor keeps the ratio meaningful when the whole gradient is near
    zero: central differences at h = 1e-6 carry ~1e-9 of roundoff noise on
    their own, which is not evidence against an analytic zero.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0:
        return 0.0
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), floor)
    return float(np.max(np.abs(a - b)) / scale)


def fd_context_gradients(rows_fn, ctx: QueryContext, h: float = 1e-6):
    """Central differences wrt every score of the value a rows function
    (a ``*_rows`` loss) gives ``ctx`` as a stack of one row."""

    def value_at(pos, neg):
        return rows_fn(pos[None, :], neg[None, :])[0][0]

    pos, neg = ctx.positives.copy(), ctx.negatives.copy()
    gpos = np.zeros_like(pos)
    gneg = np.zeros_like(neg)
    for i in range(pos.size):
        bumped = pos.copy()
        bumped[i] = pos[i] + h
        hi = value_at(bumped, neg)
        bumped[i] = pos[i] - h
        lo = value_at(bumped, neg)
        gpos[i] = (hi - lo) / (2 * h)
    for j in range(neg.size):
        bumped = neg.copy()
        bumped[j] = neg[j] + h
        hi = value_at(pos, bumped)
        bumped[j] = neg[j] - h
        lo = value_at(pos, bumped)
        gneg[j] = (hi - lo) / (2 * h)
    return gpos, gneg


def max_gradient_error(rows_fn, contexts, h: float = 1e-6, floor: float = 1e-3) -> float:
    """Max relative error between the analytic and FD gradients of a rows
    function over contexts, each run as a stack of one row."""
    worst = 0.0
    for ctx in contexts:
        _, grad_pos, grad_neg = rows_fn(ctx.positives[None, :], ctx.negatives[None, :])
        gpos, gneg = fd_context_gradients(rows_fn, ctx, h=h)
        worst = max(worst, rel_err(grad_pos[0], gpos, floor))
        worst = max(worst, rel_err(grad_neg[0], gneg, floor))
    return worst


def random_safe_context(
    rng: np.random.Generator,
    num_pos: int,
    num_neg: int,
    breakpoints=(0.0,),
    min_margin: float = 1e-3,
    max_tries: int = 200,
) -> QueryContext:
    """Random scores in (-1, 1) whose pairwise gaps stay ``min_margin`` away
    from every breakpoint (checked for pos-neg and pos-pos gaps)."""
    bps = np.asarray(breakpoints, dtype=np.float64)
    if bps.size == 0:
        return QueryContext(
            rng.uniform(-1.0, 1.0, size=num_pos), rng.uniform(-1.0, 1.0, size=num_neg)
        )
    for _ in range(max_tries):
        pos = rng.uniform(-1.0, 1.0, size=num_pos)
        neg = rng.uniform(-1.0, 1.0, size=num_neg)
        gaps = []
        if num_pos and num_neg:
            gaps.append((neg[None, :] - pos[:, None]).ravel())
        if num_pos > 1:
            dp = pos[None, :] - pos[:, None]
            gaps.append(dp[~np.eye(num_pos, dtype=bool)].ravel())
        if not gaps:
            return QueryContext(pos, neg)
        all_gaps = np.concatenate(gaps)
        dist = np.min(np.abs(all_gaps[:, None] - bps[None, :]))
        if dist >= min_margin:
            return QueryContext(pos, neg)
    raise RuntimeError("could not sample a breakpoint-safe context")
