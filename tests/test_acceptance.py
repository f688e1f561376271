"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible under ``pytest -s``).

The training-based criteria (8-10) share their runs through session-scoped
fixtures; with five seeds per configuration they dominate the suite's
runtime. Every tolerance is fixed here, not calibrated at run time.
"""

import json
import os
import subprocess
import sys
import time
from functools import partial

import numpy as np
import pytest

from apranking import autodiff as ad
from apranking.aggregation import (
    chamfer_frame_similarity,
    mean_frame_similarity,
    spatial_topk_chamfer,
    temporal_mean,
    temporal_topk_chamfer,
)
from apranking.gradcheck import max_gradient_error, random_safe_context, rel_err
from apranking.losses import (
    QuadLinearParams,
    SmoothApParams,
    heaviside_ap_risk,
    infonce_loss_rows,
    quadlinear_ap_risk_rows,
    r_minus,
    r_minus_grad,
    sigmoid_surrogate_grad,
    smooth_ap_risk_rows,
    sshn_loss_rows,
)
from apranking.metrics import average_precision, brute_force_ap, retrieval_report
from apranking.pseudolabels import LabelRates, pseudo_label_indices
from apranking.ranking import ScoredList, heaviside
from apranking.synthetic import generate_corpus, planted_correspondence_matrix
from apranking.trainer import (
    HARD_VARIANTS,
    REFERENCE_SEEDS as SEEDS,
    LossWeights,
    build_losses,
    easy_preset,
    hard_preset,
    run_variants,
)


def report(criterion: int, passed: bool, detail: str):
    print(f"[criterion {criterion:2d}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def median(values):
    return float(np.median(np.asarray(values, dtype=np.float64)))


# ---------------------------------------------------------------------------
# training fixtures shared by criteria 8-10
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def easy_runs():
    return run_variants(easy_preset, ("full",))["full"]


@pytest.fixture(scope="session")
def hard_runs():
    """Per-tag results on the hard preset under identical budgets."""
    return run_variants(hard_preset, HARD_VARIANTS)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_surrogate_properties():
    started = time.time()
    rng = np.random.default_rng(101)
    n = 10_000
    deltas = np.exp(rng.uniform(np.log(1e-3), np.log(1.0), size=n))
    x = rng.uniform(-3.0, 3.0, size=n) * deltas
    x2 = x + rng.uniform(0.0, 2.0, size=n)
    t = rng.uniform(0.0, 1.0, size=n)

    # r_minus(x, delta) == r_minus(x / delta, 1) exactly, which vectorizes
    # the per-sample deltas away
    def rm(values):
        return r_minus(values / deltas, 1.0)

    def rm_grad(values):
        return r_minus_grad(values / deltas, 1.0) / deltas

    upper_ok = int(np.sum(rm(x) < heaviside(x)))

    mid = t * x + (1 - t) * x2
    convex_bad = int(np.sum(t * rm(x) + (1 - t) * rm(x2) < rm(mid) - 1e-10))
    mono_bad = int(np.sum(rm(x2) < rm(x) - 1e-12))

    # derivative continuity: the slope is Lipschitz with constant 2/delta^2
    eps = 1e-9 * deltas
    jumps = np.abs(rm_grad(x + eps) - rm_grad(x))
    cont_bad = int(np.sum(jumps > 2.0 / deltas**2 * eps + 1e-10))

    elapsed = time.time() - started
    ok = upper_ok == 0 and convex_bad == 0 and mono_bad == 0 and cont_bad == 0 and elapsed < 1.0
    report(
        1,
        ok,
        f"{n} samples: upper-bound/convexity/monotonicity/continuity violations = "
        f"{upper_ok}/{convex_bad}/{mono_bad}/{cont_bad}, {elapsed:.2f}s",
    )


def test_criterion_2_gradient_oracle():
    started = time.time()
    rng = np.random.default_rng(202)
    delta = 0.05
    errs = {}

    def make_contexts(n, breakpoints):
        out = []
        for _ in range(n):
            out.append(
                random_safe_context(
                    rng, int(rng.integers(1, 5)), int(rng.integers(0, 7)), breakpoints=breakpoints
                )
            )
        return out

    ctxs = make_contexts(200, (0.0, -delta))
    errs["quadlinear"] = max_gradient_error(
        partial(quadlinear_ap_risk_rows, p=QuadLinearParams(delta, 0.7)), ctxs
    )
    errs["smooth"] = max_gradient_error(
        partial(smooth_ap_risk_rows, p=SmoothApParams(0.05)), make_contexts(200, ())
    )
    errs["infonce"] = max_gradient_error(partial(infonce_loss_rows, tau=0.1), make_contexts(200, ()))

    def sshn_value(self_sim, hardest_negative):
        return sshn_loss_rows([self_sim], [hardest_negative])[0][0]

    worst_sshn = 0.0
    h = 1e-6
    for _ in range(200):
        s, n_ = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.05, 0.95))
        _, g_self, g_neg = sshn_loss_rows([s], [n_])
        fd_s = (sshn_value(s + h, n_) - sshn_value(s - h, n_)) / (2 * h)
        fd_n = (sshn_value(s, n_ + h) - sshn_value(s, n_ - h)) / (2 * h)
        worst_sshn = max(
            worst_sshn,
            rel_err(g_self, [fd_s]),
            rel_err(g_neg, [fd_n]),
        )
    errs["sshn"] = worst_sshn

    errs["pipeline"] = _pipeline_fd_error(rng)
    elapsed = time.time() - started

    loss_ok = all(errs[k] < 1e-6 for k in ("quadlinear", "smooth", "infonce", "sshn"))
    ok = loss_ok and errs["pipeline"] < 1e-5 and elapsed < 30.0
    report(
        2,
        ok,
        "max rel err: "
        + ", ".join(f"{k}={v:.2e}" for k, v in errs.items())
        + f", {elapsed:.1f}s",
    )


def _pipeline_fd_error(rng):
    """>=200 central-difference probes through the full training pipeline."""
    from apranking.aggregation import AggregationParams
    from apranking.model import init_model
    from apranking.synthetic import SyntheticConfig
    from apranking.trainer import TrainConfig

    worst = 0.0
    probes = 0
    seed = 0
    while probes < 200 and seed < 200:
        seed += 1
        kind = ("identity", "affine", "conv")[seed % 3]
        syn = SyntheticConfig(
            num_clips=4, num_groups=2, frames=5, patches=2, dim=7, teacher_dim=4,
            signal_dim=5, seed=seed, noise=0.2, nuisance_scale=2.0,
        )
        cfg = TrainConfig(
            synthetic=syn, refiner_kind=kind,
            agg=AggregationParams(k_s=0.6, k_t=0.5),
            qlap_video=QuadLinearParams(0.05, 0.5),
            weights=LossWeights(lambda_v=2.0, lambda_f=1.5, lambda_s=0.7, tau_nce=0.2),
            groups_per_batch=2, clips_per_group=2, iterations=1,
        )
        clips = generate_corpus(syn)
        model = init_model(7, refiner_kind=kind, seed=seed + 10, init_noise=0.05)
        if kind == "affine":
            model.refiner_scale.value = np.asarray(0.9)
            model.refiner_bias.value = np.asarray(-0.05)
        cache = {}
        guard = ad.BreakpointGuard()
        build_losses(cfg, model, clips, cache, guard=guard)
        if guard.min_margin() < 1e-5:
            continue  # breakpoint neighborhoods are excluded
        model.zero_grads()
        total, _ = build_losses(cfg, model, clips, cache)
        total.backward()
        h = 1e-7
        for name, p in model.parameters():
            for fi in rng.choice(p.value.size, size=min(6, p.value.size), replace=False):
                idx = np.unravel_index(fi, p.value.shape)
                orig = p.value[idx]
                p.value[idx] = orig + h
                hi, _ = build_losses(cfg, model, clips, cache)
                p.value[idx] = orig - h
                lo, _ = build_losses(cfg, model, clips, cache)
                p.value[idx] = orig
                fd = (hi.item() - lo.item()) / (2 * h)
                worst = max(worst, abs(p.grad[idx] - fd) / max(abs(p.grad[idx]), abs(fd), 1e-2))
                probes += 1
    assert probes >= 200, "could not collect enough breakpoint-safe probes"
    return worst


def test_criterion_3_ap_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(303)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        scores = rng.permutation(np.linspace(-1.0, 1.0, n))
        labels = rng.integers(0, 2, size=n)
        if not labels.any():
            labels[int(rng.integers(0, n))] = 1
        sl = ScoredList(scores, labels)
        ap = average_precision(sl)
        assert brute_force_ap(sl) == ap
        assert 1.0 - ap == heaviside_ap_risk(sl.to_query_context())
        checked += 1
    elapsed = time.time() - started
    ok = checked == 1000 and elapsed < 5.0
    report(3, ok, f"{checked} lists, exact equality both ways, {elapsed:.2f}s")


def test_criterion_4_hand_anchors():
    ap = average_precision(ScoredList([0.9, 0.8, 0.7], [1, 0, 1]))
    pooled = retrieval_report([[0.9, 0.1], [0.8, 0.7]], [[1, 0], [0, 1]]).micro_ap
    ql = quadlinear_ap_risk_rows([[0.8, 0.4]], [[0.6]], QuadLinearParams(0.05, 1.0))[0][0]
    ok = ap == 5 / 6 and pooled == 5 / 6 and abs(ql - 9 / 22) < 1e-12
    report(4, ok, f"AP={ap:.12f} (5/6), microAP={pooled:.12f} (5/6), quadlinear={ql:.12f} (9/22)")


def test_criterion_5_aggregation_degeneracies():
    rng = np.random.default_rng(505)
    mismatches = 0
    for _ in range(100):
        t, r, rc, tc = (int(rng.integers(1, 6)) for _ in range(4))
        sim = rng.uniform(-1, 1, size=(t, r, rc, tc))
        if not np.array_equal(spatial_topk_chamfer(sim, 0.0), chamfer_frame_similarity(sim)):
            mismatches += 1
        if not np.array_equal(spatial_topk_chamfer(sim, 1.0), mean_frame_similarity(sim)):
            mismatches += 1
        m = rng.uniform(-1, 1, size=(int(rng.integers(1, 8)), int(rng.integers(1, 8))))
        if temporal_topk_chamfer(m, 0.0) != float(np.sum(np.max(m, axis=-1)) / m.shape[0]):
            mismatches += 1
        if temporal_topk_chamfer(m, 1.0) != temporal_mean(m):
            mismatches += 1
    report(5, mismatches == 0, f"100 random tensors, bitwise mismatches = {mismatches}")


def test_criterion_6_gradient_vanishing_contrast():
    ql = r_minus_grad(0.5, 0.05)
    sg = sigmoid_surrogate_grad(0.5, 0.01)
    ratio = np.inf if sg == 0 else ql / sg
    ok = ql == pytest.approx(40.0, abs=1e-12) and sg < 1e-18 and ratio > 1e15
    report(6, ok, f"|quadlinear'|={ql:.1f}, |sigmoid'|={sg:.2e}, ratio={ratio:.2e}")


def test_criterion_7_pseudo_label_fidelity():
    rng = np.random.default_rng(707)
    bad_precision = 0
    bad_counts = 0
    for trial in range(50):
        cols = int(rng.integers(8, 30))
        rows = int(rng.integers(2, 10))
        overlap = float(rng.uniform(0.2, 0.8))
        sim, mask = planted_correspondence_matrix(rows, cols, overlap, seed=trial)
        r_t = float(rng.uniform(0.05, overlap))
        r_b = float(rng.uniform(0.05, min(0.9 - r_t, 0.4)))
        rates = LabelRates(r_t, r_b)
        pos, neg = pseudo_label_indices(sim, rates)
        npos, nneg = rates.counts(cols)
        if not np.all(np.take_along_axis(mask, pos, axis=1)):
            bad_precision += 1
        for row_pos, row_neg in zip(pos, neg):
            picked = np.concatenate([row_pos, row_neg])
            if not (row_pos.size == npos and row_neg.size == nneg and np.unique(picked).size == picked.size):
                bad_counts += 1
                break
    ok = bad_precision == 0 and bad_counts == 0
    report(7, ok, f"50 planted matrices: precision violations={bad_precision}, count violations={bad_counts}")


@pytest.mark.slow
def test_criterion_8_training_regression_easy(easy_runs):
    maps = [r.final_report.map for r in easy_runs]
    uaps = [r.final_report.micro_ap for r in easy_runs]
    init_maps = [r.initial_report.map for r in easy_runs]
    med_map, med_uap = median(maps), median(uaps)
    improved = median(maps) > median(init_maps)
    ok = med_map >= 0.95 and med_uap >= 0.90 and improved
    report(
        8,
        ok,
        f"easy preset medians over {len(SEEDS)} seeds: mAP={med_map:.4f} (>=0.95), "
        f"microAP={med_uap:.4f} (>=0.90), init mAP={median(init_maps):.4f}",
    )


@pytest.mark.slow
def test_criterion_9_directional_loss_comparison(hard_runs):
    uap = {tag: median([r.final_report.micro_ap for r in runs]) for tag, runs in hard_runs.items()}
    ok = uap["quadlinear"] >= uap["triplet"] and uap["quadlinear"] >= uap["smooth"] - 0.01
    report(
        9,
        ok,
        f"hard preset median microAP: quadlinear={uap['quadlinear']:.4f}, "
        f"triplet={uap['triplet']:.4f}, smooth={uap['smooth']:.4f}",
    )


@pytest.mark.slow
def test_criterion_10_hierarchy_ablation(hard_runs):
    uap = {tag: median([r.final_report.micro_ap for r in runs]) for tag, runs in hard_runs.items()}
    maps = {tag: median([r.final_report.map for r in runs]) for tag, runs in hard_runs.items()}
    video_helps = uap["quadlinear"] >= uap["base"]
    frame_harmless = maps["full"] >= maps["quadlinear"] - 0.01
    ok = video_helps and frame_harmless
    report(
        10,
        ok,
        f"median microAP base={uap['base']:.4f} vs +video={uap['quadlinear']:.4f}; "
        f"median mAP +video={maps['quadlinear']:.4f} vs +video+frame={maps['full']:.4f}",
    )


def test_criterion_11_determinism(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    config = {
        "synthetic": {
            "num_clips": 12, "num_groups": 4, "frames": 5, "patches": 2, "dim": 8,
            "teacher_dim": 4, "signal_dim": 6, "noise": 0.1, "nuisance_scale": 3.0, "seed": 0,
        },
        "heldout": {"num_clips": 12, "num_groups": 4},
        "groups_per_batch": 2,
        "clips_per_group": 3,
        "iterations": 6,
        "eval_every": 0,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    def run(cmd, out):
        full = [sys.executable, "-m", "apranking.cli"] + cmd + [
            "--deterministic", "--seed", "3", "--out", str(out),
        ]
        proc = subprocess.run(full, capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        return sorted(os.listdir(out))

    commands = {
        "bench-loss": ["bench-loss"],
        "train": ["train", "--config", str(config_path)],
    }
    mismatched = []
    for name, cmd in commands.items():
        files_a = run(cmd, tmp_path / f"{name}-a")
        files_b = run(cmd, tmp_path / f"{name}-b")
        assert files_a == files_b
        for fname in files_a:
            a = open(tmp_path / f"{name}-a" / fname, "rb").read()
            b = open(tmp_path / f"{name}-b" / fname, "rb").read()
            if a != b:
                mismatched.append(f"{name}/{fname}")
    report(11, not mismatched, f"byte-identical reruns; mismatches: {mismatched or 'none'}")
