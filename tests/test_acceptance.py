"""Release gate: one test per shipping criterion.

Each test prints a single ``[criterion-N] PASS/FAIL`` line with the
measured quantity next to its pinned tolerance, so a bare ``pytest -v
-s tests/test_acceptance.py`` reads as a checklist.

Pinned thresholds:
  1 gradient correctness   rel err < 1e-4 (central diff, h=1e-5), < 60 s
  2 wavelet reconstruction max abs < 1e-8 over 1000 inputs; shift and
    linearity < 1e-10, < 60 s
  3 normalization          row sums and fusion weights 1 +- 1e-9;
    round trip < 1e-8
  4 oracle equivalence     < 1e-12 vs nested-loop oracles (N<=4, L<=8)
  5 learning sanity        one-batch MSE < 1e-3 in <= 500 steps;
    >= 5x over repeat-last; every ablation degrades; < 600 s
  6 benchmark              test MSE <= 0.45 and MAE <= 0.46 (skips
    when the benchmark CSV is absent)
  7 reproducibility        bit-identical loss curves and checkpoints
"""

import pathlib
import time

import numpy as np
import pytest

from sdgf import autodiff as ad
from sdgf import fusion as fu
from sdgf import graphs as gr
from sdgf import model as md
from sdgf import temporal as tp
from sdgf import training as tr
from sdgf import wavelet as wv
from sdgf.data import Scaler, SynthSpec, load_csv, make_windows, synthesize

GRAD_TOL = 1e-4
FD_STEP = 1e-5
RECON_TOL = 1e-8
PROPERTY_TOL = 1e-10
ROW_TOL = 1e-9
REVIN_TOL = 1e-8
ORACLE_TOL = 1e-12
OVERFIT_MSE = 1e-3
OVERFIT_STEPS = 500
BASELINE_RATIO = 5.0
BENCH_MSE = 0.45
BENCH_MAE = 0.46


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{name}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def tiny_model(seed=0):
    cfg = md.ModelConfig(
        input_len=8, horizon=4, n_vars=3, hidden=8, levels=2,
        depth=1, embed_dim=16, seed=seed,
    )
    return md.build_model(cfg)


# ---------------------------------------------------------------------------
# 1. Gradient correctness on the tiny configuration


def test_criterion_1_gradient_correctness():
    began = time.perf_counter()
    model = tiny_model()
    rng = np.random.default_rng(1)
    md.set_static_graph(model, rng.normal(size=(40, 3)))
    x = rng.normal(size=(2, 8, 3))
    target = rng.normal(size=(2, 4, 3))
    params = md.parameters(model)

    loss = tr.mse_loss(md.forward(ad.Tensor(x), model), target)
    grads = ad.backward(loss, params)

    def loss_value():
        with ad.no_grad():
            return float(tr.mse_loss(md.forward(ad.Tensor(x), model), target).data)

    worst = 0.0
    checked = 0
    for p in params:
        analytic = grads[p.name].reshape(-1)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + FD_STEP
            up = loss_value()
            flat[i] = saved - FD_STEP
            down = loss_value()
            flat[i] = saved
            fd = (up - down) / (2.0 * FD_STEP)
            worst = max(
                worst, abs(analytic[i] - fd) / max(abs(analytic[i]), abs(fd), 1e-5)
            )
            checked += 1
    elapsed = time.perf_counter() - began
    _verdict(
        "criterion-1 gradient-correctness",
        worst < GRAD_TOL and elapsed < 60.0,
        f"worst rel err {worst:.3e} over {checked} entries"
        f" (tol {GRAD_TOL}), {elapsed:.1f}s (limit 60s)",
    )


# ---------------------------------------------------------------------------
# 2. Wavelet reconstruction and transform properties


def test_criterion_2_wavelet_reconstruction():
    began = time.perf_counter()
    rng = np.random.default_rng(2)
    variants = [("haar", "circular"), ("db4", "symmetric")]
    worst_recon = 0.0
    done = 0
    with ad.no_grad():
        while done < 1000:
            batch = min(100, 1000 - done)
            xs = rng.normal(size=(batch, 96, 7))
            family, boundary = variants[(done // 100) % 2]
            comps = wv.decompose(
                ad.Tensor(xs), wv.wavelet_filter(family), 3, boundary
            ).data
            total = sum(comps)
            worst_recon = max(worst_recon, float(np.max(np.abs(total - xs))))
            done += batch

        # Shift covariance under the circular boundary.
        filt = wv.wavelet_filter("haar")
        x = rng.normal(size=(4, 96, 7))
        shifted = np.roll(x, 7, axis=1)
        plain = wv.decompose(ad.Tensor(x), filt, 3).data
        moved = wv.decompose(ad.Tensor(shifted), filt, 3).data
        worst_shift = max(
            float(np.max(np.abs(np.roll(p, 7, axis=1) - m)))
            for p, m in zip(plain, moved)
        )

        # Linearity under both boundaries.
        y = rng.normal(size=(4, 96, 7))
        worst_lin = 0.0
        for family, boundary in variants:
            filt = wv.wavelet_filter(family)
            cx = wv.decompose(ad.Tensor(x), filt, 3, boundary).data
            cy = wv.decompose(ad.Tensor(y), filt, 3, boundary).data
            cz = wv.decompose(ad.Tensor(2.5 * x - 0.5 * y), filt, 3, boundary).data
            worst_lin = max(
                worst_lin,
                max(
                    float(np.max(np.abs(2.5 * a - 0.5 * b - c)))
                    for a, b, c in zip(cx, cy, cz)
                ),
            )
    elapsed = time.perf_counter() - began
    _verdict(
        "criterion-2 wavelet-reconstruction",
        worst_recon < RECON_TOL
        and worst_shift < PROPERTY_TOL
        and worst_lin < PROPERTY_TOL
        and elapsed < 60.0,
        f"recon {worst_recon:.2e} (tol {RECON_TOL}), shift {worst_shift:.2e},"
        f" linearity {worst_lin:.2e} (tol {PROPERTY_TOL}), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. Normalization invariants


def test_criterion_3_normalization_invariants():
    rng = np.random.default_rng(3)
    worst_row = 0.0
    with ad.no_grad():
        for _ in range(50):
            x = rng.normal(size=(4, 12, 5)) * rng.uniform(0.5, 3.0)
            static = gr.pearson_adjacency(x)
            worst_row = max(worst_row, float(np.max(np.abs(static.sum(axis=1) - 1.0))))
            layer = gr.DynamicGraphLayer(
                ad.Parameter("w1", rng.normal(size=(12, 6))),
                ad.Parameter("w2", rng.normal(size=(12, 6))),
            )
            dyn = gr.dynamic_adjacency(ad.Tensor(x), layer).data
            worst_row = max(worst_row, float(np.max(np.abs(dyn.sum(axis=2) - 1.0))))

            branches = [ad.Tensor(rng.normal(size=(4, 6, 5))) for _ in range(3)]
            fusion = fu.FusionLayer(
                ad.Parameter("q", rng.normal(size=6)),
                ad.Parameter("w_k", rng.normal(size=(6, 6))),
            )
            _, alpha = fu.fuse(ad.Tensor(np.stack([b.data for b in branches])), fusion)
            worst_row = max(worst_row, float(np.max(np.abs(alpha.sum(axis=1) - 1.0))))

    worst_trip = 0.0
    for gamma, beta in ((1.0, 0.0), (2.0, 1.0), (None, None)):
        n = 5
        if gamma is None:
            g = rng.uniform(0.5, 2.0, size=n)
            b = rng.normal(size=n)
        else:
            g = np.full(n, gamma)
            b = np.full(n, beta)
        revin = md.RevinLayer(ad.Parameter("g", g), ad.Parameter("b", b))
        x = ad.Tensor(rng.normal(size=(3, 16, n)) * 4.0 + 2.0)
        with ad.no_grad():
            back = revin.denormalize(*revin.normalize(x))
        worst_trip = max(worst_trip, float(np.max(np.abs(back.data - x.data))))

    _verdict(
        "criterion-3 normalization-invariants",
        worst_row < ROW_TOL and worst_trip < REVIN_TOL,
        f"row/weight sum dev {worst_row:.2e} (tol {ROW_TOL}),"
        f" revin round trip {worst_trip:.2e} (tol {REVIN_TOL})",
    )


# ---------------------------------------------------------------------------
# 4. Nested-loop oracle equivalence


def _softmax_rows(s):
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _loop_propagation(h, adj, alpha, thetas):
    batch, dim, nodes = h.shape
    states = [h.copy()]
    for _ in range(len(thetas) - 1):
        prev = states[-1]
        nxt = np.zeros_like(prev)
        for b in range(batch):
            a = adj if adj.ndim == 2 else adj[b]
            for i in range(nodes):
                acc = np.zeros(dim)
                for j in range(nodes):
                    acc += a[i, j] * prev[b, :, j]
                nxt[b, :, i] = alpha * h[b, :, i] + (1.0 - alpha) * acc
        states.append(nxt)
    out = np.zeros_like(h)
    for theta, state in zip(thetas, states):
        for b in range(batch):
            for i in range(nodes):
                out[b, :, i] += theta @ state[b, :, i]
    return out


def _loop_dynamic_adjacency(x, w1, w2):
    batch, _, nodes = x.shape
    d_e = w1.shape[1]
    e1 = np.zeros((batch, nodes, d_e))
    e2 = np.zeros((batch, nodes, d_e))
    for b in range(batch):
        for i in range(nodes):
            e1[b, i] = np.tanh(x[b, :, i] @ w1)
            e2[b, i] = np.tanh(x[b, :, i] @ w2)
    scores = np.zeros((batch, nodes, nodes))
    for b in range(batch):
        for i in range(nodes):
            for j in range(nodes):
                scores[b, i, j] = e1[b, i] @ e2[b, j]
    return _softmax_rows(scores)


def _loop_fuse(branches, q, w_k):
    batch, dim, _ = branches[0].shape
    logits = np.zeros((batch, len(branches)))
    for b in range(batch):
        for i, branch in enumerate(branches):
            logits[b, i] = q @ (w_k @ branch[b].mean(axis=1))
    alpha = _softmax_rows(logits)
    fused = np.zeros_like(branches[0])
    for b in range(batch):
        for i, branch in enumerate(branches):
            fused[b] += alpha[b, i] * branch[b]
    return fused, alpha


def _loop_conv(x, kernel, dilation):
    channels_out, channels_in, width = kernel.shape
    batch, _, length = x.shape
    pad = dilation * (width - 1) // 2
    out = np.zeros((batch, channels_out, length))
    for b in range(batch):
        for o in range(channels_out):
            for t in range(length):
                acc = 0.0
                for c in range(channels_in):
                    for j in range(width):
                        src = t + j * dilation - pad
                        if 0 <= src < length:
                            acc += kernel[o, c, j] * x[b, c, src]
                out[b, o, t] = acc
    return out


def _loop_inception(x, block):
    outs = []
    for (width, dilation), kernel, bias in zip(
        tp.BRANCH_SHAPES, block.branch_kernels, block.branch_biases
    ):
        outs.append(_loop_conv(x, kernel.data, dilation) + bias.data[None, :, None])
    concat = np.concatenate(outs, axis=1)
    merged = _loop_conv(concat, block.merge_kernel.data, 1) + block.merge_bias.data[None, :, None]
    residual = (
        _loop_conv(x, block.residual_kernel.data, 1) + block.residual_bias.data[None, :, None]
    )
    pre = merged + residual
    out = np.zeros_like(pre)
    for b in range(pre.shape[0]):
        for t in range(pre.shape[2]):
            col = pre[b, :, t]
            normed = (col - col.mean()) / np.sqrt(col.var() + 1e-5)
            out[b, :, t] = normed * block.norm_gain.data + block.norm_bias.data
    return out


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(4)
    worst = {}
    with ad.no_grad():
        # Graph propagation, static and dynamic adjacency layouts.
        h = rng.normal(size=(2, 3, 4))
        thetas = [rng.normal(size=(3, 3)) for _ in range(3)]
        cfg = gr.GraphPropagationConfig(
            alpha=0.3, depth=2,
            theta=[ad.Parameter(f"t{i}", t) for i, t in enumerate(thetas)],
        )
        static = _softmax_rows(rng.normal(size=(4, 4)))
        got = gr.static_graph_conv(ad.Tensor(h), static, cfg).data
        worst["propagation"] = float(
            np.max(np.abs(got - _loop_propagation(h, static, 0.3, thetas)))
        )
        dyn_adj = _softmax_rows(rng.normal(size=(2, 4, 4)))
        got = gr.dynamic_graph_conv(ad.Tensor(h), ad.Tensor(dyn_adj), cfg).data
        worst["propagation"] = max(
            worst["propagation"],
            float(np.max(np.abs(got - _loop_propagation(h, dyn_adj, 0.3, thetas)))),
        )

        # Dynamic adjacency from embeddings.
        x = rng.normal(size=(2, 8, 4))
        w1 = rng.normal(size=(8, 5))
        w2 = rng.normal(size=(8, 5))
        layer = gr.DynamicGraphLayer(ad.Parameter("w1", w1), ad.Parameter("w2", w2))
        got = gr.dynamic_adjacency(ad.Tensor(x), layer).data
        worst["dynamic-adjacency"] = float(
            np.max(np.abs(got - _loop_dynamic_adjacency(x, w1, w2)))
        )

        # Attention fusion.
        branches = [rng.normal(size=(2, 3, 4)) for _ in range(4)]
        q = rng.normal(size=3)
        w_k = rng.normal(size=(3, 3))
        fusion = fu.FusionLayer(ad.Parameter("q", q), ad.Parameter("w_k", w_k))
        fused, alpha = fu.fuse(ad.Tensor(np.stack(branches)), fusion)
        want_fused, want_alpha = _loop_fuse(branches, q, w_k)
        worst["fusion"] = max(
            float(np.max(np.abs(fused.data - want_fused))),
            float(np.max(np.abs(alpha - want_alpha))),
        )

        # Inception block, including the final layer norm.
        channels, nodes = 3, 8
        width = tp.branch_width(channels)
        block = tp.InceptionBlock(
            channels=channels,
            branch_kernels=[
                ad.Parameter(f"k{i}", rng.normal(size=(width, channels, k)))
                for i, (k, _) in enumerate(tp.BRANCH_SHAPES)
            ],
            branch_biases=[
                ad.Parameter(f"kb{i}", rng.normal(size=width)) for i in range(4)
            ],
            merge_kernel=ad.Parameter("m", rng.normal(size=(channels, 4 * width, 1))),
            merge_bias=ad.Parameter("mb", rng.normal(size=channels)),
            residual_kernel=ad.Parameter("r", rng.normal(size=(channels, channels, 1))),
            residual_bias=ad.Parameter("rb", rng.normal(size=channels)),
            norm_gain=ad.Parameter("g", rng.normal(size=channels)),
            norm_bias=ad.Parameter("b", rng.normal(size=channels)),
        )
        xin = rng.normal(size=(2, channels, nodes))
        got = tp.inception_forward(ad.Tensor(xin), block).data
        worst["inception"] = float(np.max(np.abs(got - _loop_inception(xin, block))))

    top = max(worst.values())
    _verdict(
        "criterion-4 oracle-equivalence",
        top < ORACLE_TOL,
        " ".join(f"{k}={v:.2e}" for k, v in worst.items()) + f" (tol {ORACLE_TOL})",
    )


# ---------------------------------------------------------------------------
# 5. Learning sanity: overfit, baseline ratio, ablation ordering


def _standardized_windows(table, input_len, horizon):
    raw = make_windows(table.values, input_len, horizon)
    scaler = Scaler.fit(table.values[: raw.train_end])
    return make_windows(scaler.transform(table.values), input_len, horizon)


def test_criterion_5_learning_sanity():
    began = time.perf_counter()

    # (a) One-batch overfit on the tiny configuration.
    table = synthesize(SynthSpec(n_vars=3, rows=80, periods=[24, 20, 16], seed=2))
    dataset = _standardized_windows(table, 8, 4)
    model = tiny_model(seed=2)
    md.set_static_graph(model, dataset.values[: dataset.train_end])
    inputs, targets = dataset.batch(dataset.split_starts("train")[:32])
    params = md.effective_parameters(model)
    state = tr.AdamState(lr=0.02)
    overfit_steps = None
    final = np.inf
    for step in range(OVERFIT_STEPS):
        loss = tr.mse_loss(md.forward(ad.Tensor(inputs), model), targets)
        final = float(loss.data)
        if final < OVERFIT_MSE:
            overfit_steps = step
            break
        grads = ad.backward(loss, params)
        tr.clip_gradients(grads, 5.0)
        tr.adam_step(params, grads, state)
        for p in params:
            p.zero_grad()

    # (b) Lag-copy dataset: beat the naive baseline and lose something
    # whenever any one module is removed.
    spec = SynthSpec(
        n_vars=4, rows=2000, periods=[96, 24, 20, 96],
        lag_pairs=[(0, 1, 18), (2, 3, 12)], noise=0.1, seed=42,
    )
    dataset = _standardized_windows(synthesize(spec), 24, 12)
    base_mse, _ = tr.repeat_last_metrics(dataset, "test")
    cfg = md.ModelConfig(
        input_len=24, horizon=12, n_vars=4, hidden=16, levels=2,
        depth=1, embed_dim=8, seed=3,
    )
    tcfg = tr.TrainConfig(lr=5e-3, epochs=20, patience=20, batch=32, seed=0)
    scores = {}
    for mode in (None, "gsl", "gf", "tfl"):
        variant = md.build_model(cfg)
        if mode:
            variant = md.ablate(variant, mode)
        _, blob = tr.train(variant, dataset, tcfg)
        best, _ = md.load_checkpoint(blob)
        scores[mode or "full"], _ = tr.evaluate(best, dataset, "test")

    ratio = base_mse / scores["full"]
    degraded = {m: scores[m] > scores["full"] for m in ("gsl", "gf", "tfl")}
    elapsed = time.perf_counter() - began
    _verdict(
        "criterion-5 learning-sanity",
        overfit_steps is not None
        and ratio >= BASELINE_RATIO
        and all(degraded.values())
        and elapsed < 600.0,
        f"overfit {final:.1e} at step {overfit_steps} (limit {OVERFIT_STEPS}),"
        f" baseline ratio {ratio:.1f}x (need >= {BASELINE_RATIO}),"
        f" ablation test MSE "
        + " ".join(f"{m}={scores[m]:.4f}" for m in ("full", "gsl", "gf", "tfl"))
        + f", {elapsed:.0f}s (limit 600s)",
    )


# ---------------------------------------------------------------------------
# 6. Desk-scale benchmark (needs the public dataset on disk)


def test_criterion_6_benchmark():
    path = pathlib.Path(__file__).resolve().parents[1] / "data" / "ETTh1.csv"
    if not path.exists():
        pytest.skip(
            "data/ETTh1.csv not present; this sandbox has no network access."
            " Run scripts/fetch_datasets.py on a networked machine (or place"
            " the public ETTh1 CSV at data/ETTh1.csv) and rerun."
        )
    began = time.perf_counter()
    table = load_csv(str(path))
    assert table.values.shape == (17420, 7)
    dataset = _standardized_windows(table, 96, 96)
    cfg = md.ModelConfig(input_len=96, horizon=96, n_vars=7, seed=0)
    model = md.build_model(cfg)
    report, blob = tr.train(
        model, dataset, tr.TrainConfig(lr=1e-3, epochs=30, patience=5, batch=32, seed=0)
    )
    best, _ = md.load_checkpoint(blob)
    test_mse, test_mae = tr.evaluate(best, dataset, "test")
    elapsed = time.perf_counter() - began
    _verdict(
        "criterion-6 benchmark",
        test_mse <= BENCH_MSE and test_mae <= BENCH_MAE and elapsed < 7200.0,
        f"test MSE {test_mse:.3f} (<= {BENCH_MSE}), MAE {test_mae:.3f}"
        f" (<= {BENCH_MAE}), best epoch {report.best_epoch}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. Bitwise reproducibility


def test_criterion_7_reproducibility():
    def run():
        table = synthesize(
            SynthSpec(n_vars=2, rows=160, periods=[24, 20], seed=5)
        )
        dataset = _standardized_windows(table, 16, 4)
        model = md.build_model(
            md.ModelConfig(input_len=16, horizon=4, n_vars=2, hidden=4,
                           levels=1, depth=1, embed_dim=4, seed=11)
        )
        return tr.train(
            model, dataset,
            tr.TrainConfig(lr=2e-3, epochs=3, patience=5, batch=16, seed=7),
        )

    report_a, blob_a = run()
    report_b, blob_b = run()
    same_losses = (
        report_a.train_losses == report_b.train_losses
        and report_a.val_mse == report_b.val_mse
        and report_a.val_mae == report_b.val_mae
    )
    _verdict(
        "criterion-7 reproducibility",
        same_losses and blob_a == blob_b,
        f"loss curves identical: {same_losses};"
        f" checkpoints identical: {blob_a == blob_b} ({len(blob_a)} bytes)",
    )
