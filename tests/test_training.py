"""Optimizer and training-loop tests.

The Adam oracle values are worked by hand from the update rule; the
sinusoid fit compares against the repeat-last baseline computed
directly from the raw windows.
"""

import gc
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgf import autodiff as ad
from sdgf import model as md
from sdgf import training as tr
from sdgf.data import SynthSpec, make_windows, synthesize
from sdgf.errors import ConfigError, DataError, GraphError, NumericError, ShapeError, StateError

from conftest import LoopAdamState, loop_adam_step

SRC = os.path.dirname(os.path.dirname(os.path.abspath(tr.__file__)))


def tiny_config(**kw):
    base = dict(
        input_len=8, horizon=4, n_vars=3, hidden=4, levels=1,
        depth=1, embed_dim=4, seed=7,
    )
    base.update(kw)
    return md.ModelConfig(**base)


def sine_dataset(rows=300, n_vars=2, input_len=24, horizon=6, seed=3):
    spec = SynthSpec(n_vars=n_vars, rows=rows, periods=[24, 20][:n_vars], seed=seed)
    table = synthesize(spec)
    return make_windows(table.values, input_len, horizon)


# ---------------------------------------------------------------------------
# Metrics


def test_metric_hand_values():
    pred = np.array([0.0, 0.0])
    target = np.array([1.0, 3.0])
    assert tr.mse(pred, target) == 5.0
    assert tr.mae(pred, target) == 2.0


def test_metric_shape_mismatch():
    with pytest.raises(ShapeError):
        tr.mse(np.zeros(3), np.zeros(4))


def test_metric_overflow_raises_numeric_error():
    # Finite operands whose squared error overflows.
    pred, target = np.array([1e200, 0.0]), np.array([-1e200, 0.0])
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="^mse produced"):
        tr.mse(pred, target)
    assert tr.mae(pred, target) == 1e200
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="^mae produced"):
        tr.mae(np.array([1.5e308]), np.array([-1.5e308]))


@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=20),
    st.integers(0, 2**32 - 1),
)
def test_mse_dominates_squared_mae(values, seed):
    # Jensen: E[e^2] >= (E[|e|])^2.
    rng = np.random.default_rng(seed)
    pred = np.array(values)
    target = pred + rng.normal(size=pred.shape)
    assert tr.mse(pred, target) >= tr.mae(pred, target) ** 2 - 1e-12


def test_mse_loss_matches_metric_and_grad():
    rng = np.random.default_rng(0)
    pred = ad.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    target = rng.normal(size=(2, 3))
    loss = tr.mse_loss(pred, target)
    assert abs(float(loss.data) - tr.mse(pred.data, target)) < 1e-15
    loss.backward()
    # d/dp mean((p-t)^2) = 2(p-t)/n
    np.testing.assert_allclose(pred.grad, 2.0 * (pred.data - target) / 6.0, atol=1e-15)


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_hand_value():
    # m_hat = g, v_hat = g^2, so the first step is lr * g / (|g| + eps).
    w = ad.Parameter("w", np.array([1.0]))
    state = tr.AdamState(lr=0.1)
    tr.adam_step([w], {"w": np.array([2.0])}, state)
    assert abs(w.data[0] - 0.9) < 1e-8
    assert state.t == 1


def test_adam_zero_gradient_is_identity():
    w = ad.Parameter("w", np.array([1.0, -2.0]))
    state = tr.AdamState(lr=0.5)
    tr.adam_step([w], {"w": np.zeros(2)}, state)
    np.testing.assert_array_equal(w.data, [1.0, -2.0])


def test_adam_converges_on_quadratic():
    w = ad.Parameter("w", np.array([0.0]))
    state = tr.AdamState(lr=0.1)
    for _ in range(200):
        tr.adam_step([w], {"w": 2.0 * (w.data - 3.0)}, state)
    assert abs(w.data[0] - 3.0) < 0.05


def test_adam_missing_gradient_names_parameter():
    w = ad.Parameter("blocks.0.merge", np.array([1.0]))
    with pytest.raises(GraphError, match="blocks.0.merge"):
        tr.adam_step([w], {}, tr.AdamState(lr=0.1))


def test_flat_adam_is_bit_identical_to_the_per_parameter_loop():
    rng = np.random.default_rng(77)
    shapes = [(3, 4), (5,), (2, 1, 3), (1,), (6, 2)]

    def make():
        values = np.random.default_rng(5)
        params = [ad.Parameter(f"p{i}", values.normal(0.0, 1.0, s)) for i, s in enumerate(shapes)]
        return params

    flat, loop = make(), make()
    state, oracle = tr.AdamState(lr=0.05), LoopAdamState(lr=0.05)
    for step in range(50):
        # Gradients from 1e-8 to 1e3, with exact zeros mixed in.
        grads = {
            p.name: rng.normal(0.0, 1.0, p.data.shape)
            * 10.0 ** rng.integers(-8, 4, p.data.shape)
            * (rng.random(p.data.shape) > 0.1)
            for p in flat
        }
        before = [p.data for p in flat]
        kept = [a.copy() for a in before]
        tr.adam_step(flat, grads, state)
        loop_adam_step(loop, grads, oracle)
        for a, b in zip(flat, loop, strict=True):
            assert a.data.tobytes() == b.data.tobytes()
        # The first step copies the values out of the arrays it was given,
        # which keep them; later steps write the values in place, so an
        # array taken before the step is the parameter's and holds the new
        # values.
        for a, b, p in zip(before, kept, flat):
            if step == 0:
                assert a is not p.data and a.tobytes() == b.tobytes()
            else:
                assert a is p.data
    assert state.t == oracle.t == 50


def test_flat_adam_matches_the_loop_across_a_rebound_and_an_in_place_write():
    # adam_step binds each parameter to a view of the vector it wrote. A
    # parameter rebound to a new array and an in-place write into a view
    # are both read on the next step, and the updates stay the loop's.
    rng = np.random.default_rng(3)
    shapes = [(3, 4), (5,), (2, 1, 3)]

    def make():
        values = np.random.default_rng(8)
        return [ad.Parameter(f"p{i}", values.normal(0.0, 1.0, s)) for i, s in enumerate(shapes)]

    flat, loop = make(), make()
    state, oracle = tr.AdamState(lr=0.05), LoopAdamState(lr=0.05)
    for step in range(6):
        grads = {p.name: rng.normal(0.0, 1.0, p.data.shape) for p in flat}
        if step == 3:
            for params in (flat, loop):
                params[1].data = params[1].data + 1.0
        if step == 4:
            for params in (flat, loop):
                params[0].data[1] = 7.0
        tr.adam_step(flat, grads, state)
        loop_adam_step(loop, grads, oracle)
        for a, b in zip(flat, loop, strict=True):
            assert a.data.tobytes() == b.data.tobytes()


def test_flat_adam_rejects_a_changed_parameter_list():
    a, b = ad.Parameter("a", np.ones(2)), ad.Parameter("b", np.ones(3))
    state = tr.AdamState(lr=0.1)
    tr.adam_step([a, b], {"a": np.ones(2), "b": np.ones(3)}, state)
    with pytest.raises(StateError):
        tr.adam_step([b, a], {"a": np.ones(2), "b": np.ones(3)}, state)
    with pytest.raises(StateError):
        tr.adam_step([a], {"a": np.ones(2)}, state)
    with pytest.raises(GraphError, match="'b'"):
        tr.adam_step([a, b], {"a": np.ones(2)}, state)
    assert state.t == 1


@settings(max_examples=40, deadline=None)
@given(
    events=st.lists(st.sampled_from(["slots", "plain", "rebind", "write"]), min_size=1, max_size=8),
    seed=st.integers(0, 2**31 - 1),
)
def test_adam_step_matches_the_loop_however_the_step_meets_its_arrays(events, seed):
    # "slots": the gradients sit in the slots the first step gave each
    # parameter; "plain": a dict of copies; "rebind": one parameter is
    # rebound to a new array; "write": one entry is written in place.
    rng = np.random.default_rng(seed)
    shapes = [(3, 4), (5,), (2, 1, 3), (1,)]

    def make():
        values = np.random.default_rng(seed + 1)
        return [ad.Parameter(f"p{i}", values.normal(0.0, 1.0, s)) for i, s in enumerate(shapes)]

    flat, loop = make(), make()
    state, oracle = tr.AdamState(lr=0.05), LoopAdamState(lr=0.05)
    for event in events:
        k = int(rng.integers(len(shapes)))
        if event == "rebind":
            for params in (flat, loop):
                params[k].data = params[k].data * 0.5
        if event == "write":
            for params in (flat, loop):
                params[k].data.reshape(-1)[0] = 2.0
        # Two writes per gradient: a copy, then an addition.
        for (first, second), a, b in zip(
            [rng.normal(0.0, 1.0, (2, *s)) for s in shapes], flat, loop, strict=True
        ):
            for p in (a, b):
                p.zero_grad()
                p.accumulate(first)
                p.accumulate(second)
        grads = {p.name: p.grad for p in flat}
        if event == "plain":
            grads = {name: g.copy() for name, g in grads.items()}
        elif state.t > 0:
            assert all(g is p.slot for g, p in zip(grads.values(), flat))
        tr.adam_step(flat, grads, state)
        loop_adam_step(loop, {p.name: p.grad for p in loop}, oracle)
        for a, b in zip(flat, loop, strict=True):
            assert a.data.tobytes() == b.data.tobytes(), a.name
            a.zero_grad()
            b.zero_grad()


@settings(max_examples=15, deadline=None)
@given(
    turns=st.lists(st.booleans(), min_size=2, max_size=6),
    clip=st.sampled_from([0.0, 1e-3, 5.0]),
    seed=st.integers(0, 2**31 - 1),
)
def test_two_adam_states_taking_turns_on_shared_parameters_match_the_loop(turns, clip, seed):
    # One state steps the full model and one its ``gf`` view, which
    # shares every parameter but the gate's; each takes the parameters
    # and slots the other last bound.
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (3, 8, 3))
    target = rng.normal(0.0, 1.0, (3, 4, 3))
    sides = []
    for _ in range(2):
        full = md.build_model(tiny_config())
        md.set_static_graph(full, np.random.default_rng(4).normal(0.0, 1.0, (40, 3)))
        sides.append([(full, md.ablate(full, "gf")), {}])
    flat, loop = sides
    for use_view in turns:
        for (models, states), adam, make_state in (
            (flat, tr.adam_step, tr.AdamState),
            (loop, loop_adam_step, LoopAdamState),
        ):
            net = models[use_view]
            params = md.effective_parameters(net)
            state = states.setdefault(use_view, make_state(lr=0.05))
            loss = tr.mse_loss(md.forward(ad.Tensor(x), net), target)
            grads = ad.backward(loss, params)
            if adam is loop_adam_step:
                grads = {name: g.copy() for name, g in grads.items()}
            tr.clip_gradients(grads, clip)
            adam(params, grads, state)
            for p in params:
                p.zero_grad()
        for a, b in zip(md.parameters(flat[0][0]), md.parameters(loop[0][0]), strict=True):
            assert a.data.tobytes() == b.data.tobytes(), a.name


@pytest.mark.parametrize("max_norm", [0.0, 1e-3])
def test_clip_on_the_slots_matches_the_clip_on_copies(max_norm):
    model = md.build_model(tiny_config())
    md.set_static_graph(model, np.random.default_rng(4).normal(0.0, 1.0, (40, 3)))
    params = md.effective_parameters(model)
    rng = np.random.default_rng(9)
    x, target = rng.normal(0.0, 1.0, (3, 8, 3)), rng.normal(0.0, 1.0, (3, 4, 3))

    def loss():
        return tr.mse_loss(md.forward(ad.Tensor(x), model), target)

    def slot_grads():
        for p in params:
            p.zero_grad()
        grads = ad.backward(loss(), params)
        assert all(g is p.slot for g, p in zip(grads.values(), params, strict=True))
        return grads

    state = tr.AdamState(lr=0.01)
    tr.adam_step(params, ad.backward(loss(), params), state)
    grads = slot_grads()
    copies = {name: g.copy() for name, g in grads.items()}
    want = tr.clip_gradients(copies, max_norm)
    assert np.float64(tr.clip_gradients(grads, max_norm)).tobytes() == np.float64(want).tobytes()
    assert want > 1e-3
    for p in params:
        assert grads[p.name] is p.slot
        assert grads[p.name].tobytes() == copies[p.name].tobytes()
    # The same slots in another order still tile the gradient vector, so
    # they are read in place, in layout order.
    grads = dict(reversed(slot_grads().items()))
    copies = {p.name: grads[p.name].copy() for p in params}
    want = tr.clip_gradients(copies, max_norm)
    assert np.float64(tr.clip_gradients(grads, max_norm)).tobytes() == np.float64(want).tobytes()
    for p in params:
        assert grads[p.name] is p.slot
        assert grads[p.name].tobytes() == copies[p.name].tobytes()


@settings(max_examples=60, deadline=None)
@given(
    shapes=st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=3), min_size=2, max_size=6),
    scale=st.sampled_from([1.0, 1e160, 1e-170]),
    max_norm=st.sampled_from([0.0, 1e-3, 1e300]),
    drop=st.integers(0, 5),
    replace=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_clip_works_in_place_exactly_when_the_arrays_tile_one_vector(
    shapes, scale, max_norm, drop, replace, seed
):
    # In-order views of one 1-D vector tile it; without one of them, or
    # with a copy in its place, they do not, and the dict is concatenated
    # instead. Either way the norm and the scaled values are those of a
    # dict of copies.
    rng = np.random.default_rng(seed)
    sizes = [int(np.prod(s)) for s in shapes]
    values = rng.normal(0.0, 1.0, sum(sizes)) * 10.0 ** rng.integers(-3, 4, sum(sizes)) * scale
    starts = np.cumsum([0, *sizes]).tolist()
    for tiled in (True, False):
        vector = values.copy()
        cut = enumerate(zip(shapes, starts, starts[1:]))
        grads = {f"g{i}": vector[a:b].reshape(s) for i, (s, a, b) in cut}
        if not tiled:
            name = f"g{drop % len(shapes)}"
            if replace:
                grads[name] = grads[name].copy()
            else:
                del grads[name]
        given_arrays = dict(grads)
        copies = {name: g.copy() for name, g in grads.items()}
        want = tr.clip_gradients(copies, max_norm)
        norm = tr.clip_gradients(grads, max_norm)
        assert np.float64(norm).tobytes() == np.float64(want).tobytes()
        for name, g in grads.items():
            assert g.tobytes() == copies[name].tobytes(), name
            if tiled:
                assert g is given_arrays[name]
        if not tiled:
            assert vector.tobytes() == values.tobytes()


def test_clip_rescales_global_norm():
    grads = {"a": np.array([3.0, 4.0]), "b": np.array([12.0])}
    norm = tr.clip_gradients(grads, 5.0)
    assert abs(norm - 13.0) < 1e-12
    clipped = np.sqrt(np.sum(grads["a"] ** 2) + np.sum(grads["b"] ** 2))
    assert abs(clipped - 5.0) < 1e-12
    np.testing.assert_allclose(grads["a"], [3.0 * 5 / 13, 4.0 * 5 / 13])


def test_clip_below_threshold_and_disabled():
    grads = {"a": np.array([0.3, 0.4])}
    assert abs(tr.clip_gradients(grads, 5.0) - 0.5) < 1e-15
    np.testing.assert_array_equal(grads["a"], [0.3, 0.4])
    grads = {"a": np.array([30.0, 40.0])}
    tr.clip_gradients(grads, 0.0)
    np.testing.assert_array_equal(grads["a"], [30.0, 40.0])


def test_clip_rebinds_the_gradients_to_one_scaled_vector():
    a, b = np.array([[3.0], [4.0]]), np.array([12.0])
    grads = {"a": a, "b": b}
    tr.clip_gradients(grads, 5.0)
    assert grads["a"].shape == (2, 1) and grads["a"].base is grads["b"].base is not None
    # The arrays passed in keep their values.
    np.testing.assert_array_equal(a, [[3.0], [4.0]])
    np.testing.assert_array_equal(b, [12.0])


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-300])
def test_clip_scales_gradients_whose_squared_norm_overflows_or_underflows(scale):
    # Squared, 1e200 overflows to inf and 1e-200 underflows to 0: the norm
    # is taken on the vector divided by its largest entry instead.
    grads = {"a": np.array([3.0 * scale, 0.0]), "b": np.array([4.0 * scale])}
    norm = tr.clip_gradients(grads, 2.5 * scale)
    assert abs(norm / (5.0 * scale) - 1.0) < 1e-15
    np.testing.assert_allclose(grads["a"], [1.5 * scale, 0.0], rtol=1e-15)
    np.testing.assert_allclose(grads["b"], [2.0 * scale], rtol=1e-15)
    grads = {"a": np.array([1e200, 0.0]), "b": np.array([3.0])}
    assert tr.clip_gradients(grads, 5.0) == 1e200
    np.testing.assert_allclose(grads["a"], [5.0, 0.0], rtol=1e-15)
    np.testing.assert_allclose(grads["b"], [1.5e-199], rtol=1e-15)


def test_clip_of_zero_or_infinite_gradients():
    grads = {"a": np.zeros(3)}
    assert tr.clip_gradients(grads, 5.0) == 0.0
    np.testing.assert_array_equal(grads["a"], 0.0)
    assert tr.clip_gradients({"a": np.array([np.inf, 1.0])}, 0.0) == np.inf
    assert tr.clip_gradients({}, 5.0) == 0.0


@settings(max_examples=50, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 20), min_size=1, max_size=6),
    exponent=st.integers(-150, 150),
    seed=st.integers(0, 2**31 - 1),
)
def test_clip_norm_matches_the_per_parameter_sum(sizes, exponent, seed):
    rng = np.random.default_rng(seed)
    grads = {f"p{i}": rng.normal(0.0, 10.0**exponent, n) for i, n in enumerate(sizes)}
    want = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    assert abs(tr.clip_gradients(grads, 0.0) / want - 1.0) < 1e-14


NORM_BITS = """
import numpy as np
from sdgf import training as tr
rng = np.random.default_rng(13)
for _ in range(20):
    # 150,190 values, the parameter count of the benchmark's pinned shape.
    grads = {f"p{i}": rng.normal(0.0, 0.1, n) for i, n in enumerate([150000, 190])}
    print(np.float64(tr.clip_gradients(grads, 5.0)).tobytes().hex(), grads["p0"][:3].tobytes().hex())
"""


def test_clip_norm_bits_do_not_depend_on_blas_threads():
    # A BLAS dot splits its sum between threads, so its last bits follow
    # the thread count; the norm must not.
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", NORM_BITS], env=env, capture_output=True,
                             text=True, check=True)
        outputs.append(run.stdout)
    assert outputs[0].count("\n") == 20
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# Loop behavior


def test_single_batch_loss_decreases():
    dataset = sine_dataset(rows=80, input_len=16, horizon=4)
    model = md.build_model(tiny_config(input_len=16, n_vars=2))
    md.set_static_graph(model, dataset.values[: dataset.train_end])
    starts = dataset.split_starts("train")[:8]
    inputs, targets = dataset.batch(starts)
    params = md.effective_parameters(model)
    state = tr.AdamState(lr=1e-2)
    losses = []
    for _ in range(10):
        loss = tr.mse_loss(md.forward(ad.Tensor(inputs), model), targets)
        grads = ad.backward(loss, params)
        tr.clip_gradients(grads, 5.0)
        tr.adam_step(params, grads, state)
        for p in params:
            p.zero_grad()
        losses.append(float(loss.data))
    assert losses[-1] < losses[0]


def test_zero_lr_keeps_parameters_bitwise():
    dataset = sine_dataset(rows=120, input_len=16, horizon=4)
    model = md.build_model(tiny_config(input_len=16, n_vars=2))
    before = {p.name: p.data.copy() for p in md.parameters(model)}
    tr.train(model, dataset, tr.TrainConfig(lr=0.0, epochs=2, patience=5, batch=16))
    for p in md.parameters(model):
        np.testing.assert_array_equal(p.data, before[p.name])


def test_early_stopping_with_stalled_validation():
    # lr=0 never improves past epoch 0, so patience expires exactly.
    dataset = sine_dataset(rows=120, input_len=16, horizon=4)
    model = md.build_model(tiny_config(input_len=16, n_vars=2))
    report, blob = tr.train(
        model, dataset, tr.TrainConfig(lr=0.0, epochs=30, patience=3, batch=16)
    )
    assert report.early_stopped
    assert report.epochs_run == 4
    assert report.best_epoch == 0
    assert len(blob) > 0


def test_report_tracks_best_epoch():
    dataset = sine_dataset(rows=160, input_len=16, horizon=4)
    model = md.build_model(tiny_config(input_len=16, n_vars=2))
    report, _ = tr.train(
        model, dataset, tr.TrainConfig(lr=5e-3, epochs=4, patience=10, batch=16)
    )
    assert report.best_val_mse == min(report.val_mse)
    assert report.val_mse[report.best_epoch] == report.best_val_mse
    assert len(report.train_losses) == report.epochs_run
    json.dumps(report.to_dict())  # must serialize cleanly


@pytest.mark.parametrize("clip, fraction", [(1e-9, 1.0), (0.0, 0.0), (1e9, 0.0)])
def test_report_keeps_the_pre_clip_gradient_norms(monkeypatch, clip, fraction):
    norms = []

    def recording_clip(grads, max_norm):
        norms.append(clip_gradients(grads, max_norm))
        return norms[-1]

    clip_gradients = tr.clip_gradients
    monkeypatch.setattr(tr, "clip_gradients", recording_clip)
    dataset = sine_dataset(rows=160, input_len=16, horizon=4)
    model = md.build_model(tiny_config(input_len=16, n_vars=2))
    report, _ = tr.train(
        model, dataset, tr.TrainConfig(lr=5e-3, epochs=3, patience=10, batch=16, clip=clip)
    )
    steps = -(-len(dataset.split_starts("train")) // 16)
    assert len(norms) == 3 * steps
    epochs = [norms[e * steps : (e + 1) * steps] for e in range(3)]
    assert report.grad_norm_max == [max(e) for e in epochs]
    assert report.grad_norm_median == [float(np.median(e)) for e in epochs]
    assert report.clipped_fraction == [fraction] * 3


@pytest.mark.parametrize("clip", [5.0, 0.0])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_gradient_stops_its_own_step(monkeypatch, bad, clip):
    # The third step of the second epoch gets one non-finite entry in
    # head.b2's gradient. A NaN norm passes the clip's ``norm > max_norm``,
    # so only the norm check keeps Adam from writing it into the values.
    dataset = sine_dataset(rows=160, input_len=16, horizon=4)
    model = md.build_model(tiny_config(input_len=16, n_vars=2))
    steps = -(-len(dataset.split_starts("train")) // 16)
    real_backward, real_state, real_save = tr.ad.backward, tr.AdamState, md.save_checkpoint
    calls, states, blobs, before = [], [], [], {}

    def backward(loss, params):
        grads = real_backward(loss, params)
        calls.append(None)
        if len(calls) == steps + 3:
            grads["head.b2"][1] = bad
            state = states[0]
            before.update({p.name: p.data.copy() for p in params})
            before.update(m=state.m.copy(), v=state.v.copy(), t=state.t)
        return grads

    def adam_state(**kwargs):
        states.append(real_state(**kwargs))
        return states[-1]

    def save_checkpoint(*args, **kwargs):
        blobs.append(real_save(*args, **kwargs))
        return blobs[-1]

    monkeypatch.setattr(tr.ad, "backward", backward)
    monkeypatch.setattr(tr, "AdamState", adam_state)
    monkeypatch.setattr(md, "save_checkpoint", save_checkpoint)
    cfg = tr.TrainConfig(lr=5e-3, epochs=3, patience=10, batch=16, clip=clip)
    with pytest.raises(NumericError, match=r"non-finite gradients: \['head.b2'\]") as caught:
        tr.train(model, dataset, cfg)
    assert len(calls) == steps + 3
    state = states[0]
    assert state.t == before["t"]
    assert state.m.tobytes() == before["m"].tobytes()
    assert state.v.tobytes() == before["v"].tobytes()
    for p in md.effective_parameters(model):
        assert p.data.tobytes() == before[p.name].tobytes(), p.name
    assert caught.value.epoch == 1
    assert caught.value.report.epochs_run == 1
    assert len(blobs) == 1 and caught.value.checkpoint == blobs[0]
    # No gradient of the failed step keeps the dead state's vector alive.
    for p in md.parameters(model):
        assert p.grad is None and p.slot is None, p.name


def test_the_optimizer_state_dies_with_train(monkeypatch):
    # The parameters keep the state's values vector, which holds them and
    # nothing else; its gradients and moments must not stay alive through
    # the model.
    dataset = sine_dataset(rows=120, input_len=16, horizon=4)
    model = md.build_model(tiny_config(input_len=16, n_vars=2))
    real_state, states = tr.AdamState, []

    def adam_state(**kwargs):
        state = real_state(**kwargs)
        states.append(weakref.ref(state))
        return state

    monkeypatch.setattr(tr, "AdamState", adam_state)
    tr.train(model, dataset, tr.TrainConfig(lr=1e-3, epochs=1, patience=2, batch=16))
    params = md.parameters(model)
    values = params[0].data.base
    assert values.ndim == 1 and values.size == sum(p.data.size for p in params)
    for p in params:
        assert p.data.base is values and p.slot is None, p.name
    gc.collect()
    assert len(states) == 1 and states[0]() is None


def test_train_freezes_static_graph_from_train_rows():
    dataset = sine_dataset(rows=120, input_len=16, horizon=4)
    model = md.build_model(tiny_config(input_len=16, n_vars=2))
    assert model.static_adjacency is None
    tr.train(model, dataset, tr.TrainConfig(lr=1e-3, epochs=1, patience=2, batch=16))
    from sdgf.graphs import pearson_adjacency

    want = pearson_adjacency(dataset.values[: dataset.train_end][None])
    np.testing.assert_allclose(model.static_adjacency, want, atol=1e-12)


def test_train_rejects_empty_splits():
    values = np.random.default_rng(0).normal(size=(12, 2))
    dataset = make_windows(values, 8, 2)
    model = md.build_model(tiny_config(n_vars=2))
    with pytest.raises(DataError, match="non-empty"):
        tr.train(model, dataset, tr.TrainConfig(epochs=1))


def test_train_config_validation():
    with pytest.raises(ConfigError):
        tr.TrainConfig(lr=-1.0)
    with pytest.raises(ConfigError):
        tr.TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        tr.TrainConfig(batch=0)
    with pytest.raises(ConfigError):
        tr.TrainConfig(seed=-1)


def test_checkpoint_extra_round_trips_through_train():
    dataset = sine_dataset(rows=120, input_len=16, horizon=4)
    model = md.build_model(tiny_config(input_len=16, n_vars=2))
    extra = {"scaler": {"mean": [0.0, 1.0], "std": [1.0, 2.0]}}
    _, blob = tr.train(
        model, dataset, tr.TrainConfig(lr=1e-3, epochs=1, patience=2, batch=16),
        extra=extra,
    )
    loaded, got = md.load_checkpoint(blob)
    assert got == extra
    assert loaded.static_adjacency is not None


def test_a_depth_0_model_trains_and_round_trips_its_checkpoint():
    # With no hop no dynamic graph is read, so its embedding maps get no
    # gradient and are no effective parameter: training must not ask.
    dataset = sine_dataset(rows=120, input_len=16, horizon=4)
    model = md.build_model(tiny_config(input_len=16, n_vars=2, depth=0))
    before = {p.name: p.data.copy() for p in md.parameters(model)}
    report, blob = tr.train(model, dataset, tr.TrainConfig(lr=1e-3, epochs=1, patience=2, batch=16))
    assert report.best_epoch == 0 and np.isfinite(report.train_losses).all()
    loaded, _ = md.load_checkpoint(blob)
    for p, q in zip(md.parameters(model), md.parameters(loaded)):
        assert p.name == q.name and p.data.tobytes() == q.data.tobytes()
        assert (p.name.startswith("dyn.w")) == (p.data.tobytes() == before[p.name].tobytes())
    x = ad.Tensor(dataset.batch(dataset.split_starts("val")[:3])[0])
    with ad.no_grad():
        assert md.forward(x, loaded).data.tobytes() == md.forward(x, model).data.tobytes()


def test_training_is_bitwise_reproducible():
    def run():
        dataset = sine_dataset(rows=160, input_len=16, horizon=4)
        model = md.build_model(tiny_config(input_len=16, n_vars=2, seed=11))
        return tr.train(
            model, dataset, tr.TrainConfig(lr=2e-3, epochs=3, patience=5, batch=16, seed=5)
        )

    report_a, blob_a = run()
    report_b, blob_b = run()
    assert report_a.train_losses == report_b.train_losses
    assert report_a.val_mse == report_b.val_mse
    assert blob_a == blob_b


# ---------------------------------------------------------------------------
# Evaluation helpers


def test_repeat_last_hand_values():
    # Ramp data: holding the last value flat misses by 1 then 2.
    values = np.arange(10.0)[:, None]
    dataset = make_windows(values, 3, 2)
    base_mse, base_mae = tr.repeat_last_metrics(dataset, "train")
    assert abs(base_mse - 2.5) < 1e-12
    assert abs(base_mae - 1.5) < 1e-12


def test_predict_split_shapes_and_order():
    dataset = sine_dataset(rows=120, input_len=16, horizon=4)
    model = md.build_model(tiny_config(input_len=16, n_vars=2))
    md.set_static_graph(model, dataset.values[: dataset.train_end])
    preds, targets, starts = tr.predict_split(model, dataset, "val", batch=8)
    want = dataset.split_starts("val")
    np.testing.assert_array_equal(starts, want)
    assert preds.shape == (len(want), 4, 2)
    assert targets.shape == preds.shape
    # Batching must not change results.
    preds_one, _, _ = tr.predict_split(model, dataset, "val", batch=3)
    np.testing.assert_allclose(preds_one, preds, atol=1e-12)


@pytest.mark.parametrize("batch", [0, -4])
def test_predict_split_rejects_a_batch_below_one(batch):
    dataset = sine_dataset(rows=120, input_len=16, horizon=4)
    model = md.build_model(tiny_config(input_len=16, n_vars=2))
    md.set_static_graph(model, dataset.values[: dataset.train_end])
    with pytest.raises(ConfigError, match=f"batch must be >= 1, got {batch}"):
        tr.predict_split(model, dataset, "val", batch=batch)


def test_evaluate_matches_manual_metrics():
    dataset = sine_dataset(rows=120, input_len=16, horizon=4)
    model = md.build_model(tiny_config(input_len=16, n_vars=2))
    md.set_static_graph(model, dataset.values[: dataset.train_end])
    got_mse, got_mae = tr.evaluate(model, dataset, "val", batch=8)
    preds, targets, _ = tr.predict_split(model, dataset, "val", batch=8)
    assert abs(got_mse - tr.mse(preds, targets)) < 1e-15
    assert abs(got_mae - tr.mae(preds, targets)) < 1e-15


@settings(deadline=None, max_examples=10)
@given(st.integers(1, 7))
def test_evaluate_batch_size_invariance(batch):
    dataset = sine_dataset(rows=100, input_len=16, horizon=4)
    model = md.build_model(tiny_config(input_len=16, n_vars=2))
    md.set_static_graph(model, dataset.values[: dataset.train_end])
    got = tr.evaluate(model, dataset, "val", batch=batch)
    want = tr.evaluate(model, dataset, "val", batch=64)
    assert abs(got[0] - want[0]) < 1e-12
    assert abs(got[1] - want[1]) < 1e-12


def test_sinusoids_beat_repeat_last_baseline():
    # Deterministic sinusoids are an easy fit; the trained model must
    # land far below the hold-last-value baseline on validation.
    dataset = sine_dataset(rows=300, input_len=24, horizon=6)
    model = md.build_model(
        md.ModelConfig(
            input_len=24, horizon=6, n_vars=2, hidden=8, levels=2,
            depth=1, embed_dim=4, seed=1,
        )
    )
    report, _ = tr.train(
        model, dataset, tr.TrainConfig(lr=1e-2, epochs=40, patience=40, batch=32, seed=0)
    )
    base_mse, _ = tr.repeat_last_metrics(dataset, "val")
    assert report.best_val_mse < 0.1 * base_mse
