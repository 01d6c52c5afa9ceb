import base64
import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import watune.train
from watune.datagen import IN_DISTRIBUTION_PROFILE, Dataset, DatasetConfig, generate_dataset, split
from watune.domain import AppType, TimeOfDay
from watune.measurement import LinkModelConfig
from watune.train import (
    FEATURE_DIM,
    AdamW,
    HeadModel,
    TrainConfig,
    TrainingDiverged,
    dpo_target,
    encode_batch,
    forward,
    head_choices,
    init_head,
    kl_target,
    load_checkpoint,
    log_softmax,
    loss_and_grad,
    save_checkpoint,
    train,
)
from watune.reward import RewardConfig, soft_labels

from conftest import Context, dataset_of

SOFT_TEMP = RewardConfig().soft_temp


def ctx(sub=60.0, apps=None):
    return Context(TimeOfDay.evening, 80.0, sub, tuple(apps or [AppType.voiceChat] * 10))


def features(c):
    return encode_batch(dataset_of(c))[0]


def loss(kind, logits, target):
    """The loss of one row of logits (`target` is that row's target)."""
    return loss_and_grad(kind, logits[None], target)[0]


def grad(kind, logits, target):
    return loss_and_grad(kind, logits[None], target)[1][0]


def kl_row(soft):
    """The KL target of one row of soft labels."""
    return kl_target(soft[None])


def dpo_row(ref, y_w, y_l, beta=0.1):
    """The DPO target of one row of reference logits and one pair."""
    return (*dpo_target(ref[None], [y_w], [y_l]), beta)


def test_encode_layout():
    x = features(ctx())
    assert x.shape == (FEATURE_DIM,)
    assert x[:4].tolist() == [0, 0, 1, 0]  # evening one-hot
    assert x[4] == 0.8
    assert x[5] == 0.6
    assert x[6] == 1.0
    assert x[7 + int(AppType.voiceChat)] == 1.0
    assert abs(x[7:].sum() - 1.0) < 1e-12


def test_encode_masked_peer():
    x = features(ctx(sub=None))
    assert x[5] == 0.0 and x[6] == 0.0


def test_encode_histogram_mixed():
    apps = [AppType.textMessage] * 3 + [AppType.mapSync] * 7
    x = features(ctx(apps=apps))
    assert x[7 + int(AppType.textMessage)] == pytest.approx(0.3)
    assert x[7 + int(AppType.mapSync)] == pytest.approx(0.7)


def test_init_head_shapes_and_determinism():
    for layers in (1, 2, 3):
        m = init_head(layers, seed=4)
        m.validate()
        assert m.n_layers == layers
        assert m.weights[-1].shape[0] == 8
    a, b = init_head(3, seed=4), init_head(3, seed=4)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    c = init_head(3, seed=5)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_forward_single_layer_is_affine():
    m = init_head(1, seed=0)
    x = np.random.default_rng(0).normal(size=(1, FEATURE_DIM))
    np.testing.assert_allclose(forward(m, x), x @ m.weights[0].T + m.biases[0], atol=1e-12)


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_training_forward_is_the_one_chain(layers):
    """A training step's forward is `forward` itself: the same logits, bit
    for bit, and the input of each layer, the first being the features."""
    m = init_head(layers, 16, seed=layers)
    x = np.random.default_rng(layers).normal(size=(70, FEATURE_DIM))
    logits, acts = watune.train._forward_cached(m, x)
    assert logits.tobytes() == forward(m, x).tobytes()
    assert len(acts) == m.n_layers and acts[0] is x


def test_forward_zero_model():
    m = HeadModel([np.zeros((8, FEATURE_DIM))], [np.zeros(8)])
    assert np.all(forward(m, np.ones((1, FEATURE_DIM))) == 0.0)
    assert head_choices(m, dataset_of(ctx())).tolist() == [0]  # tie rule


def test_head_choices_on_no_rows(toy_split):
    """No rows make no choices, as an empty integer array."""
    choices = head_choices(init_head(2, seed=1), toy_split[0][:0])
    assert choices.shape == (0,) and choices.dtype == np.intp


def tiled(dataset, n):
    """`n` rows of `dataset`, repeated, every third masked."""
    reps = -(-n // len(dataset))
    data = Dataset.concat([dataset] * reps, reps * len(dataset))[:n]
    return replace(data, sub=np.where(np.arange(n) % 3 > 0, data.sub, 0.0))


def test_head_choices_encode_in_chunks_with_the_same_bits(small_dataset):
    """Encoding 1,024 rows at a time, a whole number of the 64-row forward
    slices, gives the choices of one encoding of every row, here over two
    whole chunks and a 52-row tail."""
    m = init_head(2, seed=3)
    data = tiled(small_dataset, 2100)
    np.testing.assert_array_equal(head_choices(m, data), watune.train._choices(m, encode_batch(data)))


def test_head_choices_hold_no_whole_split_features(small_dataset):
    """The choices on a full-size OOD split (32,000 rows) peak below 1 MB
    traced, as only one chunk's features exist at a time. Encoding the
    whole split first peaks at about 8 MB."""
    m = init_head(TrainConfig().layers, TrainConfig().hidden, seed=3)
    data = tiled(small_dataset, 32000)
    tracemalloc.start()
    try:
        head_choices(m, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak


def test_head_decide_shift_invariant():
    m = init_head(2, seed=1)
    c = dataset_of(ctx(), ctx(sub=None), ctx(apps=[AppType.firmwareUpdate] * 10))
    base = head_choices(m, c)
    m2 = m.views(m.flat())
    m2.biases[-1] += 13.7
    np.testing.assert_array_equal(head_choices(m2, c), base)


def test_validate_catches_bad_chain():
    with pytest.raises(ValueError):
        HeadModel([np.zeros((7, FEATURE_DIM))], [np.zeros(7)]).validate()
    with pytest.raises(ValueError):
        HeadModel([np.full((8, FEATURE_DIM), np.nan)], [np.zeros(8)]).validate()


def test_loss_identities():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=8)
    # CE(logits, y) == KL(onehot(y) || softmax)
    for y in range(8):
        onehot = np.zeros(8)
        onehot[y] = 1.0
        assert loss("ce", logits, ([y],)) == pytest.approx(
            loss("kl", logits, kl_row(onehot)), abs=1e-12)
    # uniform logits -> ln 8
    assert loss("ce", np.zeros(8), ([3],)) == pytest.approx(np.log(8), abs=1e-9)
    assert log_softmax(np.zeros(8))[0] == pytest.approx(-np.log(8))
    # KL = 0 at exact match
    assert loss("kl", logits, kl_row(soft_labels(logits, 1.0))) == pytest.approx(0.0, abs=1e-9)
    # DPO at policy == reference -> ln 2
    assert loss("dpo", logits, dpo_row(logits, 2, 5)) == pytest.approx(np.log(2), abs=1e-9)


def test_dpo_degenerate_pair(small_split):
    # A row whose best and worst action coincide is no preference pair;
    # training skips it, and refuses a set made only of such rows.
    flat = replace(small_split[0][:64], rewards=np.zeros((64, 8)))
    ref = init_head(1, seed=0)
    with pytest.raises(ValueError, match="no usable preference pairs"):
        train(flat, ref, TrainConfig(loss="dpo", epochs=1, layers=1), 1, SOFT_TEMP, ref_model=ref)


def finite_diff(fn, x, eps=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (fn(xp) - fn(xm)) / (2 * eps)
    return g


def test_grad_ce_kl_dpo_vs_logits_fd():
    rng = np.random.default_rng(12)
    logits = rng.normal(size=8)
    soft = soft_labels(rng.normal(size=8), 1.0)
    ref = rng.normal(size=8)
    for kind, target in (("ce", ([2],)), ("kl", kl_row(soft)), ("dpo", dpo_row(ref, 1, 6))):
        np.testing.assert_allclose(grad(kind, logits, target),
                                   finite_diff(lambda z: loss(kind, z, target), logits), atol=1e-6)


def test_permutation_equivariance():
    """Consistently permuting the action axis leaves every loss unchanged."""
    rng = np.random.default_rng(21)
    perm = rng.permutation(8)
    logits = rng.normal(size=8)
    soft = soft_labels(rng.normal(size=8), 1.0)
    y = 5
    inv = np.argsort(perm)
    assert loss("ce", logits[perm], ([inv[y]],)) == pytest.approx(
        loss("ce", logits, ([y],)), abs=1e-12)
    assert loss("kl", logits[perm], kl_row(soft[perm])) == pytest.approx(
        loss("kl", logits, kl_row(soft)), abs=1e-12)
    ref = rng.normal(size=8)
    assert loss("dpo", logits[perm], dpo_row(ref[perm], inv[2], inv[7])) == pytest.approx(
        loss("dpo", logits, dpo_row(ref, 2, 7)), abs=1e-12)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(loss="mse")
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(dpo_beta=0.0)


@pytest.fixture
def toy_split(small_split):
    return small_split


def test_train_reduces_loss_and_is_deterministic(toy_split):
    train_set, test_set = toy_split
    cfg = TrainConfig(loss="kl", epochs=3, layers=2)
    m0 = init_head(cfg.layers, cfg.hidden, seed=7)
    m1, rep1 = train(train_set, m0, cfg, 7, SOFT_TEMP)
    m2, rep2 = train(train_set, m0, cfg, 7, SOFT_TEMP)
    assert rep1["epoch_loss"][-1] < rep1["epoch_loss"][0]
    for w1, w2 in zip(m1.weights + m1.biases, m2.weights + m2.biases):
        np.testing.assert_array_equal(w1, w2)
    assert rep1 == rep2
    # the starting model is untouched
    np.testing.assert_array_equal(m0.weights[0], init_head(cfg.layers, cfg.hidden, seed=7).weights[0])
    assert 0.0 <= rep1["train_accuracy_vs_oracle"] <= 1.0


def test_train_ce_and_dpo_paths(toy_split):
    train_set, test_set = toy_split
    ce_cfg = TrainConfig(loss="ce", epochs=2, layers=1)
    m_ce, rep_ce = train(train_set, init_head(1, seed=3), ce_cfg, 3, SOFT_TEMP)
    assert rep_ce["epoch_loss"][-1] < rep_ce["epoch_loss"][0]

    dpo_cfg = TrainConfig(loss="dpo", epochs=2, layers=1)
    m_dpo, rep_dpo = train(train_set, m_ce, dpo_cfg, 3, SOFT_TEMP, ref_model=m_ce)
    assert rep_dpo["epoch_loss"][-1] <= np.log(2) + 1e-6
    assert rep_dpo["skipped_pairs"] >= 0


def reference_adamw_step(params, grads, m, v, t, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    """AdamW stepping each array on its own, as the trainer once did."""
    for p, g, mi, vi in zip(params, grads, m, v):
        mi *= b1
        mi += (1 - b1) * g
        vi *= b2
        vi += (1 - b2) * g * g
        mhat = mi / (1 - b1 ** t)
        vhat = vi / (1 - b2 ** t)
        p -= lr * (mhat / (np.sqrt(vhat) + eps) + wd * p)


def reference_train(dataset, model, cfg, seed, soft_temp, ref_model=None):
    """The trainer before its step was fused: per-array AdamW, the softmax
    recomputed from the logits, fancy-indexed batches, new gradient arrays."""
    model = HeadModel([w.copy() for w in model.weights], [b.copy() for b in model.biases])
    feats = encode_batch(dataset)
    labels = np.argmax(dataset.rewards, axis=1)
    targets = soft_labels(dataset.rewards, soft_temp) if cfg.loss == "kl" else labels
    if cfg.loss == "dpo":
        y_w, y_l = labels, np.argmin(dataset.rewards, axis=1)
        keep = y_w != y_l
        feats, y_w, y_l = feats[keep], y_w[keep], y_l[keep]
        ref_logits = forward(ref_model, feats)
    params = model.weights + model.biases
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    n, t, epoch_loss = len(feats), 0, []
    for epoch in range(cfg.epochs):
        order = np.random.default_rng([seed, 0x5EED, epoch]).permutation(n)
        total, batches = 0.0, 0
        for start in range(0, n, cfg.effective_batch):
            idx = order[start:start + cfg.effective_batch]
            acts, pre = [feats[idx]], []
            for i, (w, b) in enumerate(zip(model.weights, model.biases)):
                z = acts[-1] @ w.T + b
                pre.append(z)
                acts.append(np.maximum(z, 0.0) if i < model.n_layers - 1 else z)
            logits, rows = acts[-1], np.arange(len(idx))
            logq = log_softmax(logits)
            if cfg.loss == "ce":
                loss = -np.mean(logq[rows, targets[idx]])
                d = np.exp(log_softmax(logits))
                d[rows, targets[idx]] -= 1.0
            elif cfg.loss == "kl":
                target = targets[idx]
                with np.errstate(divide="ignore", invalid="ignore"):
                    terms = np.where(target > 0, target * (
                        np.log(np.where(target > 0, target, 1.0)) - logq), 0.0)
                loss = float(np.mean(terms.sum(axis=1)))
                d = np.exp(log_softmax(logits)) - target
            else:
                rp, w_i, l_i, beta = log_softmax(ref_logits[idx]), y_w[idx], y_l[idx], cfg.dpo_beta
                margin = beta * ((logq[rows, w_i] - rp[rows, w_i]) - (logq[rows, l_i] - rp[rows, l_i]))
                loss = float(np.mean(np.where(
                    margin >= 0, np.log1p(np.exp(-margin)), -margin + np.log1p(np.exp(margin)))))
                coef = 1.0 / (1.0 + np.exp(-margin)) - 1.0
                d = np.zeros_like(logits)
                d[rows, w_i] += coef * beta
                d[rows, l_i] -= coef * beta
            d /= len(rows)
            grads_w, grads_b = [None] * model.n_layers, [None] * model.n_layers
            for i in range(model.n_layers - 1, -1, -1):
                grads_w[i] = d.T @ acts[i]
                grads_b[i] = d.sum(axis=0)
                if i > 0:
                    d = (d @ model.weights[i]) * (pre[i - 1] > 0)
            t += 1
            reference_adamw_step(params, grads_w + grads_b, m, v, t,
                                 cfg.learning_rate, cfg.weight_decay)
            total += float(loss)
            batches += 1
        epoch_loss.append(total / batches)
    return model, epoch_loss


def assert_same_model(a, b):
    assert [x.shape for x in a.weights + a.biases] == [x.shape for x in b.weights + b.biases]
    for x, y in zip(a.weights + a.biases, b.weights + b.biases):
        assert np.array_equal(x, y) and x.tobytes() == y.tobytes()  # bit for bit: -0.0 != 0.0


def forward_rows(monkeypatch, ref):
    """The row counts of `watune.train.forward`'s calls on `ref`, appended as
    they are made. A trained head is a copy, so it is never `ref`."""
    rows = []

    def recording_forward(model, x, acts=None):
        if model is ref:
            rows.append(len(x))
        return forward(model, x, acts)

    monkeypatch.setattr(watune.train, "forward", recording_forward)
    return rows


@pytest.mark.parametrize("rows", [150, 128, 700])
def test_fused_training_step_is_bit_exact(monkeypatch, toy_split, rows):
    """ce, kl and dpo training equal the per-array reference exactly, with a
    short last batch (150 rows) and without one (128 rows); the DPO run
    drops the rows whose rewards are all equal. Its reference forward runs
    in pieces of 256-511 rows (two pieces of 311 at 700 rows), and they give
    the bits of the reference's one-shot forward."""
    data = toy_split[0][:rows]
    cfg, seed = TrainConfig(loss="kl", epochs=3, layers=3, hidden=16), 5
    start = init_head(cfg.layers, cfg.hidden, seed=seed)
    models = {}
    for loss_name in ("ce", "kl"):
        c = replace(cfg, loss=loss_name)
        got, report = train(data, start, c, seed, SOFT_TEMP)
        want, want_loss = reference_train(data, start, c, seed, SOFT_TEMP)
        assert_same_model(got, want)
        assert report["epoch_loss"] == want_loss
        models[loss_name] = got
    # A reward gap above about 190 underflows a soft label to an exact 0 at
    # temperature 0.25; such a label adds nothing to the KL loss.
    rewards = data.rewards.copy()
    rewards[::7, 0] += 400.0  # every label but one is 0
    rewards[3::7, 5] -= 400.0  # one label is 0
    peaked = replace(data, rewards=rewards)
    zeros = (soft_labels(rewards, SOFT_TEMP) == 0.0).sum()
    assert zeros == 7 * len(rewards[::7]) + len(rewards[3::7])
    got, report = train(peaked, start, cfg, seed, SOFT_TEMP)
    want, want_loss = reference_train(peaked, start, cfg, seed, SOFT_TEMP)
    assert_same_model(got, want)
    assert report["epoch_loss"] == want_loss
    rewards = data.rewards.copy()
    rewards[::9] = 0.0  # best == worst: no preference pair
    flat = replace(data, rewards=rewards)
    c = replace(cfg, loss="dpo")
    ref_rows = forward_rows(monkeypatch, models["kl"])
    got, report = train(flat, models["kl"], c, seed, SOFT_TEMP, ref_model=models["kl"])
    want, want_loss = reference_train(flat, models["kl"], c, seed, SOFT_TEMP, ref_model=models["kl"])
    assert report["skipped_pairs"] == math.ceil(rows / 9)
    assert_same_model(got, want)
    assert report["epoch_loss"] == want_loss
    pairs = rows - math.ceil(rows / 9)
    assert sum(ref_rows) == pairs and max(ref_rows) <= 511
    assert len(ref_rows) == (1 if pairs < 512 else pairs // 256)


def test_dpo_reference_with_a_one_wide_layer_runs_whole(monkeypatch, toy_split):
    """A reference head with a 1-wide layer (a matrix-vector product, whose
    bits depend on the rows) runs its forward over all preference rows at
    once, and DPO training equals the one-shot reference exactly."""
    data = toy_split[0]
    cfg = TrainConfig(loss="dpo", epochs=1, layers=2, hidden=1)
    ref = init_head(cfg.layers, cfg.hidden, seed=3)
    ref_rows = forward_rows(monkeypatch, ref)
    got, report = train(data, ref, cfg, 3, SOFT_TEMP, ref_model=ref)
    want, want_loss = reference_train(data, ref, cfg, 3, SOFT_TEMP, ref_model=ref)
    assert ref_rows == [len(data) - report["skipped_pairs"]] and ref_rows[0] >= 512
    assert_same_model(got, want)
    assert report["epoch_loss"] == want_loss


def test_dpo_training_peaks_no_higher_than_kl():
    """On a bench-size train split (2,560 rows), a DPO run's traced peak is
    no more than about that of a KL run: its reference forward runs in
    pieces, and every epoch shuffles into the same buffers. One reference
    forward over the whole split peaked at about 1.4x the KL run."""
    cfg = DatasetConfig(logs_per_session=200)
    data = generate_dataset(IN_DISTRIBUTION_PROFILE, LinkModelConfig(), cfg, RewardConfig(), 1)
    train_set = split(data, 0.8, np.random.default_rng([1, 9973]))[0]
    del data
    assert len(train_set) == 2560
    kl = TrainConfig(loss="kl")
    start = init_head(kl.layers, kl.hidden, seed=1)
    ref, _ = train(train_set, start, kl, 1, SOFT_TEMP)
    peaks = {}
    for loss in ("kl", "dpo"):
        tracemalloc.start()
        try:
            train(train_set, start, replace(kl, loss=loss), 1, SOFT_TEMP, ref_model=ref)
            peaks[loss] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["dpo"] <= 1.1 * peaks["kl"], peaks


def test_adamw_step_matches_per_array_update():
    rng = np.random.default_rng(31)
    shapes = [(4, 3), (5, 4), (4,), (5,)]
    params = [rng.normal(size=s) for s in shapes]
    flat = np.concatenate([p.ravel() for p in params])
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    opt = AdamW(flat, lr=0.01, weight_decay=0.1)
    for t in range(1, 21):
        grads = [rng.normal(size=s) * (rng.random(s) < 0.8) for s in shapes]  # some exact zeros
        opt.step(np.concatenate([g.ravel() for g in grads]))
        reference_adamw_step(params, grads, m, v, t, 0.01, 0.1)
        for got, want in ((flat, params), (opt.m, m), (opt.v, v)):
            assert got.tobytes() == np.concatenate([a.ravel() for a in want]).tobytes()
    assert opt.t == 20


def test_overfit_single_sample(toy_split):
    train_set, _ = toy_split
    cfg = TrainConfig(loss="kl", epochs=60, layers=2, learning_rate=5e-3, weight_decay=0.0)
    model, _ = train(train_set[[0] * 64], init_head(2, seed=0), cfg, 0, SOFT_TEMP)
    soft = soft_labels(train_set.rewards[0], SOFT_TEMP)
    assert head_choices(model, train_set[:1]).tolist() == [int(np.argmax(soft))]


def test_checkpoint_round_trip(tmp_path, toy_split):
    train_set, _ = toy_split
    cfg = TrainConfig(loss="kl", epochs=1)
    model, _ = train(train_set[:200], init_head(3, seed=2), cfg, 2, SOFT_TEMP)
    p = tmp_path / "head.json"
    save_checkpoint(p, model, {"loss": "kl"})
    back, meta = load_checkpoint(p)
    assert meta == {"loss": "kl"}
    for a, b in zip(model.weights + model.biases, back.weights + back.biases):
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
    # identical save is byte-identical
    p2 = tmp_path / "head2.json"
    save_checkpoint(p2, model, {"loss": "kl"})
    assert p.read_bytes() == p2.read_bytes()


def test_load_checkpoint_rejects_unknown_format(tmp_path):
    p = tmp_path / "x.json"
    p.write_text('{"format": "other"}')
    with pytest.raises(ValueError):
        load_checkpoint(p)


def _v1(obj):
    """The same one-layer head in the watune-head-v1 layout: a JSON float
    list per array."""
    values = np.frombuffer(base64.b64decode(obj["params"]), "<f8")
    [[rows, cols]] = obj["shapes"]
    return {"format": "watune-head-v1", "layers": 1, "shapes": obj["shapes"],
            "weights": [values[:rows * cols].tolist()], "biases": [values[rows * cols:].tolist()],
            "metadata": obj["metadata"]}


def _params(obj, edit):
    values = np.frombuffer(base64.b64decode(obj["params"]), "<f8")
    return {**obj, "params": base64.b64encode(edit(values).astype("<f8").tobytes()).decode()}


@pytest.mark.parametrize("corrupt, message", [
    (_v1, "format 'watune-head-v1' is not 'watune-head-v2'"),
    (lambda o: {**o, "params": o["params"][:-4] + "!!!!"}, "Only base64 data is allowed"),
    (lambda o: _params(o, lambda v: v[:-1]), "params hold 127 values, shapes [[8, 15]] need 128"),
    (lambda o: _params(o, lambda v: np.append(v, 0.0)), "params hold 129 values"),
    (lambda o: {**o, "shapes": [[16, 7]]}, "layer shape chain broken at (16, 7)"),
    (lambda o: _params(o, lambda v: np.where(np.arange(v.size) == 5, np.nan, v)),
     "non-finite parameters"),
    (lambda o: {k: v for k, v in o.items() if k != "shapes"}, "not a usable checkpoint: missing key shapes"),
    (lambda o: [o], "not a usable checkpoint: a checkpoint must be a JSON object, not [{"),
], ids=["v1", "bad-base64", "one-short", "one-long", "shape-chain", "nan", "no-shapes", "list"])
def test_load_checkpoint_refuses_with_file_name(tmp_path, corrupt, message):
    p = tmp_path / "head-kl.ckpt.json"
    save_checkpoint(p, init_head(1, seed=0), {"loss": "kl"})
    p.write_text(json.dumps(corrupt(json.loads(p.read_text()))))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: .*{re.escape(message)}"):
        load_checkpoint(p)


def test_train_reports_accuracy_vs_oracle(toy_split):
    """The report's accuracy is the share of training rows on which the
    trained head, deciding as `head_choices` does, picks the oracle's action."""
    rows = toy_split[0][:50]
    model, report = train(rows, init_head(1, seed=0), TrainConfig(loss="ce", epochs=1, layers=1), 0, SOFT_TEMP)
    agree = head_choices(model, rows) == np.argmax(rows.rewards, axis=1)
    assert report["train_accuracy_vs_oracle"] == float(np.mean(agree))


def test_load_checkpoint_names_truncated_file(tmp_path):
    p = tmp_path / "head-kl.ckpt.json"
    save_checkpoint(p, init_head(1, seed=0), {"loss": "kl"})
    text = p.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    p.write_text(text[: len(text) // 2])
    with pytest.raises(ValueError, match=r"head-kl\.ckpt\.json"):
        load_checkpoint(p)
