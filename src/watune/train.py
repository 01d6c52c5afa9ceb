"""Training core: explicit feature encoding, a compact rectifier MLP head
over the 8 actions, CE / KL-soft-label / DPO objectives with hand-derived
gradients, AdamW, and the deterministic training loop."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .datagen import Dataset
from .domain import NUM_ACTIONS, Contexts
from .reward import soft_labels

FEATURE_DIM = 15  # one-hot time (4) | pub batt (1) | sub batt (1) | peer flag (1) | app histogram (8)


class TrainingDiverged(RuntimeError):
    pass


def encode_batch(contexts: Contexts) -> np.ndarray:
    """(N, 15) features; a masked peer zeroes positions 5 and 6."""
    n, window = contexts.hist.shape
    rows = np.arange(n)
    x = np.zeros((n, FEATURE_DIM))
    x[rows, contexts.time] = 1.0
    x[:, 4] = contexts.pub / 100.0
    x[:, 5] = np.where(contexts.peer, contexts.sub / 100.0, 0.0)
    x[:, 6] = contexts.peer
    hist = np.zeros((n, NUM_ACTIONS))
    for w in range(window):
        hist[rows, contexts.hist[:, w]] += 1.0
    x[:, 7:] = hist / window
    return x


@dataclass
class HeadModel:
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "HeadModel":
        return HeadModel([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def validate(self) -> None:
        prev = FEATURE_DIM
        for w, b in zip(self.weights, self.biases):
            if w.shape[1] != prev or b.shape != (w.shape[0],):
                raise ValueError(f"layer shape chain broken at {w.shape}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError("non-finite parameters")
            prev = w.shape[0]
        if prev != NUM_ACTIONS:
            raise ValueError(f"output dimension {prev} != {NUM_ACTIONS}")


def init_head(layers: int, hidden: int = 64, seed: int = 0,
              in_dim: int = FEATURE_DIM, out_dim: int = NUM_ACTIONS) -> HeadModel:
    if layers not in (1, 2, 3):
        raise ValueError("layers must be 1, 2, or 3")
    rng = np.random.default_rng([seed, 1618])
    dims = [in_dim] + [hidden] * (layers - 1) + [out_dim]
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / d_in), (d_out, d_in)))
        biases.append(np.zeros(d_out))
    return HeadModel(weights, biases)


def forward(model: HeadModel, x: np.ndarray) -> np.ndarray:
    """Affine-rectifier chain; final layer affine. Accepts (d,) or (N, d)."""
    h = np.asarray(x, dtype=float)
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w.T
        h += b
        if i < model.n_layers - 1:
            np.maximum(h, 0.0, out=h)
    return h


def _forward_cached(model: HeadModel, x: np.ndarray):
    acts = [np.atleast_2d(np.asarray(x, dtype=float))]
    pre = []
    h = acts[0]
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w.T + b
        pre.append(z)
        h = np.maximum(z, 0.0) if i < model.n_layers - 1 else z
        acts.append(h)
    return h, acts, pre


def backward(model: HeadModel, acts, pre, dlogits: np.ndarray):
    """Parameter gradients for a batch given d(loss)/d(logits)."""
    grads_w = [None] * model.n_layers
    grads_b = [None] * model.n_layers
    d = np.atleast_2d(dlogits)
    for i in range(model.n_layers - 1, -1, -1):
        grads_w[i] = d.T @ acts[i]
        grads_b[i] = d.sum(axis=0)
        if i > 0:
            d = (d @ model.weights[i]) * (pre[i - 1] > 0)
    return grads_w, grads_b


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def loss_and_grad(kind: str, logits: np.ndarray, target) -> tuple[float, np.ndarray]:
    """Mean loss over a batch of (B, 8) logits and its gradient w.r.t. them.

    ce: `target` is the hard labels (B,); kl: the soft labels (B, 8); dpo:
    (reference logits (B, 8), preferred (B,), dispreferred (B,), beta), with
    both actions of a pair scored on the same row.
    """
    rows = np.arange(len(logits))
    if kind == "ce":
        logq = log_softmax(logits)
        loss = -np.mean(logq[rows, target])
        d = softmax(logits)
        d[rows, target] -= 1.0
    elif kind == "kl":
        logq = log_softmax(logits)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(target > 0, target * (np.log(np.where(target > 0, target, 1.0)) - logq), 0.0)
        loss = float(np.mean(terms.sum(axis=1)))
        d = softmax(logits) - target
    else:  # dpo
        ref, y_w, y_l, beta = target
        lp = log_softmax(logits)
        rp = log_softmax(ref)
        margin = beta * ((lp[rows, y_w] - rp[rows, y_w]) - (lp[rows, y_l] - rp[rows, y_l]))
        loss = float(np.mean(np.where(
            margin >= 0, np.log1p(np.exp(-margin)), -margin + np.log1p(np.exp(margin)))))
        coef = 1.0 / (1.0 + np.exp(-margin)) - 1.0
        # d(loss)/d(log-probabilities); each row sums to 0, so it is also
        # the gradient w.r.t. the logits.
        d = np.zeros_like(logits)
        d[rows, y_w] += coef * beta
        d[rows, y_l] -= coef * beta
    d /= len(rows)
    return loss, d


@dataclass
class TrainConfig:
    loss: str = "kl"  # ce | kl | dpo
    epochs: int = 5
    effective_batch: int = 64
    learning_rate: float = 1e-3
    weight_decay: float = 0.01
    dpo_beta: float = 0.1
    seed: int = 1
    soft_temp: float = 0.25
    layers: int = 3
    hidden: int = 64

    def __post_init__(self):
        if self.loss not in ("ce", "kl", "dpo"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.epochs < 0 or self.effective_batch < 1 or self.learning_rate <= 0:
            raise ValueError("invalid epochs/batch/learning rate")
        if self.dpo_beta <= 0 or self.soft_temp <= 0:
            raise ValueError("dpo_beta and soft_temp must be positive")


class AdamW:
    """Adaptive moments with decoupled weight decay."""

    def __init__(self, params: list[np.ndarray], lr: float, weight_decay: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.wd = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1 ** self.t)
            vhat = v / (1 - b2 ** self.t)
            p -= self.lr * (mhat / (np.sqrt(vhat) + self.eps) + self.wd * p)


def hard_labels(dataset: Dataset) -> np.ndarray:
    return np.argmax(dataset.rewards, axis=1)


def soft_targets(dataset: Dataset, temperature: float) -> np.ndarray:
    return soft_labels(dataset.rewards, temperature)


def accuracy_vs_oracle(model: HeadModel, feats: np.ndarray, labels: np.ndarray) -> float:
    pred = np.argmax(forward(model, feats), axis=1)
    return float(np.mean(pred == labels))


def train(dataset: Dataset, model: HeadModel, cfg: TrainConfig,
          ref_model: HeadModel | None = None,
          test_set: Dataset | None = None) -> tuple[HeadModel, dict]:
    """Deterministic mini-batch AdamW training of the head."""
    if not len(dataset):
        raise ValueError("empty training set")
    if cfg.loss == "dpo" and ref_model is None:
        raise ValueError("dpo training requires a frozen reference model")
    model = model.copy()
    model.validate()

    all_feats = feats = encode_batch(dataset.contexts)
    labels = hard_labels(dataset)
    targets = soft_targets(dataset, cfg.soft_temp) if cfg.loss == "kl" else labels
    skipped = 0
    if cfg.loss == "dpo":
        y_w = labels
        y_l = np.argmin(dataset.rewards, axis=1)
        keep = y_w != y_l
        skipped = int(np.sum(~keep))
        feats, y_w, y_l = feats[keep], y_w[keep], y_l[keep]
        if feats.shape[0] == 0:
            raise ValueError("no usable preference pairs (all rewards degenerate)")
        ref_logits_all = forward(ref_model, feats)

    params = model.weights + model.biases
    opt = AdamW(params, cfg.learning_rate, cfg.weight_decay)
    n = feats.shape[0]
    epoch_loss: list[float] = []

    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, 0x5EED, epoch]).permutation(n)
        total, batches = 0.0, 0
        for start in range(0, n, cfg.effective_batch):
            idx = order[start:start + cfg.effective_batch]
            logits, acts, pre = _forward_cached(model, feats[idx])
            target = (targets[idx] if cfg.loss != "dpo"
                      else (ref_logits_all[idx], y_w[idx], y_l[idx], cfg.dpo_beta))
            loss, d = loss_and_grad(cfg.loss, logits, target)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite {cfg.loss} loss at epoch {epoch}, step {batches}")
            gw, gb = backward(model, acts, pre, d)
            opt.step(gw + gb)
            total += float(loss)
            batches += 1
        epoch_loss.append(total / batches)

    report = {
        "loss": cfg.loss,
        "epochs": cfg.epochs,
        "seed": cfg.seed,
        "samples": len(dataset),
        "skipped_pairs": skipped,
        "epoch_loss": epoch_loss,
        "train_accuracy_vs_oracle": accuracy_vs_oracle(model, all_feats, labels),
    }
    if test_set:
        report["test_accuracy_vs_oracle"] = accuracy_vs_oracle(
            model, encode_batch(test_set.contexts), hard_labels(test_set))
    return model, report


def head_choices(model: HeadModel, contexts: Contexts) -> np.ndarray:
    """Argmax of the head's logits per context; lowest index wins ties. Runs
    in 64-row slices: one pass over the whole OOD set raised warm `compare`
    peak RSS by about 11% (2-core box, OpenBLAS), for no speed-up."""
    x = encode_batch(contexts)
    return np.concatenate([np.argmax(forward(model, x[i:i + 64]), axis=1)
                           for i in range(0, len(x), 64)])


CHECKPOINT_FORMAT = "watune-head-v1"


def save_checkpoint(path, model: HeadModel, metadata: dict | None = None) -> None:
    from .config import atomic_write_text

    obj = {
        "format": CHECKPOINT_FORMAT,
        "layers": model.n_layers,
        "shapes": [list(w.shape) for w in model.weights],
        "weights": [w.reshape(-1).tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "metadata": metadata or {},
    }
    atomic_write_text(path, json.dumps(obj, sort_keys=True) + "\n")


def load_checkpoint(path) -> tuple[HeadModel, dict]:
    """Read a checkpoint; a malformed one raises ValueError naming the file."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
        if obj.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported checkpoint format: {obj.get('format')!r}")
        weights = [np.array(flat, dtype=float).reshape(shape)
                   for flat, shape in zip(obj["weights"], obj["shapes"])]
        biases = [np.array(b, dtype=float) for b in obj["biases"]]
        model = HeadModel(weights, biases)
        model.validate()
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: not a usable checkpoint: {exc}") from None
    return model, obj.get("metadata", {})
