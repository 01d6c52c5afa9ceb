"""Training core: explicit feature encoding, a compact rectifier MLP head
over the 8 actions, CE / KL-soft-label / DPO objectives with hand-derived
gradients, AdamW over one flat parameter buffer, and the deterministic
training loop."""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass

import numpy as np

from .datagen import Dataset
from .domain import NUM_ACTIONS, AppType
from .reward import soft_labels

FEATURE_DIM = 7 + len(AppType)  # one-hot time (4) | pub batt | sub batt | peer flag | app histogram


class TrainingDiverged(RuntimeError):
    pass


def encode_batch(data: Dataset) -> np.ndarray:
    """(N, FEATURE_DIM) features of a dataset's contexts; a masked peer zeroes
    positions 5 and 6, as its `sub` is 0."""
    n, window = data.hist.shape
    rows = np.arange(n)
    x = np.zeros((n, FEATURE_DIM))
    x[rows, data.time] = 1.0
    x[:, 4] = data.pub / 100.0
    x[:, 5] = data.sub / 100.0
    x[:, 6] = data.peer
    hist = np.zeros((n, len(AppType)))
    for w in range(window):
        hist[rows, data.hist[:, w]] += 1.0
    x[:, 7:] = hist / window
    return x


@dataclass
class HeadModel:
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def flat(self) -> np.ndarray:
        """All parameters in one new vector: the weights, then the biases."""
        return np.concatenate([a.ravel() for a in self.weights + self.biases])

    def views(self, flat: np.ndarray) -> "HeadModel":
        """A model of this one's shapes whose arrays are views of `flat`,
        laid out as `flat()` lays them out."""
        arrays, at = [], 0
        for a in self.weights + self.biases:
            arrays.append(flat[at:at + a.size].reshape(a.shape))
            at += a.size
        return HeadModel(arrays[:self.n_layers], arrays[self.n_layers:])

    def validate(self) -> None:
        prev = FEATURE_DIM
        for w, b in zip(self.weights, self.biases):
            if w.shape[1] != prev:
                raise ValueError(f"layer shape chain broken at {w.shape}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError("non-finite parameters")
            prev = w.shape[0]
        if prev != NUM_ACTIONS:
            raise ValueError(f"output dimension {prev} != {NUM_ACTIONS}")


def init_head(layers: int, hidden: int = 64, seed: int = 0) -> HeadModel:
    rng = np.random.default_rng([seed, 1618])
    dims = [FEATURE_DIM] + [hidden] * (layers - 1) + [NUM_ACTIONS]
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / d_in), (d_out, d_in)))
        biases.append(np.zeros(d_out))
    return HeadModel(weights, biases)


def forward(model: HeadModel, x: np.ndarray, acts: list | None = None) -> np.ndarray:
    """Affine-rectifier chain over (N, d) features; final layer affine.
    Given a list `acts`, appends each layer's input to it."""
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        if acts is not None:
            acts.append(x)
        x = x @ w.T
        x += b
        if i < model.n_layers - 1:
            np.maximum(x, 0.0, out=x)
    return x


def _forward_cached(model: HeadModel, x: np.ndarray):
    acts = []
    return forward(model, x, acts), acts


def backward(model: HeadModel, acts, d: np.ndarray, grads: HeadModel) -> None:
    """Write the parameter gradients of a batch, given its (B, 8)
    d(loss)/d(logits) `d`, into `grads`, a model-shaped set of arrays (in
    training, views of the flat gradient vector)."""
    for i in range(model.n_layers - 1, -1, -1):
        np.matmul(d.T, acts[i], out=grads.weights[i])
        np.add.reduce(d, axis=0, out=grads.biases[i])
        if i > 0:
            d = d @ model.weights[i]
            d *= acts[i] > 0  # a rectifier's output is > 0 where its input is; NaN and -0.0 carry through


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    return z - np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))


def kl_target(soft: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """KL's per-row constants: the (N, 8) soft labels and their logs (0
    where a label is 0, whose term is then +0.0 at a finite log-probability)."""
    return soft, np.log(np.where(soft > 0, soft, 1.0))


def dpo_target(ref_logits: np.ndarray, y_w, y_l) -> tuple:
    """DPO's per-row constants: the reference log-probabilities of the
    preferred and of the dispreferred action, then both actions (N,)."""
    rows = np.arange(len(ref_logits))
    ref = log_softmax(ref_logits)
    return ref[rows, y_w], ref[rows, y_l], y_w, y_l


def loss_and_grad(kind: str, logits: np.ndarray, target: tuple) -> tuple[float, np.ndarray]:
    """Mean loss over a batch of (B, 8) logits and its gradient w.r.t. them.

    `target` holds the batch's rows of the per-row constants that `train`
    builds once per run: ce: (hard labels (B,),); kl: `kl_target(soft
    labels)`, i.e. (soft labels, their logs); dpo:
    (*`dpo_target(reference logits, preferred, dispreferred)`, beta), i.e.
    (reference log-probabilities of the preferred and the dispreferred
    action, preferred, dispreferred, beta), with both actions of a pair
    scored on the same row.
    """
    rows = np.arange(len(logits))
    if kind == "ce":
        (labels,) = target
        logq = log_softmax(logits)
        loss = -(np.add.reduce(logq[rows, labels]) / len(rows))
        d = np.exp(logq)
        d[rows, labels] -= 1.0
    elif kind == "kl":
        soft, log_soft = target
        logq = log_softmax(logits)
        terms = soft * (log_soft - logq)
        loss = float(np.add.reduce(np.add.reduce(terms, axis=1)) / len(rows))
        d = np.exp(logq)
        d -= soft
    else:  # dpo
        ref_w, ref_l, y_w, y_l, beta = target
        lp = log_softmax(logits)
        margin = beta * ((lp[rows, y_w] - ref_w) - (lp[rows, y_l] - ref_l))
        terms = np.where(margin >= 0, np.log1p(np.exp(-margin)), -margin + np.log1p(np.exp(margin)))
        loss = float(np.add.reduce(terms) / len(rows))
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
    layers: int = 3
    hidden: int = 64

    def __post_init__(self):
        if self.loss not in ("ce", "kl", "dpo"):
            raise ValueError(f"train.loss must be one of 'ce', 'kl', 'dpo', not {self.loss!r}")
        if self.layers not in (1, 2, 3):
            raise ValueError(f"train.layers must be 1, 2 or 3, not {self.layers!r}")
        for name, ok, rule in (
            ("epochs", self.epochs >= 0, ">= 0"),
            ("effective_batch", self.effective_batch >= 1, ">= 1"),
            ("hidden", self.hidden >= 1, ">= 1"),
            ("learning_rate", 0 < self.learning_rate < math.inf, "finite and > 0"),
            ("weight_decay", 0 <= self.weight_decay < math.inf, "finite and >= 0"),
            ("dpo_beta", 0 < self.dpo_beta < math.inf, "finite and > 0"),
        ):
            if not ok:  # NaN fails every comparison
                raise ValueError(f"train.{name} must be {rule}, not {getattr(self, name)!r}")


class AdamW:
    """Adaptive moments with decoupled weight decay, stepping one flat
    parameter vector in place.

    Each element sees the operations of the textbook update in its order,
    with no constant folded: m = m*b1 + (1-b1)*g, v = v*b2 + ((1-b2)*g)*g,
    p -= lr * (mhat / (sqrt(vhat) + eps) + wd*p). The result is therefore
    bit-identical to stepping each weight and bias array on its own.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: np.ndarray, lr: float, weight_decay: float):
        self.params = params
        self.lr = lr
        self.wd = weight_decay
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._a = np.empty_like(params)  # work buffers
        self._b = np.empty_like(params)
        self.t = 0

    def step(self, grad: np.ndarray) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        m, v, a, b = self.m, self.v, self._a, self._b
        m *= b1
        m += np.multiply(grad, 1 - b1, out=a)
        v *= b2
        np.multiply(grad, 1 - b2, out=a)
        a *= grad
        v += a
        np.divide(v, 1 - b2 ** self.t, out=a)  # vhat
        np.sqrt(a, out=a)
        a += self.EPS
        np.divide(m, 1 - b1 ** self.t, out=b)  # mhat
        b /= a
        b += np.multiply(self.params, self.wd, out=a)
        b *= self.lr
        self.params -= b


def train(dataset: Dataset, model: HeadModel, cfg: TrainConfig, seed: int, soft_temp: float,
          ref_model: HeadModel | None = None) -> tuple[HeadModel, dict]:
    """Deterministic mini-batch AdamW training of the head: `seed` orders its
    batches, and a KL head learns its rewards' soft labels at `soft_temp`."""
    # The model trains in a copy of its parameters held in one flat vector,
    # and its gradient in another, so AdamW steps them as one buffer.
    params = model.flat()
    grad = np.zeros_like(params)
    model, grads = model.views(params), model.views(grad)

    all_feats = feats = encode_batch(dataset)
    labels = np.argmax(dataset.rewards, axis=1)
    # The loss's per-row constants, shuffled with the features each epoch.
    targets, beta = (labels,), []
    skipped = 0
    if cfg.loss == "kl":
        targets = kl_target(soft_labels(dataset.rewards, soft_temp))
    elif cfg.loss == "dpo":
        y_w = labels
        y_l = np.argmin(dataset.rewards, axis=1)
        keep = y_w != y_l
        skipped = int(np.sum(~keep))
        feats, y_w, y_l = feats[keep], y_w[keep], y_l[keep]
        if feats.shape[0] == 0:
            raise ValueError("no usable preference pairs (all rewards degenerate)")
        # The reference forward runs in pieces of 256-511 rows, not over every
        # preference row at once. On OpenBLAS a product over 256 rows or more
        # has the one-shot product's bits; one over 128 or fewer (`_choices`'
        # slices) does not, nor does a 1-wide layer's, so such a head runs whole.
        pieces = max(1, len(feats) // 256) if min(b.size for b in ref_model.biases) > 1 else 1
        ref_logits = np.concatenate([forward(ref_model, f) for f in np.array_split(feats, pieces)])
        targets, beta = dpo_target(ref_logits, y_w, y_l), [cfg.dpo_beta]

    opt = AdamW(params, cfg.learning_rate, cfg.weight_decay)
    n = feats.shape[0]
    epoch_loss: list[float] = []
    columns = (feats, *targets)
    shuffled = [np.empty_like(a) for a in columns]  # each epoch's rows; batches slice them

    for epoch in range(cfg.epochs):
        order = np.random.default_rng([seed, 0x5EED, epoch]).permutation(n)
        for a, buf in zip(columns, shuffled):
            # `a[order]`: "clip" never clips a permutation, and unlike "raise"
            # it gathers straight into `buf`, not into a copy of it.
            np.take(a, order, axis=0, out=buf, mode="clip")
        total, batches = 0.0, 0
        for start in range(0, n, cfg.effective_batch):
            x, *target = (a[start:start + cfg.effective_batch] for a in shuffled)
            logits, acts = _forward_cached(model, x)
            loss, d = loss_and_grad(cfg.loss, logits, target + beta)
            if not math.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite {cfg.loss} loss at epoch {epoch}, step {batches}")
            backward(model, acts, d, grads)
            opt.step(grad)
            total += float(loss)
            batches += 1
        epoch_loss.append(total / batches)

    report = {
        "loss": cfg.loss,
        "epochs": cfg.epochs,
        "seed": seed,
        "samples": len(dataset),
        "skipped_pairs": skipped,
        "epoch_loss": epoch_loss,
        # the share of rows on which the head, deciding as `head_choices` does, picks the oracle's action
        "train_accuracy_vs_oracle": float(np.mean(_choices(model, all_feats) == labels)),
    }
    return model, report


# Rows `head_choices` encodes at a time: a multiple of `_choices`' 64-row
# slices, so the logits keep their bits, and small enough that the features
# of a whole split are never held at once.
_ENCODE_ROWS = 1024


def head_choices(model: HeadModel, data: Dataset) -> np.ndarray:
    """Argmax of the head's logits per row of `data`; lowest index wins ties."""
    choices = np.empty(len(data), dtype=np.intp)
    for i in range(0, len(choices), _ENCODE_ROWS):
        choices[i:i + _ENCODE_ROWS] = _choices(model, encode_batch(data[i:i + _ENCODE_ROWS]))
    return choices


def _choices(model: HeadModel, x: np.ndarray) -> np.ndarray:
    """`head_choices` on encoded features. Runs in 64-row slices: one pass
    over the whole OOD set raised warm `compare` peak RSS by about 11%
    (2-core box, OpenBLAS), for no speed-up, and the logits' last bits
    depend on the slice size, so the pinned tables rest on it."""
    return np.concatenate([np.argmax(forward(model, x[i:i + 64]), axis=1)
                           for i in range(0, len(x), 64)])


CHECKPOINT_FORMAT = "watune-head-v2"


def save_checkpoint(path, model: HeadModel, metadata: dict | None = None) -> None:
    """Write the weight shapes and the model's `flat()` parameter buffer as
    base64 little-endian float64, which loads back bit for bit."""
    from .config import atomic_write_text

    obj = {
        "format": CHECKPOINT_FORMAT,
        "shapes": [list(w.shape) for w in model.weights],
        "params": base64.b64encode(model.flat().astype("<f8").tobytes()).decode("ascii"),
        "metadata": metadata or {},
    }
    atomic_write_text(path, json.dumps(obj, sort_keys=True) + "\n")


def load_checkpoint(path) -> tuple[HeadModel, dict]:
    """Read a checkpoint; a malformed one raises ValueError naming the file."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
        if type(obj) is not dict:
            raise ValueError(f"a checkpoint must be a JSON object, not {obj!r}")
        if obj.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"format {obj.get('format')!r} is not {CHECKPOINT_FORMAT!r}; "
                             "retrain the head")
        shapes = [tuple(s) for s in obj["shapes"]]
        if any(len(s) != 2 or any(type(d) is not int or d < 1 for d in s) for s in shapes):
            raise ValueError(f"shapes must be [rows, cols] pairs of positive integers, "
                             f"not {obj['shapes']!r}")
        params = np.frombuffer(base64.b64decode(obj["params"], validate=True), "<f8").astype(float)
        # Checked before any array of these shapes is made: the payload bounds them.
        size = sum(rows * cols + rows for rows, cols in shapes)
        if params.size != size:
            raise ValueError(f"params hold {params.size} values, shapes {obj['shapes']} need {size}")
        model = HeadModel([np.empty(s) for s in shapes],
                          [np.empty(rows) for rows, _ in shapes]).views(params)
        model.validate()
        metadata = obj.get("metadata", {})
        if type(metadata) is not dict:
            raise ValueError(f"metadata must be a JSON object, not {metadata!r}")
        if type(metadata.get("no_peer", False)) is not bool:
            raise ValueError(f"metadata.no_peer must be true or false, not {metadata['no_peer']!r}")
    except KeyError as exc:
        raise ValueError(f"{path}: not a usable checkpoint: missing key {exc.args[0]}") from None
    except (ValueError, TypeError, RecursionError) as exc:
        raise ValueError(f"{path}: not a usable checkpoint: {exc}") from None
    return model, metadata
