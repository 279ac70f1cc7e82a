"""Learned image maps: encoder to latent space and decoder back to pixels.

A fully-connected autoencoder (tanh hidden layers, identity latent layer,
sigmoid output layer) trained with minibatch gradient descent plus momentum.
Training is single-threaded and a pure function of (corpus, config), so
reruns produce bit-identical models. encode/decode are pure and safe to
share across threads.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .errors import BadMagicError, TrainingError, TruncatedError, VersionError
from .numerics import make_stream, rng_uniform_batch

MODEL_MAGIC = b"DPIM"
MODEL_VERSION = 1

DEFAULT_HIDDEN_DIMS = (256, 64)

# Rows per forward-pass matrix product. OpenBLAS rounds a row's product
# differently at different matrix heights: a 1-row pass (GEMV), small and
# large batches differ in the last bits. At one fixed height every row gets
# the same bits whatever its position or batch mates, so encode and decode
# always run zero-padded blocks of this height. 16 rows keep the padding of
# single-image calls and the block temporaries small.
BLOCK_ROWS = 16


@dataclass(eq=False)
class AutoencoderModel:
    """Encoder dims run pixels -> hidden... -> latent; decoder is mirrored.

    weights[i] has shape (dims[i+1], dims[i]) over the full mirrored chain;
    biases[i] has shape (dims[i+1],).
    """

    encoder_dims: tuple[int, ...]
    identity_len: int
    weights: list[np.ndarray] = field(repr=False)
    biases: list[np.ndarray] = field(repr=False)

    @property
    def full_dims(self) -> tuple[int, ...]:
        return self.encoder_dims + tuple(reversed(self.encoder_dims[:-1]))

    @property
    def input_dim(self) -> int:
        return self.encoder_dims[0]

    @property
    def latent_dim(self) -> int:
        return self.encoder_dims[-1]

    @property
    def n_encoder_layers(self) -> int:
        return len(self.encoder_dims) - 1


def _sigmoid_in_place(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows, even for wildly perturbed latents:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below
    ez = np.exp(-np.abs(z))
    return np.divide(np.where(z >= 0, 1.0, ez), 1.0 + ez, out=z)


def _activate_in_place(model: AutoencoderModel, layer: int, z: np.ndarray) -> np.ndarray:
    """The layer's activation applied to z in place; returns z."""
    n_layers = 2 * model.n_encoder_layers
    if layer == model.n_encoder_layers - 1:
        return z  # latent layer stays unbounded
    if layer == n_layers - 1:
        return _sigmoid_in_place(z)  # pixel range
    return np.tanh(z, out=z)


def _activation_grad(model: AutoencoderModel, layer: int, a: np.ndarray) -> np.ndarray:
    n_layers = 2 * model.n_encoder_layers
    if layer == model.n_encoder_layers - 1:
        return np.ones_like(a)
    if layer == n_layers - 1:
        return a * (1.0 - a)
    return 1.0 - a * a


def _forward(model: AutoencoderModel, x: np.ndarray, first: int, last: int) -> np.ndarray:
    """Rows of x through layers first..last-1, BLOCK_ROWS rows per product."""
    n = x.shape[0]
    out = np.empty((n, model.full_dims[last]))
    block = np.zeros((BLOCK_ROWS, x.shape[1]))
    for start in range(0, n, BLOCK_ROWS):
        rows = x[start : start + BLOCK_ROWS]
        block[: len(rows)] = rows
        block[len(rows) :] = 0.0
        a = block
        for layer in range(first, last):
            a = a @ model.weights[layer].T
            a += model.biases[layer]
            _activate_in_place(model, layer, a)
        out[start : start + len(rows)] = a[: len(rows)]
    return out


def _stack_rows(stack, width: int, what: str) -> np.ndarray:
    """A stack of arrays as float64 rows of `width` values each."""
    x = np.asarray(stack, dtype=np.float64)
    if x.ndim == 0 or x.size != len(x) * width:
        got = x.size // len(x) if x.ndim and len(x) else x.size
        raise ValueError(f"{what} has {got} values, model expects {width}")
    return x.reshape(len(x), width)


def encode_batch(model: AutoencoderModel, images) -> np.ndarray:
    """Latent rows of a stack of images; row i does not depend on the others."""
    x = _stack_rows(images, model.input_dim, "image")
    return _forward(model, x, 0, model.n_encoder_layers)


def decode_batch(model: AutoencoderModel, latents) -> np.ndarray:
    """Square images with pixels in (0, 1) from a stack of latent vectors."""
    z = _stack_rows(latents, model.latent_dim, "latent")
    flat = _forward(model, z, model.n_encoder_layers, 2 * model.n_encoder_layers)
    side = int(round(model.input_dim**0.5))
    return flat.reshape(len(z), side, side)


def encode(model: AutoencoderModel, image: np.ndarray) -> np.ndarray:
    """Map an image to its latent vector: encode_batch's row for it."""
    return encode_batch(model, [image])[0]


def decode(model: AutoencoderModel, latent: np.ndarray) -> np.ndarray:
    """Map a latent vector back to an image: decode_batch's image for it."""
    return decode_batch(model, [latent])[0]


def loss_and_gradients(model: AutoencoderModel, batch):
    """Reconstruction MSE and its gradients by backpropagation.

    Loss is the mean over batch entries and pixels of the squared
    reconstruction error. Returns (loss, weight_grads, bias_grads) with
    gradients shaped like the model parameters.
    """
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    x = _stack_rows(batch, model.input_dim, "image")
    n_layers = 2 * model.n_encoder_layers
    activations = [x]
    a = x
    for layer in range(n_layers):
        z = a @ model.weights[layer].T + model.biases[layer]
        a = _activate_in_place(model, layer, z)
        activations.append(a)
    recon = activations[-1]
    diff = recon - x
    loss = float(np.mean(diff * diff))

    weight_grads = [None] * n_layers
    bias_grads = [None] * n_layers
    delta = (2.0 / diff.size) * diff * _activation_grad(model, n_layers - 1, recon)
    for layer in range(n_layers - 1, -1, -1):
        weight_grads[layer] = delta.T @ activations[layer]
        bias_grads[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer]) * _activation_grad(
                model, layer - 1, activations[layer]
            )
    return loss, weight_grads, bias_grads


def init_model(
    encoder_dims,
    identity_len: int,
    seed: int,
    weight_init_scale: float = 1.0,
) -> AutoencoderModel:
    """Fresh model with uniform(+-scale/sqrt(fan_in)) weights, zero biases."""
    encoder_dims = tuple(int(d) for d in encoder_dims)
    if len(encoder_dims) < 2:
        raise ValueError("need at least input and latent dims")
    if not 1 <= identity_len <= encoder_dims[-1]:
        raise ValueError(
            f"identity_len {identity_len} outside [1, {encoder_dims[-1]}]"
        )
    full = encoder_dims + tuple(reversed(encoder_dims[:-1]))
    stream = make_stream(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(full[:-1], full[1:]):
        bound = weight_init_scale / np.sqrt(fan_in)
        u, stream = rng_uniform_batch(stream, fan_out * fan_in)
        weights.append((2.0 * bound) * u.reshape(fan_out, fan_in))
        biases.append(np.zeros(fan_out))
    return AutoencoderModel(
        encoder_dims=encoder_dims,
        identity_len=identity_len,
        weights=weights,
        biases=biases,
    )


def train(
    corpus, config: RunConfig, hidden_dims=DEFAULT_HIDDEN_DIMS
) -> tuple[AutoencoderModel, list[float]]:
    """Fit the autoencoder on a corpus of equal-sized images.

    Minibatch gradient descent with momentum; batch order is reshuffled
    each epoch from the seeded stream. The latent size, identity block,
    optimizer settings and seed come from the config. Returns the model and
    the per-epoch loss trace.
    """
    if len(corpus) == 0:
        raise ValueError("corpus must be nonempty")
    sides = {np.asarray(img).shape for img in corpus}
    if len(sides) != 1:
        raise ValueError(f"corpus images disagree in shape: {sorted(sides)}")
    d = int(np.prod(next(iter(sides))))
    model = init_model(
        (d, *hidden_dims, config.latent_dim),
        config.identity_len,
        config.seed,
        config.weight_init_scale,
    )
    x_all = np.stack([np.asarray(img, dtype=np.float64).reshape(-1) for img in corpus])
    n = x_all.shape[0]

    shuffle_stream = make_stream(config.seed, stream_id=1)
    vel_w = [np.zeros_like(w) for w in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]
    trace = []
    for epoch in range(config.epochs):
        u, shuffle_stream = rng_uniform_batch(shuffle_stream, n)
        order = np.argsort(u, kind="stable")
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, gw, gb = loss_and_gradients(model, x_all[idx])
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss {loss} at epoch {epoch}, batch offset {start}; "
                    "reduce learning_rate"
                )
            epoch_loss += loss * len(idx)
            for layer in range(len(model.weights)):
                vel_w[layer] = config.momentum * vel_w[layer] - config.learning_rate * gw[layer]
                vel_b[layer] = config.momentum * vel_b[layer] - config.learning_rate * gb[layer]
                model.weights[layer] = model.weights[layer] + vel_w[layer]
                model.biases[layer] = model.biases[layer] + vel_b[layer]
        trace.append(epoch_loss / n)
    return model, trace


def align_identity_basis(
    model: AutoencoderModel,
    corpus,
    identity_labels,
    within_reg: float = 0.01,
) -> AutoencoderModel:
    """Rebase the latent space so leading coordinates discriminate identity.

    Applies an exact invertible reparameterization z' = A (z - mu): the
    encoder's latent layer absorbs (A, -A mu) and the decoder's first layer
    absorbs (A^-1, +mu), so decode(encode(x)) is unchanged up to float
    rounding. A whitens the pooled within-identity scatter (ridge-regularized
    by ``within_reg`` times its mean eigenvalue) and then rotates onto the
    eigenbasis of the between-identity scatter, largest ratio first. After
    alignment the first ``identity_len`` latent coordinates are the most
    identity-related directions, and within-identity variation has roughly
    unit scale per coordinate.
    """
    labels = np.asarray(identity_labels)
    if len(labels) != len(corpus):
        raise ValueError("identity_labels must match corpus length")
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValueError("need at least 2 identities to align the basis")
    z = encode_batch(model, corpus)
    m = model.latent_dim
    mu = z.mean(axis=0)
    zc = z - mu
    s_within = np.zeros((m, m))
    s_between = np.zeros((m, m))
    for ident in classes:
        rows = zc[labels == ident]
        center = rows.mean(axis=0)
        d = rows - center
        s_within += d.T @ d
        s_between += rows.shape[0] * np.outer(center, center)
    denom_w = max(len(corpus) - classes.size, 1)
    s_within /= denom_w
    s_between /= classes.size - 1

    ridge = within_reg * np.trace(s_within) / m
    if ridge <= 0.0:
        ridge = 1e-12
    w_mat = s_within + ridge * np.eye(m)
    w_mat = (w_mat + w_mat.T) / 2.0
    wl, p = np.linalg.eigh(w_mat)
    whiten = np.diag(wl**-0.5) @ p.T
    mixed = whiten @ s_between @ whiten.T
    mixed = (mixed + mixed.T) / 2.0
    v = np.linalg.eigh(mixed)[1][:, ::-1]  # eigh sorts ascending
    a = v.T @ whiten
    a_inv = p @ np.diag(wl**0.5) @ v

    n_enc = model.n_encoder_layers
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    weights[n_enc - 1] = a @ weights[n_enc - 1]
    biases[n_enc - 1] = a @ (biases[n_enc - 1] - mu)
    biases[n_enc] = biases[n_enc] + weights[n_enc] @ mu
    weights[n_enc] = weights[n_enc] @ a_inv
    return AutoencoderModel(
        encoder_dims=model.encoder_dims,
        identity_len=model.identity_len,
        weights=weights,
        biases=biases,
    )


def save_model(model: AutoencoderModel, path) -> None:
    """Little-endian binary: magic, version, encoder dims, identity_len, params."""
    with open(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<II", MODEL_VERSION, len(model.encoder_dims)))
        f.write(struct.pack(f"<{len(model.encoder_dims)}I", *model.encoder_dims))
        f.write(struct.pack("<I", model.identity_len))
        for w, b in zip(model.weights, model.biases):
            f.write(w.astype("<f8").tobytes(order="C"))
            f.write(b.astype("<f8").tobytes(order="C"))


def load_model(path) -> AutoencoderModel:
    """Read a model file; its parameters are views into one writable buffer.

    A view that does not fall on an 8-byte boundary (the header of an odd
    number of encoder dims ends mid-word) is copied, since BLAS rounds
    unaligned operands differently.
    """
    with open(path, "rb") as f:
        blob = bytearray(os.fstat(f.fileno()).st_size)
        del blob[f.readinto(blob) :]
    if blob[:4] != MODEL_MAGIC:
        raise BadMagicError(f"bad magic {bytes(blob[:4])!r}, expected {MODEL_MAGIC!r}")
    offset = 4

    def take(n: int) -> int:
        """Claim the next n bytes; returns their offset."""
        nonlocal offset
        if offset + n > len(blob):
            raise TruncatedError(
                f"model file ends at byte {len(blob)}, needed {offset + n}"
            )
        offset += n
        return offset - n

    def params(*shape: int) -> np.ndarray:
        count = math.prod(shape)
        a = np.frombuffer(blob, dtype="<f8", count=count, offset=take(8 * count))
        return (a if a.flags.aligned else a.copy()).reshape(shape)

    version, n_dims = struct.unpack_from("<II", blob, take(8))
    if version != MODEL_VERSION:
        raise VersionError(f"unsupported model version {version}")
    if n_dims < 2:
        raise TruncatedError(f"model needs >= 2 encoder dims, found {n_dims}")
    encoder_dims = struct.unpack_from(f"<{n_dims}I", blob, take(4 * n_dims))
    (identity_len,) = struct.unpack_from("<I", blob, take(4))
    full = encoder_dims + tuple(reversed(encoder_dims[:-1]))
    weights = []
    biases = []
    for fan_in, fan_out in zip(full[:-1], full[1:]):
        weights.append(params(fan_out, fan_in))
        biases.append(params(fan_out))
    if offset != len(blob):
        raise TruncatedError(f"{len(blob) - offset} unexpected trailing bytes")
    return AutoencoderModel(
        encoder_dims=encoder_dims,
        identity_len=int(identity_len),
        weights=weights,
        biases=biases,
    )

