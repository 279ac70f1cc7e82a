"""Learned image maps: encoder to latent space and decoder back to pixels.

A fully-connected autoencoder (tanh hidden layers, identity latent layer,
sigmoid output layer) trained with minibatch gradient descent plus momentum.
Training, on one thread or two (see train), runs in TRAIN_DTYPE and is a
pure function of (corpus, config), bit for bit. It keeps every parameter in one
flat buffer (the model's weights and biases are views of it) beside one
velocity and one gradient buffer of the same layout, and updates them a
chunk at a time. Each step writes its activations, deltas and gradients
into a workspace allocated once per batch height. encode/decode run a stack
in zero-padded passes of up to PASS_ROWS rows, through each layer in turn:
a wide layer as one product over the pass's rows rounded up to a multiple
of WIDE_ROWS and at least BLOCK_ROWS, a narrow one as BLOCK_ROWS-row
products, so a row's bits do not depend on the stack it came in (see
BLOCK_ROWS). A pass writes every layer's product, bias and activation into
a fresh block of its own (the output sigmoid, (1 + tanh(z/2)) / 2, needs no
scratch), so encode and decode are safe to share across threads. _Helper is
the program's one worker thread, and this module starts every thread the
program runs: train's, and the sweep's pass schedule
(_decode_encode_passes), whose encoder reads each pass's images where the
decoder left them. The helper calls private helpers only: public functions
run on the calling thread, since a tracer that wraps them keeps one span
stack.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .data import write_file
from .errors import BadMagicError, FormatError, TrainingError, TruncatedError, VersionError
from .numerics import make_stream, rng_uniform_rows

MODEL_MAGIC = b"DPIM"
MODEL_VERSION = 1

DEFAULT_HIDDEN_DIMS = (256, 64)

# OpenBLAS rounds a row of a matrix product differently at different
# matrix heights: a 1-row product (GEMV), small and large ones differ in the
# last bits. A product with few outputs (fan_out times height up to about
# 1200) goes to OpenBLAS's small-matrix kernel, whose bits change with any
# change of height, so a layer of fewer than WIDE_OUT outputs runs as
# BLOCK_ROWS-row products over the pass padded to a multiple of BLOCK_ROWS.
# A product of at least WIDE_OUT outputs gives each row the same bits at
# every height that is a multiple of WIDE_ROWS and at least BLOCK_ROWS:
# measured against a 256-row product at every height from 1 to 130, for
# 128 to 1024 outputs, under OPENBLAS_CORETYPE Haswell (which changes bits
# only at odd heights) and SkylakeX (only below 10 rows), by
# scripts/probe_row_bits.py. So a wide layer runs as one product over
# max(BLOCK_ROWS, rows rounded up to WIDE_ROWS) rows: every row gets the same
# bits whatever its position or batch mates.
BLOCK_ROWS = 16
WIDE_OUT = 128
WIDE_ROWS = 4
# Rows per forward pass: a wide product runs about twice as fast at 64 rows
# as at 16, and the pass's activations stay small.
PASS_ROWS = 64

# ridge on the within-identity scatter in the basis alignment, as a fraction
# of its mean eigenvalue
WITHIN_REG = 0.01

# train's dtype: its batches, so a row's place in each product, are fixed by
# (config, seed). A release's depend on its batch mates: inference is float64.
TRAIN_DTYPE = np.dtype(np.float32)

# Values per pass of train's momentum update: the chunk of the velocity,
# gradient and parameter buffers stays in cache across the update's four ops.
UPDATE_CHUNK = 32768


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
    def side(self) -> int:  # images are side x side
        return int(round(self.input_dim**0.5))

    @property
    def latent_dim(self) -> int:
        return self.encoder_dims[-1]

    @property
    def n_encoder_layers(self) -> int:
        return len(self.encoder_dims) - 1


def _sigmoid_in_place(z: np.ndarray) -> np.ndarray:
    # sigmoid(z) = (1 + tanh(z / 2)) / 2: tanh never overflows, even for
    # wildly perturbed latents, so no select or scratch; NaN propagates
    z *= 0.5
    np.tanh(z, out=z)
    z += 1.0
    z *= 0.5
    return z


def _activate_in_place(model: AutoencoderModel, layer: int, z: np.ndarray) -> np.ndarray:
    """The layer's activation applied to z in place; returns z."""
    n_layers = 2 * model.n_encoder_layers
    if layer == model.n_encoder_layers - 1:
        return z  # latent layer stays unbounded
    if layer == n_layers - 1:
        return _sigmoid_in_place(z)  # pixel range
    return np.tanh(z, out=z)


def _run_pass(model: AutoencoderModel, layers, a: np.ndarray, n: int) -> np.ndarray:
    """The block a, whose first n rows (at most one pass) hold the pass's
    input and the rest zeros up to a multiple of BLOCK_ROWS, through the
    given layers; returns the last layer's block, of a's height.

    Each layer writes its product, bias and activation into a fresh block. A
    wide layer runs over the first max(BLOCK_ROWS, n rounded up to WIDE_ROWS)
    rows only and zeroes the rest of its block, which only a narrow layer's
    padding reads; a narrow layer runs BLOCK_ROWS-row blocks over the whole
    height (see BLOCK_ROWS). So no layer reads memory no layer has written.
    """
    height, wide = len(a), max(BLOCK_ROWS, n + -n % WIDE_ROWS)
    for layer in layers:
        w = model.weights[layer]
        block = np.empty((height, len(w)))
        if len(w) >= WIDE_OUT:
            z = block[:wide]
            np.matmul(a[:wide], w.T, out=z)
            block[wide:] = 0.0
        else:
            z = block
            for lo in range(0, height, BLOCK_ROWS):
                np.matmul(a[lo : lo + BLOCK_ROWS], w.T, out=z[lo : lo + BLOCK_ROWS])
        z += model.biases[layer]
        _activate_in_place(model, layer, z)
        a = block
    return a


def _padded(rows: np.ndarray) -> np.ndarray:
    """rows and zero rows up to a multiple of BLOCK_ROWS, as _run_pass takes them."""
    a = np.zeros((len(rows) + -len(rows) % BLOCK_ROWS, rows.shape[1]))
    a[: len(rows)] = rows
    return a


def _forward(model: AutoencoderModel, x: np.ndarray, encoder: bool) -> np.ndarray:
    """Rows of x through the encoder or the decoder, one pass at a time."""
    n_enc = model.n_encoder_layers
    layers = range(n_enc) if encoder else range(n_enc, 2 * n_enc)
    out = np.empty((len(x), model.full_dims[layers[-1] + 1]))
    for start in range(0, len(x), PASS_ROWS):
        rows = x[start : start + PASS_ROWS]
        n = len(rows)
        out[start : start + n] = _run_pass(model, layers, _padded(rows), n)[:n]
    return out


def _stack_rows(stack, width: int, what: str, dtype=np.float64) -> np.ndarray:
    """A stack of arrays as rows of `width` values of dtype each."""
    x = np.asarray(stack, dtype=dtype)
    if x.ndim == 0 or x.size != len(x) * width:
        got = x.size // len(x) if x.ndim and len(x) else x.size
        raise ValueError(f"{what} has {got} values, model expects {width}")
    return x.reshape(len(x), width)


def encode_batch(model: AutoencoderModel, images) -> np.ndarray:
    """Latent rows of a stack of side x side images, or of flat input_dim rows;
    row i does not depend on the others."""
    x = np.asarray(images, dtype=np.float64)
    if x.ndim > 2 and x.shape[-2:] != (model.side, model.side):
        expected = f"{model.side}x{model.side}"
        raise ValueError(f"image is {x.shape[-1]}x{x.shape[-2]}, model expects {expected}")
    return _forward(model, _stack_rows(x, model.input_dim, "image"), True)


def decode_batch(model: AutoencoderModel, latents) -> np.ndarray:
    """Square images with pixels in (0, 1) from a stack of latent vectors."""
    z = _stack_rows(latents, model.latent_dim, "latent")
    return _forward(model, z, False).reshape(len(z), model.side, model.side)


def encode(model: AutoencoderModel, image: np.ndarray) -> np.ndarray:
    """Map an image to its latent vector: encode_batch's row for it."""
    return encode_batch(model, [image])[0]


def decode(model: AutoencoderModel, latent: np.ndarray) -> np.ndarray:
    """Map a latent vector back to an image: decode_batch's image for it."""
    return decode_batch(model, [latent])[0]


class _Helper(threading.Thread):
    """The program's one worker thread: runs each task handed to submit, in
    order, or inline at submit if not started; wait raises a task's error. As
    a context manager it starts given a second CPU (of sched_getaffinity, or
    os.cpu_count() where that is absent) and joins once its last task ends."""

    def __init__(self):
        super().__init__(daemon=True)
        self.error, self.posted, self.idle = None, threading.Lock(), threading.Lock()
        self.posted.acquire()  # released once per task posted; idle is held while one runs

    def run(self) -> None:
        while self.posted.acquire() and self.task[0]:
            try:
                self.task[0](*self.task[1:])
            except BaseException as exc:  # raised on the calling thread by wait
                self.error = exc
            self.idle.release()

    def __enter__(self) -> _Helper:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        if cpus > 1:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        if self.is_alive():
            self.submit(None)  # ends its loop once the task before has finished
            self.join()

    def submit(self, fn, *args) -> None:
        if not self.is_alive():
            return fn(*args)
        self.idle.acquire()  # the task before has finished
        self.task = (fn, *args)
        self.posted.release()

    def wait(self) -> None:
        with self.idle:
            if self.error:
                raise self.error


def _decode_encode_passes(model: AutoencoderModel, z: np.ndarray, score) -> None:
    """Decode latent rows z a pass of PASS_ROWS rows at a time, encode each
    pass's images from the decoder's block where they lie, and call
    score(start, images, latents) on views, valid during the call, of the
    rows from start on, with the bits of decode_batch, then encode_batch.
    Given a second CPU and more than one pass, a _Helper takes the odd passes
    as one task, the calling thread the even ones; a pass's blocks are freed
    before the next pass allocates its own. score runs under one lock, on
    either thread, so it calls private helpers only. A helper error stops the
    calling thread at its next pass and is raised by the helper's wait; a
    calling thread error, once the helper joins.
    """
    passes, n_enc = range(0, len(z), PASS_ROWS), model.n_encoder_layers
    scoring = threading.Lock()
    with _Helper() as helper:
        workers = 2 if helper.is_alive() and len(passes) > 1 else 1

        def work(worker: int) -> None:
            for start in passes[worker::workers]:
                if helper.error:
                    return
                rows = z[start : start + PASS_ROWS]
                n = len(rows)
                images = _run_pass(model, range(n_enc, 2 * n_enc), _padded(rows), n)
                latents = _run_pass(model, range(n_enc), images, n)
                with scoring:
                    score(start, images[:n].reshape(n, model.side, model.side), latents[:n])
                del images, latents

        if workers > 1:
            helper.submit(work, 1)
        work(0)
        helper.wait()


class _Workspace:
    """The buffers of one training step at one batch height.

    Per layer: its activations and the loss gradient at its pre-activation
    (delta); one output-sized scratch; all in the weights' dtype. Gradients
    are views of a fresh flat buffer unless train's is passed, as is its _Helper.
    """

    def __init__(self, model: AutoencoderModel, height: int, grads=None, helper=None):
        widths, dtype = model.full_dims[1:], model.weights[0].dtype
        self.acts = [np.empty((height, w), dtype) for w in widths]
        self.deltas = [np.empty((height, w), dtype) for w in widths]
        self.scratch = np.empty((height, widths[-1]), dtype)
        if grads is None:
            grads = np.empty(_param_count(model.full_dims), dtype)
        self.weight_grads, self.bias_grads = _param_views(grads, model.full_dims)
        self.helper = helper or _Helper()


def _layer_gradients(ws: _Workspace, layer: int, a: np.ndarray) -> None:
    """The loss gradients of a layer's weights and biases, from its delta and its input a."""
    delta = ws.deltas[layer]
    np.matmul(delta.T, a, out=ws.weight_grads[layer])
    np.sum(delta, axis=0, out=ws.bias_grads[layer])


def loss_and_gradients(model: AutoencoderModel, batch, *, workspace: _Workspace | None = None):
    """Reconstruction MSE and its gradients by backpropagation.

    Loss is the mean over batch entries and pixels of the squared
    reconstruction error, in the weights' dtype. Returns (loss, weight_grads,
    bias_grads) with gradients shaped like the parameters. Without a workspace
    every call returns fresh arrays; with one (train's, of the batch's height)
    they are the workspace's, overwritten by its next step.
    """
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    x = _stack_rows(batch, model.input_dim, "image", model.weights[0].dtype)
    ws = _Workspace(model, len(x)) if workspace is None else workspace
    top = len(ws.acts) - 1
    a = x
    for layer, out in enumerate(ws.acts):
        if layer == top:
            ws.helper.wait()  # train's update of the top layer, run beside the layers below
        np.matmul(a, model.weights[layer].T, out=out)
        out += model.biases[layer]
        a = _activate_in_place(model, layer, out)
    diff, gate = ws.deltas[-1], ws.scratch
    np.subtract(a, x, out=diff)
    loss = float(np.mean(np.multiply(diff, diff, out=gate)))

    # delta = ((2 / size) * diff) * (recon * (1 - recon)): the model's bits
    # depend on this rounding order
    np.subtract(1.0, a, out=gate)
    gate *= a
    diff *= 2.0 / diff.size
    diff *= gate
    latent = model.n_encoder_layers - 1
    for layer in range(top, -1, -1):
        delta = ws.deltas[layer]
        a = ws.acts[layer - 1] if layer > 0 else x
        if layer == top:  # on the helper, beside the delta product below
            ws.helper.submit(_layer_gradients, ws, layer, a)
        else:
            _layer_gradients(ws, layer, a)
        if layer > 0:
            below = np.matmul(delta, model.weights[layer], out=ws.deltas[layer - 1])
            ws.helper.wait()  # the top layer's gradients read a
            if layer - 1 != latent:  # the identity latent layer's derivative is 1
                # tanh' = 1 - a * a, in a's buffer: nothing below reads a again
                np.multiply(a, a, out=a)
                np.subtract(1.0, a, out=a)
                below *= a
    return loss, ws.weight_grads, ws.bias_grads


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
    # weights and biases are views of one flat buffer, laid out as w0, b0, w1, ...
    weights, biases = _param_views(np.zeros(_param_count(full)), full)
    # each layer's weights are the next w.size draws of stream 0, drawn
    # PASS_ROWS rows at a time to bound the draw's temporaries
    state, offset = make_stream(seed), 0
    for w in weights:
        bound = weight_init_scale / np.sqrt(w.shape[1])
        for lo in range(0, len(w), PASS_ROWS):
            rows = w[lo : lo + PASS_ROWS]
            rows[:] = rng_uniform_rows(state, rows.size, offset + lo * w.shape[1]).reshape(rows.shape)
            rows *= 2.0 * bound
        offset += w.size
    return AutoencoderModel(encoder_dims, identity_len, weights, biases)


def train(
    corpus, config: RunConfig, hidden_dims=DEFAULT_HIDDEN_DIMS
) -> tuple[AutoencoderModel, list[float]]:
    """Fit the autoencoder on a corpus of equal-sized square images.

    Minibatch gradient descent with momentum; batch order is reshuffled
    each epoch from the seeded stream. The latent size, identity block,
    optimizer settings and seed come from the config. Every step runs in
    TRAIN_DTYPE, from init_model's parameters cast once. Returns the model,
    cast to float64 once the training buffers are freed, and the per-epoch
    loss trace. Given a second CPU, a helper thread takes the top layer's
    gradients, half of the update below the top layer and the top layer's
    update, each beside work that does not read what it writes and as the
    same whole calls, so the model's bytes do not move.
    """
    if len(corpus) == 0:
        raise ValueError("corpus must be nonempty")
    d = int(np.prod(np.shape(corpus[0])))
    if np.shape(corpus[0]) != (round(d**0.5),) * 2:  # the decoder's images are square
        raise ValueError(f"image shape {np.shape(corpus[0])} is not square")
    dims = (d, *hidden_dims, config.latent_dim)
    model = init_model(dims, config.identity_len, config.seed, config.weight_init_scale)
    # parameters (init_model's flat buffer, cast), velocity and gradients each
    # in one buffer of one layout; the model's and the workspaces' arrays are views
    params = model.weights[0].base.astype(TRAIN_DTYPE)
    model.weights, model.biases = _param_views(params, model.full_dims)
    x_all = _stack_rows(corpus, d, "image", TRAIN_DTYPE)
    n = x_all.shape[0]

    velocity = np.zeros_like(params)
    grads = np.empty_like(params)
    batch = config.batch_size
    n_below = params.size - model.weights[-1].size - model.biases[-1].size  # below the top layer
    front, back, last = (
        [tuple(b[i : min(i + UPDATE_CHUNK, hi)] for b in (velocity, grads, params))
         for i in range(lo, hi, UPDATE_CHUNK)]
        for lo, hi in ((0, n_below // 2), (n_below // 2, n_below), (n_below, params.size))
    )

    shuffle_state = make_stream(config.seed, stream_id=1)
    trace = []
    with _Helper() as helper:
        workspaces = {h: _Workspace(model, h, grads, helper) for h in {min(batch, n), n % batch or batch}}
        for epoch in range(config.epochs):
            # epoch e's order sorts draws e*n+1 ... (e+1)*n of stream 1
            order = np.argsort(rng_uniform_rows(shuffle_state, n, epoch * n)[0], kind="stable")
            epoch_loss = 0.0
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                loss = loss_and_gradients(model, x_all[idx], workspace=workspaces[len(idx)])[0]
                if not np.isfinite(loss):
                    where = f"at epoch {epoch}, batch offset {start}"
                    raise TrainingError(f"non-finite loss {loss} {where}; reduce learning_rate")
                epoch_loss += loss * len(idx)
                helper.submit(_momentum_step, back, config)
                _momentum_step(front, config)
                helper.wait()
                helper.submit(_momentum_step, last, config)
            trace.append(epoch_loss / n)
        helper.wait()
    del velocity, grads, front, back, last, workspaces
    model.weights, model.biases = _param_views(params.astype(np.float64), model.full_dims)
    return model, trace


def _momentum_step(chunks, config: RunConfig) -> None:
    # v = mu * v - lr * g; p = p + v, in place: each value rounds the same; a
    # chunk of all three buffers stays in cache for the four ops
    for v, g, p in chunks:
        v *= config.momentum
        g *= config.learning_rate
        v -= g
        p += v


def _param_count(full_dims) -> int:
    return sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(full_dims, full_dims[1:]))


def _param_views(flat: np.ndarray, full_dims) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Weights and biases of a chain of dims as views of one flat buffer."""
    weights, biases, offset = [], [], 0
    for fan_in, fan_out in zip(full_dims[:-1], full_dims[1:]):
        weights.append(flat[offset : offset + fan_out * fan_in].reshape(fan_out, fan_in))
        offset += fan_out * fan_in
        biases.append(flat[offset : offset + fan_out])
        offset += fan_out
    return weights, biases


def align_identity_basis(model: AutoencoderModel, corpus, identity_labels) -> AutoencoderModel:
    """Rebase the latent space so leading coordinates discriminate identity.

    Applies an exact invertible reparameterization z' = A (z - mu): the
    encoder's latent layer absorbs (A, -A mu) and the decoder's first layer
    absorbs (A^-1, +mu), so decode(encode(x)) is unchanged up to float
    rounding. A whitens the pooled within-identity scatter (ridge-regularized
    by ``WITHIN_REG`` times its mean eigenvalue) and then rotates onto the
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

    ridge = WITHIN_REG * np.trace(s_within) / m
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
    # the two rebased layers get new arrays; the others are shared, not copied
    weights, biases = list(model.weights), list(model.biases)
    weights[n_enc - 1] = a @ weights[n_enc - 1]
    biases[n_enc - 1] = a @ (biases[n_enc - 1] - mu)
    biases[n_enc] = biases[n_enc] + weights[n_enc] @ mu
    weights[n_enc] = weights[n_enc] @ a_inv
    return AutoencoderModel(model.encoder_dims, model.identity_len, weights, biases)


def save_model(model: AutoencoderModel, path) -> None:
    """Little-endian binary: magic, version, encoder dims, identity_len, params."""
    dims = model.encoder_dims
    header = struct.pack(f"<{len(dims) + 3}I", MODEL_VERSION, len(dims), *dims, model.identity_len)
    # row-major, each array copied only if it is not, and written where it lies
    arrays = [np.ascontiguousarray(a, "<f8") for p in zip(model.weights, model.biases) for a in p]
    write_file(path, MODEL_MAGIC + header, *arrays)


def load_model(path) -> AutoencoderModel:
    """Read a model file; its parameters are views of one flat writable buffer,
    laid out as init_model's.

    A buffer that does not fall on an 8-byte boundary (the header of an odd
    number of encoder dims ends mid-word) is copied, since BLAS rounds
    unaligned operands differently.
    """
    with open(path, "rb") as f:
        blob = memoryview(np.empty(os.fstat(f.fileno()).st_size, np.uint8))
        blob = blob[: f.readinto(blob)]
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

    version, n_dims = struct.unpack_from("<II", blob, take(8))
    if version != MODEL_VERSION:
        raise VersionError(f"unsupported model version {version}")
    if n_dims < 2:
        raise TruncatedError(f"model needs >= 2 encoder dims, found {n_dims}")
    encoder_dims = struct.unpack_from(f"<{n_dims}I", blob, take(4 * n_dims))
    (identity_len,) = struct.unpack_from("<I", blob, take(4))
    if not 1 <= identity_len <= encoder_dims[-1]:
        raise FormatError(f"identity_len {identity_len} outside [1, {encoder_dims[-1]}]")
    full = encoder_dims + tuple(reversed(encoder_dims[:-1]))
    count = _param_count(full)
    flat = np.frombuffer(blob, dtype="<f8", count=count, offset=take(8 * count))
    if offset != len(blob):
        raise TruncatedError(f"{len(blob) - offset} unexpected trailing bytes")
    weights, biases = _param_views(flat if flat.flags.aligned else flat.copy(), full)
    return AutoencoderModel(encoder_dims, int(identity_len), weights, biases)

