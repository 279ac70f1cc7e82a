import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from dpimage import codec
from dpimage.codec import (
    BLOCK_ROWS,
    PASS_ROWS,
    WIDE_OUT,
    PassWorkspace,
    _activate_in_place,
    _decode_encode_pass,
    _run_pass,
    _sigmoid_in_place,
    align_identity_basis,
    decode,
    decode_batch,
    encode,
    encode_batch,
    init_model,
    load_model,
    loss_and_gradients,
    save_model,
    train,
)
from dpimage.config import RunConfig
from dpimage.data import generate_corpus
from dpimage.errors import (
    BadMagicError,
    ConfigError,
    FormatError,
    TrainingError,
    TruncatedError,
    VersionError,
)
from dpimage.numerics import make_stream, rng_uniform_rows


def small_corpus(n=12, side=8, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(0.0, 1.0, size=(side, side)) for _ in range(n)]


def models_equal(a, b):
    """Exact equality of dims, identity block and every parameter."""
    return (
        a.encoder_dims == b.encoder_dims
        and a.identity_len == b.identity_len
        and len(a.weights) == len(b.weights)
        and all(np.array_equal(x, y) for x, y in zip(a.weights + a.biases, b.weights + b.biases))
    )


def zero_model(encoder_dims=(64, 16, 8), identity_len=4):
    model = init_model(encoder_dims, identity_len, seed=0)
    for w in model.weights:
        w[:] = 0.0
    return model


def block_forward(model, x, first, last):
    """Rows of x through layers first..last-1, every layer as BLOCK_ROWS-row
    products of one zero-padded block at a time, as a reference."""
    out = np.empty((len(x), model.full_dims[last]))
    block = np.zeros((BLOCK_ROWS, x.shape[1]))
    for start in range(0, len(x), BLOCK_ROWS):
        rows = x[start : start + BLOCK_ROWS]
        block[: len(rows)] = rows
        block[len(rows) :] = 0.0
        a = block
        for layer in range(first, last):
            z = a @ model.weights[layer].T + model.biases[layer]
            a = _activate_in_place(model, layer, z, np.empty_like(z))
        out[start : start + len(rows)] = a[: len(rows)]
    return out


class TestBatchForward:
    """Rows of a batch carry the bits of the single-image calls."""

    def setup_method(self):
        self.model = init_model((1024, 256, 64, 32), 12, seed=5, weight_init_scale=2.0)
        rng = np.random.default_rng(5)
        self.images = rng.uniform(0.0, 1.0, size=(500, 32, 32))
        self.latents = rng.normal(0.0, 3.0, size=(500, 32))

    @pytest.mark.parametrize("height", [0, 1, 2, 15, 16, 17, 20, 63, 64, 65, 100, 128, 129, 500])
    def test_rows_equal_single_calls(self, height):
        enc = encode_batch(self.model, self.images[:height])
        dec = decode_batch(self.model, self.latents[:height])
        assert enc.shape == (height, 32) and dec.shape == (height, 32, 32)
        for i in range(height):
            assert np.array_equal(enc[i], encode(self.model, self.images[i]))
            assert np.array_equal(dec[i], decode(self.model, self.latents[i]))

    # the second model's widths sit on both sides of WIDE_OUT
    @pytest.mark.parametrize("dims", [(1024, 256, 64, 32), (1024, WIDE_OUT, 100)])
    def test_bits_equal_block_reference(self, dims):
        # every stack height through 130, wide products running at every
        # multiple of WIDE_ROWS from BLOCK_ROWS; the reference's rows do not
        # depend on the stack's height, so one serves every prefix
        model = init_model(dims, 12, seed=6, weight_init_scale=2.0)
        rng = np.random.default_rng(6)
        x = rng.uniform(0.0, 1.0, size=(300, dims[0]))
        z = rng.normal(0.0, 3.0, size=(300, dims[-1]))
        n_enc = model.n_encoder_layers
        ref_enc = block_forward(model, x, 0, n_enc).view(np.uint64)
        ref_dec = block_forward(model, z, n_enc, 2 * n_enc).view(np.uint64)
        for height in [*range(1, 131), 300]:
            enc = encode_batch(model, x[:height])
            dec = decode_batch(model, z[:height]).reshape(height, -1)
            assert np.array_equal(enc.view(np.uint64), ref_enc[:height]), height
            assert np.array_equal(dec.view(np.uint64), ref_dec[:height]), height

    @pytest.mark.parametrize("dims", [(1024, 256, 64, 32), (1024, WIDE_OUT, 100)])
    def test_reused_workspace_bits_equal_block_reference(self, dims):
        # one decoder-then-encoder workspace through passes of every shape, as
        # a sweep worker holds it: the encoder reads the decoder's output in
        # place, and a row's bits must not see the previous pass's. Each pass
        # starts from buffers of inf, so a pass that reads anything it did not
        # write shows in the bits or raises a RuntimeWarning.
        model = init_model(dims, 12, seed=7, weight_init_scale=2.0)
        z = np.random.default_rng(7).normal(0.0, 3.0, size=(PASS_ROWS, dims[-1]))
        n_enc = model.n_encoder_layers
        ws = PassWorkspace(model, decoder=True, encoder=True)
        for height in (64, 20, 36, 1, 52, 64, 17, 16):
            for buf in [ws.input, *ws.acts, ws.scratch]:
                buf.fill(np.inf)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                images, latents = _decode_encode_pass(model, z[:height], ws)
            ref_images = decode_batch(model, z[:height])
            ref_latents = encode_batch(model, ref_images)
            assert np.array_equal(images.view(np.uint64), ref_images.view(np.uint64))
            assert np.array_equal(latents.view(np.uint64), ref_latents.view(np.uint64))
            flat = images.reshape(height, -1)
            block_images = block_forward(model, z[:height], n_enc, 2 * n_enc)
            assert np.array_equal(flat.view(np.uint64), block_images.view(np.uint64))
            block_latents = block_forward(model, flat, 0, n_enc)
            assert np.array_equal(latents.view(np.uint64), block_latents.view(np.uint64))
        assert len(ws.input) == PASS_ROWS

    @pytest.mark.parametrize("dims", [(1024, 256, 64, 32), (1024, WIDE_OUT, 100)])
    @pytest.mark.parametrize("decoder", [False, True])
    def test_pass_reads_no_row_it_did_not_write(self, dims, decoder):
        # an encoder or decoder workspace, as encode_batch and decode_batch
        # build, filled with inf before each pass: a narrow layer reading
        # padding rows that the wide layer before it skipped and did not
        # zero would raise a RuntimeWarning from matmul (inf times weights)
        model = init_model(dims, 12, seed=8, weight_init_scale=2.0)
        rng = np.random.default_rng(8)
        x = rng.normal(0.0, 3.0, size=(PASS_ROWS, dims[-1] if decoder else dims[0]))
        forward = decode_batch if decoder else encode_batch
        ws = PassWorkspace(model, decoder=decoder, encoder=not decoder)
        for height in (64, 20, 36, 1, 52, 64):
            for buf in [ws.input, *ws.acts, *[ws.scratch] * decoder]:
                buf.fill(np.inf)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                out = _run_pass(model, ws, x[:height])[:height]
            ref = forward(model, x[:height]).reshape(height, -1)
            assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))

    def test_shuffled_batch_mates(self):
        enc = encode_batch(self.model, self.images)
        dec = decode_batch(self.model, self.latents)
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(100)[: 37 + seed]
            assert np.array_equal(encode_batch(self.model, self.images[order]), enc[order])
            assert np.array_equal(decode_batch(self.model, self.latents[order]), dec[order])

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            encode_batch(self.model, np.zeros((3, 16, 16)))
        with pytest.raises(ValueError):
            decode_batch(self.model, np.zeros((3, 31)))

    def test_image_of_another_shape_rejected(self):
        # 16x64 holds the model's 1024 values, but it is not a 32x32 image;
        # the same pixels as flat rows still encode as the square stack does
        pixels = self.images[:2]
        with pytest.raises(ValueError, match="image is 64x16, model expects 32x32"):
            encode_batch(self.model, pixels.reshape(2, 16, 64))
        rows = encode_batch(self.model, pixels.reshape(2, 1024))
        assert np.array_equal(rows.view(np.uint64), encode_batch(self.model, pixels).view(np.uint64))


class TestForward:
    def test_encode_deterministic(self):
        model = init_model((64, 16, 8), 4, seed=1)
        x = small_corpus(1)[0]
        assert np.array_equal(encode(model, x), encode(model, x))

    def test_zero_model_encodes_to_zero(self):
        model = zero_model()
        for x in small_corpus(3):
            assert np.array_equal(encode(model, x), np.zeros(8))

    def test_decode_deterministic(self):
        model = init_model((64, 16, 8), 4, seed=1)
        z = np.linspace(-2, 2, 8)
        assert np.array_equal(decode(model, z), decode(model, z))

    def test_zero_decoder_gives_half(self):
        model = zero_model()
        img = decode(model, np.zeros(8))
        assert np.allclose(img, 0.5)

    def test_decode_range(self):
        model = init_model((64, 16, 8), 4, seed=2)
        rng = np.random.default_rng(0)
        for _ in range(5):
            img = decode(model, rng.normal(0, 10, size=8))
            assert np.all(img > 0.0) and np.all(img < 1.0)

    def test_encode_finite_on_unit_inputs(self):
        model = init_model((64, 16, 8), 4, seed=3)
        for x in small_corpus(10, seed=5):
            assert np.all(np.isfinite(encode(model, x)))

    def test_init_weights_read_stream_0_in_order(self):
        # layer after layer, each weight matrix the next w.size draws of the
        # seed's stream 0, scaled to +-scale/sqrt(fan_in); biases zero
        model = init_model((64, 16, 8), 4, seed=4, weight_init_scale=1.5)
        sizes = [w.size for w in model.weights]
        u = np.split(rng_uniform_rows(make_stream(4), sum(sizes))[0], np.cumsum(sizes)[:-1])
        for w, draws in zip(model.weights, u):
            assert np.array_equal(w, 2.0 * (1.5 / np.sqrt(w.shape[1])) * draws.reshape(w.shape))
        assert all(not b.any() for b in model.biases)

    def test_dimension_mismatch(self):
        model = init_model((64, 16, 8), 4, seed=0)
        with pytest.raises(ValueError):
            encode(model, np.zeros((4, 4)))
        with pytest.raises(ValueError):
            decode(model, np.zeros(7))


class TestGradients:
    def central_difference(self, model, batch, arr, i, h=1e-5):
        flat = arr.reshape(-1)
        orig = flat[i]
        flat[i] = orig + h
        lp, _, _ = loss_and_gradients(model, batch)
        flat[i] = orig - h
        lm, _, _ = loss_and_gradients(model, batch)
        flat[i] = orig
        return (lp - lm) / (2.0 * h)

    def test_gradcheck_small_model(self):
        # 64 -> 16 -> 8 and mirror; sampled parameters in every layer.
        model = init_model((64, 16, 8), 4, seed=7)
        rng = np.random.default_rng(7)
        batch = rng.uniform(0.0, 1.0, size=(4, 8, 8))
        _, gw, gb = loss_and_gradients(model, batch)
        rel_errs = []
        for layer in range(len(model.weights)):
            for arr, grads in ((model.weights[layer], gw[layer]), (model.biases[layer], gb[layer])):
                flat = arr.reshape(-1)
                idxs = rng.choice(flat.size, size=min(25, flat.size), replace=False)
                for i in idxs:
                    num = self.central_difference(model, batch, arr, i)
                    ana = grads.reshape(-1)[i]
                    rel_errs.append(abs(num - ana) / max(abs(num), abs(ana), 1e-8))
        assert max(rel_errs) < 1e-4

    def test_perfect_reconstruction_zero_gradients(self):
        # constant-half batch is exactly reproduced by the all-zero model
        model = zero_model()
        batch = [np.full((8, 8), 0.5)]
        loss, gw, gb = loss_and_gradients(model, batch)
        assert loss == 0.0
        assert all(np.all(g == 0.0) for g in gw)
        assert all(np.all(g == 0.0) for g in gb)

    def test_duplicated_batch_same_loss(self):
        model = init_model((64, 16, 8), 4, seed=4)
        x = small_corpus(1)[0]
        la, _, _ = loss_and_gradients(model, [x])
        lb, _, _ = loss_and_gradients(model, [x, x])
        assert la == pytest.approx(lb, abs=1e-15)

    def test_empty_batch_rejected(self):
        model = init_model((64, 16, 8), 4, seed=0)
        with pytest.raises(ValueError):
            loss_and_gradients(model, [])


def where_sigmoid(z):
    """The output sigmoid with an explicit select, as a reference."""
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, ez) / (1.0 + ez)


def reference_step(model, x):
    """Loss and gradients of one batch by textbook backpropagation: every
    intermediate freshly allocated, the select sigmoid, gradients in fresh arrays."""
    n_layers = len(model.weights)
    latent = model.n_encoder_layers - 1
    acts = [x]
    for layer in range(n_layers):
        z = acts[-1] @ model.weights[layer].T + model.biases[layer]
        if layer == latent:
            acts.append(z)
        elif layer == n_layers - 1:
            acts.append(where_sigmoid(z))
        else:
            acts.append(np.tanh(z))
    recon = acts[-1]
    diff = recon - x
    loss = float(np.mean(diff * diff))
    gw, gb = [None] * n_layers, [None] * n_layers
    delta = (2.0 / diff.size) * diff * (recon * (1.0 - recon))
    for layer in range(n_layers - 1, -1, -1):
        gw[layer] = delta.T @ acts[layer]
        gb[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ model.weights[layer]
            if layer - 1 != latent:
                delta = delta * (1.0 - acts[layer] * acts[layer])
    return loss, gw, gb


def reference_train(corpus, cfg, hidden_dims):
    """train() written out of place from the textbook step, as a reference."""
    x_all = np.stack([img.reshape(-1) for img in corpus])
    n = len(x_all)
    dims = (x_all.shape[1], *hidden_dims, cfg.latent_dim)
    model = init_model(dims, cfg.identity_len, cfg.seed, cfg.weight_init_scale)
    vel_w = [np.zeros_like(w) for w in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]
    trace = []
    # each epoch sorts the next n draws of stream 1
    shuffles = rng_uniform_rows(make_stream(cfg.seed, stream_id=1), cfg.epochs * n).reshape(-1, n)
    for u in shuffles:
        order = np.argsort(u, kind="stable")
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, gw, gb = reference_step(model, x_all[idx])
            epoch_loss += loss * len(idx)
            for layer in range(len(model.weights)):
                vel_w[layer] = cfg.momentum * vel_w[layer] - cfg.learning_rate * gw[layer]
                vel_b[layer] = cfg.momentum * vel_b[layer] - cfg.learning_rate * gb[layer]
                model.weights[layer] = model.weights[layer] + vel_w[layer]
                model.biases[layer] = model.biases[layer] + vel_b[layer]
        trace.append(epoch_loss / n)
    return model, trace


class TestStep:
    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 800.0, -800.0,
               1e-300, -1e-300]

    def test_sigmoid_bits_equal_select_form(self):
        # the one-scratch form: the denominator overwrites z after its signs
        # are saved; whatever the scratch held before must not matter, and a
        # scratch of fewer rows than z runs z a block of rows at a time
        rng = np.random.default_rng(0)
        for z in [np.array(self.SPECIAL)] + [s * rng.normal(size=(32, 1024)) for s in (1, 10, 100)]:
            for fill, rows in ((np.nan, len(z)), (-np.inf, 5), (0.0, 16)):
                got = z.copy()
                assert _sigmoid_in_place(got, np.full_like(z[:rows], fill)) is got
                assert np.array_equal(got.view(np.uint64), where_sigmoid(z).view(np.uint64))

    @pytest.mark.parametrize("dims", [(64, 8), (64, 16, 8), (64, 32, 16, 8)])
    def test_step_bits_equal_textbook(self, dims):
        model = init_model(dims, 4, seed=2, weight_init_scale=2.0)
        x = np.random.default_rng(2).uniform(0.0, 1.0, size=(5, 64))
        loss, gw, gb = loss_and_gradients(model, x)
        ref_loss, ref_gw, ref_gb = reference_step(model, x)
        assert loss == ref_loss
        assert all(np.array_equal(a, b) for a, b in zip(gw + gb, ref_gw + ref_gb))

    def test_calls_without_workspace_share_no_memory(self):
        model = init_model((64, 16, 8), 4, seed=1)
        x = small_corpus(3)
        _, gw1, gb1 = loss_and_gradients(model, x)
        _, gw2, gb2 = loss_and_gradients(model, x)
        assert not any(np.shares_memory(a, b) for a in gw1 + gb1 for b in gw2 + gb2)


class TestTrain:
    def test_in_place_update_matches_allocating_reference(self):
        corpus = small_corpus(10)
        cfg = RunConfig(
            epochs=6, batch_size=4, learning_rate=0.7, momentum=0.9, seed=5,
            weight_init_scale=2.0, latent_dim=8, identity_len=4,
        )
        model, trace = train(corpus, cfg, hidden_dims=(16,))
        expected, expected_trace = reference_train(corpus, cfg, (16,))
        assert models_equal(model, expected)
        assert trace == expected_trace

    def test_two_hidden_layers_match_textbook_reference(self):
        # 11 images in batches of 3 end in a partial batch of 2; 3 x 64
        # pixels make the loss scale 2 / 192, which is not a power of two
        corpus = small_corpus(11)
        cfg = RunConfig(
            epochs=8, batch_size=3, learning_rate=0.7, momentum=0.9, seed=6,
            weight_init_scale=2.0, latent_dim=8, identity_len=4,
        )
        model, trace = train(corpus, cfg, hidden_dims=(24, 12))
        expected, expected_trace = reference_train(corpus, cfg, (24, 12))
        assert models_equal(model, expected)
        assert trace == expected_trace

    def test_overfit_single_image(self):
        img = small_corpus(1, side=8)[0]
        cfg = RunConfig(epochs=800, batch_size=1, latent_dim=8, identity_len=4)
        model, trace = train([img], cfg, hidden_dims=(32,))
        assert trace[-1] < 1e-3

    def test_deterministic(self):
        corpus = small_corpus(10)
        cfg = RunConfig(
            epochs=5, batch_size=4, learning_rate=0.5, seed=3, weight_init_scale=1.0,
            latent_dim=8, identity_len=4,
        )
        a, ta = train(corpus, cfg, hidden_dims=(16,))
        b, tb = train(corpus, cfg, hidden_dims=(16,))
        assert models_equal(a, b)
        assert ta == tb

    @pytest.mark.parametrize("images, batch", [(40, 32), (5, 1)])  # a partial last batch; batch size 1
    def test_bits_equal_at_one_and_two_cpus(self, monkeypatch, images, batch):
        # the default dims; at 2 CPUs a helper thread takes the top layer's
        # gradients and part of the momentum update, each as the same call
        corpus = np.random.default_rng(images).uniform(0.0, 1.0, size=(images, 32, 32))
        cfg = RunConfig(epochs=3, batch_size=batch, seed=4)
        gradients, threads = codec._layer_gradients, []

        def recorded(*args):
            threads.append(threading.current_thread())
            return gradients(*args)

        monkeypatch.setattr(codec, "_layer_gradients", recorded)
        runs, interval = [], sys.getswitchinterval()
        try:
            for switch in (interval, 1e-6):  # 1e-6: threads trade the interpreter often
                sys.setswitchinterval(switch)
                for cpus in (1, 2):
                    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
                    threads.clear()
                    model, trace = train(corpus, cfg)
                    runs.append((model.weights[0].base.view(np.uint64), trace))
                    helpers = set(threads) - {threading.current_thread()}
                    assert len(helpers) == cpus - 1  # one helper at 2 CPUs, none at 1
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(bits, runs[0][0]) and trace == runs[0][1] for bits, trace in runs)

    @pytest.mark.parametrize("task", ["_layer_gradients", "_momentum_step"])
    def test_helper_error_raised_once_after_the_helper_joins(self, monkeypatch, task):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        error, original, failed = RuntimeError(f"{task} failed"), getattr(codec, task), []

        def failing(*args):
            if threading.current_thread() is not caller:
                failed.append(error)
                raise error
            return original(*args)

        monkeypatch.setattr(codec, task, failing)
        before, raised = threading.active_count(), []

        def call():
            try:
                train(small_corpus(10), RunConfig(epochs=2, batch_size=4, latent_dim=8, identity_len=4), hidden_dims=(16,))
            except RuntimeError as exc:
                raised.append((exc, threading.active_count()))

        # a daemon: a helper never joined fails the join instead of hanging the suite
        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive()
        # raised once, on the calling thread, with only it and this one left
        assert raised == [(error, before + 1)] and failed == [error]
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_non_finite_loss_aborts(self, monkeypatch, cpus):
        # bounded sigmoid output keeps honest losses finite, so feed a
        # poisoned image to exercise the abort path; the error names the
        # epoch and the offset of the poisoned image's batch
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        corpus = small_corpus(10)
        corpus[7] = np.full((8, 8), np.nan)
        cfg = RunConfig(
            epochs=1, batch_size=4, learning_rate=0.1, seed=2, weight_init_scale=1.0,
            latent_dim=8, identity_len=4,
        )
        u = rng_uniform_rows(make_stream(cfg.seed, stream_id=1), len(corpus))[0]
        position = list(np.argsort(u, kind="stable")).index(7)
        offset = position - position % cfg.batch_size
        assert offset > 0
        message = f"non-finite loss nan at epoch 0, batch offset {offset};"
        before = threading.active_count()
        with pytest.raises(TrainingError, match=message):
            train(corpus, cfg, hidden_dims=(16,))
        assert threading.active_count() == before

    def test_parameters_share_one_buffer(self):
        model = init_model((64, 16, 8), 4, seed=9)
        base = model.weights[0].base
        arrays = model.weights + model.biases
        assert base is not None and all(a.base is base for a in arrays)
        assert base.size == sum(a.size for a in arrays)

    def test_peak_memory_holds_corpus_once_and_parameters_three_times(self):
        # the default dims; training holds the corpus stack, the parameters
        # and their velocity and gradients, and the step workspaces besides
        cfg = RunConfig(epochs=1)
        model = init_model((1024, 256, 64, cfg.latent_dim), cfg.identity_len, cfg.seed)
        param_bytes = model.weights[0].base.nbytes
        del model
        slack = 2 * 2**20  # the two step workspaces and one batch take 1.7 MB of it
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            corpus = rng.uniform(0.0, 1.0, size=(40, 32, 32))
            train(corpus, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= corpus.nbytes + 3 * param_bytes + slack

    def test_mixed_shapes_rejected(self):
        cfg = RunConfig(epochs=1)
        with pytest.raises(ValueError):
            train([np.zeros((8, 8)), np.zeros((4, 4))], cfg)

    def test_non_square_images_rejected_before_the_first_step(self, monkeypatch):
        calls = []
        monkeypatch.setattr(codec, "loss_and_gradients", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match=r"image shape \(16, 32\) is not square"):
            train([np.full((16, 32), 0.5)] * 4, RunConfig(epochs=1))
        assert calls == []

    def test_config_validation(self):
        for bad in ({"epochs": 0}, {"batch_size": 0}, {"momentum": 1.0}, {"learning_rate": 0.0}):
            with pytest.raises(ConfigError):
                RunConfig(**bad)


class TestAlignment:
    def build(self):
        images, manifest = generate_corpus(6, 6, 32, seed=1)
        labels = [r.identity_id for r in manifest]
        cfg = RunConfig(epochs=40, batch_size=12, latent_dim=16, identity_len=6)
        model, _ = train(images, cfg, hidden_dims=(64, 32))
        return model, images, labels

    def test_reconstruction_preserved(self):
        model, images, labels = self.build()
        aligned = align_identity_basis(model, images, labels)
        for img in images[:8]:
            before = decode(model, encode(model, img))
            after = decode(aligned, encode(aligned, img))
            assert np.max(np.abs(before - after)) < 1e-9

    def test_latents_centered(self):
        model, images, labels = self.build()
        aligned = align_identity_basis(model, images, labels)
        z = np.stack([encode(aligned, img) for img in images])
        assert np.max(np.abs(z.mean(axis=0))) < 1e-8

    def test_between_scatter_diagonal_descending(self):
        # the aligned axes are the between-identity eigenvectors, largest first
        model, images, labels = self.build()
        z = encode_batch(align_identity_basis(model, images, labels), images)
        labels = np.asarray(labels)
        centers = np.stack([z[labels == i].mean(axis=0) for i in np.unique(labels)])
        counts = np.array([np.sum(labels == i) for i in np.unique(labels)])
        scatter = (centers * counts[:, None]).T @ centers
        diag = np.diag(scatter)
        assert np.max(np.abs(scatter - np.diag(diag))) <= 1e-10 * diag[0]
        assert np.all(np.diff(diag) <= 1e-10 * diag[0])

    def test_leading_block_concentrates_identity(self):
        model, images, labels = self.build()
        aligned = align_identity_basis(model, images, labels)
        z = np.stack([encode(aligned, img) for img in images])
        labels = np.asarray(labels)
        centers = np.stack([z[labels == i].mean(axis=0) for i in np.unique(labels)])
        k = aligned.identity_len
        energy_head = np.sum(centers[:, :k] ** 2)
        energy_tail = np.sum(centers[:, k:] ** 2)
        assert energy_head > energy_tail

    def test_label_mismatch_rejected(self):
        model, images, labels = self.build()
        with pytest.raises(ValueError):
            align_identity_basis(model, images, labels[:-1])


class TestModelIO:
    def test_round_trip(self, tmp_path):
        model = init_model((64, 16, 8), 4, seed=9)
        path = tmp_path / "m.dpim"
        save_model(model, path)
        back = load_model(path)
        assert models_equal(model, back)

    @pytest.mark.parametrize("dims", [(64, 16, 8), (64, 32, 16, 8)])
    def test_loaded_model_encodes_same_bits(self, tmp_path, dims):
        # an odd number of dims leaves the parameters off 8-byte alignment
        # in the file, where BLAS would round differently
        model = init_model(dims, 4, seed=9)
        save_model(model, tmp_path / "m.dpim")
        back = load_model(tmp_path / "m.dpim")
        assert all(w.flags.writeable and w.flags.aligned for w in back.weights + back.biases)
        x = np.random.default_rng(3).uniform(0.0, 1.0, size=(20, 8, 8))
        assert np.array_equal(encode_batch(back, x), encode_batch(model, x))
        z = encode_batch(model, x)
        assert np.array_equal(decode_batch(back, z), decode_batch(model, z))

    def test_round_trip_bytes_stable(self, tmp_path):
        model = init_model((64, 16, 8), 4, seed=9)
        p1, p2 = tmp_path / "a.dpim", tmp_path / "b.dpim"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dpim"
        model = init_model((16, 4), 2, seed=0)
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            load_model(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.dpim"
        model = init_model((16, 4), 2, seed=0)
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError):
            load_model(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.dpim"
        model = init_model((16, 4), 2, seed=0)
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(TruncatedError):
            load_model(path)

    @pytest.mark.parametrize("identity_len", [0, 5, 99])
    def test_identity_len_outside_latent(self, tmp_path, identity_len):
        # 0 would score every ISS 0.5; more than the latent reads all of it
        path = tmp_path / "i.dpim"
        save_model(init_model((16, 4), 2, seed=0), path)
        blob = bytearray(path.read_bytes())
        blob[20:24] = identity_len.to_bytes(4, "little")  # magic, version, 2 dims, identity_len
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=rf"identity_len {identity_len} outside \[1, 4\]$"):
            load_model(path)
        blob[20:24] = (4).to_bytes(4, "little")  # the whole latent is a valid block
        path.write_bytes(bytes(blob))
        assert load_model(path).identity_len == 4

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "x.dpim"
        model = init_model((16, 4), 2, seed=0)
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(TruncatedError):
            load_model(path)
