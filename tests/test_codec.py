import numpy as np
import pytest

from dpimage.codec import (
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
from dpimage.errors import BadMagicError, ConfigError, TrainingError, TruncatedError, VersionError


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


class TestBatchForward:
    """Rows of a batch carry the bits of the single-image calls."""

    def setup_method(self):
        self.model = init_model((1024, 256, 64, 32), 12, seed=5, weight_init_scale=2.0)
        rng = np.random.default_rng(5)
        self.images = rng.uniform(0.0, 1.0, size=(100, 32, 32))
        self.latents = rng.normal(0.0, 3.0, size=(100, 32))

    @pytest.mark.parametrize("height", [1, 2, 15, 16, 17, 20, 100])
    def test_rows_equal_single_calls(self, height):
        enc = encode_batch(self.model, self.images[:height])
        dec = decode_batch(self.model, self.latents[:height])
        assert enc.shape == (height, 32) and dec.shape == (height, 32, 32)
        for i in range(height):
            assert np.array_equal(enc[i], encode(self.model, self.images[i]))
            assert np.array_equal(dec[i], decode(self.model, self.latents[i]))

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


class TestTrain:
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

    def test_non_finite_loss_aborts(self):
        # bounded sigmoid output keeps honest losses finite, so feed a
        # poisoned image to exercise the abort path
        corpus = small_corpus(4)
        corpus[2] = corpus[2].copy()
        corpus[2][0, 0] = np.nan
        cfg = RunConfig(
            epochs=1, batch_size=4, learning_rate=0.1, weight_init_scale=1.0,
            latent_dim=8, identity_len=4,
        )
        with pytest.raises(TrainingError, match="non-finite"):
            train(corpus, cfg, hidden_dims=(16,))

    def test_mixed_shapes_rejected(self):
        cfg = RunConfig(epochs=1)
        with pytest.raises(ValueError):
            train([np.zeros((8, 8)), np.zeros((4, 4))], cfg)

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

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "x.dpim"
        model = init_model((16, 4), 2, seed=0)
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(TruncatedError):
            load_model(path)
