import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from dpimage import metrics
from dpimage.codec import (
    PASS_ROWS,
    AutoencoderModel,
    _decode_encode_passes,
    decode_batch,
    encode_batch,
    init_model,
)
from dpimage.metrics import (
    Originals,
    blur_baseline,
    fed,
    iss_from_embeddings,
    iss_scores,
    mosaic_baseline,
    nearest_rank_percentile,
    ssim_reference,
)
from dpimage.privacy import PrivacyParams, full_mask, identity_mask, perturb_latents
from support import calibrate_threshold, l2_distances, ssim

RNG = np.random.default_rng(0)


def random_image(side=32, rng=None):
    rng = rng or RNG
    return rng.uniform(0.0, 1.0, size=(side, side))


def linear_probe_model():
    """2x2 images; encode() reads the first two pixels verbatim."""
    w_enc = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    w_dec = w_enc.T.copy()
    return AutoencoderModel(
        encoder_dims=(4, 2),
        identity_len=2,
        weights=[w_enc, w_dec],
        biases=[np.zeros(2), np.zeros(4)],
    )


def probe_image(e0, e1):
    return np.array([[e0, e1], [0.0, 0.0]])


def l2(x, y):
    return float(l2_distances([x], [y])[0])


def pair_report(model, pairs, threshold):
    """Originals.report over (x, y) pairs; a 1x1 SSIM window fits 2x2 probes."""
    x, y = [p[0] for p in pairs], [p[1] for p in pairs]
    return Originals(model, x, window=1).report(y, threshold, [f"{i:03d}" for i in range(len(x))])


def pair_iss(model, x, y):
    return pair_report(model, [(x, y)], 0.5).iss[0]


def identity16():
    """16x16 images; encode() reads the first two pixels verbatim."""
    return AutoencoderModel(
        encoder_dims=(256, 2),
        identity_len=2,
        weights=[np.eye(2, 256), np.eye(256, 2)],
        biases=[np.zeros(2), np.zeros(256)],
    )


def report16(x, y):
    """Originals.report of 16x16 stacks through identity16."""
    return Originals(identity16(), x).report(y, 0.5, [f"{i:03d}" for i in range(len(x))])


def report_l2(x, y):
    return float(report16([x], [y]).l2[0])


class TestL2:
    """Originals.report's l2, one Euclidean pixel distance per pair."""

    def test_identical(self):
        x = random_image(16)
        assert report_l2(x, x) == 0.0

    def test_unit_cube_distance(self):
        # ones, not zeros, as the reference: an all-zero one has no ALD
        assert report_l2(np.ones((16, 16)), np.zeros((16, 16))) == 16.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        x, y = random_image(16, rng), random_image(16, rng)
        assert report_l2(x, y) == report_l2(y, x)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        x, y, z = (random_image(16, rng) for _ in range(3))
        assert report_l2(x, z) <= report_l2(x, y) + report_l2(y, z) + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="image shapes differ"):
            report16([random_image(16)], [random_image(17)])

    def test_stack_rows_match_single(self):
        rng = np.random.default_rng(6)
        x, y = rng.uniform(size=(2, 9, 16, 16))
        d = report16(x, y).l2
        for i in range(9):
            assert d[i] == report_l2(x[i], y[i]) == l2(x[i], y[i])


def report_ald(x, y):
    return float(report16([x], [y]).ald_inf[0])


class TestAld:
    """Originals.report's ald_inf, max|y - x| / max|x| per pair."""

    def test_identical(self):
        x = random_image(16)
        assert report_ald(x, x) == 0.0

    def test_double(self):
        x = random_image(16) + 0.1
        assert report_ald(x, 2 * x) == pytest.approx(1.0, abs=1e-12)

    def test_constant_images(self):
        x = np.full((16, 16), 0.5)
        y = np.full((16, 16), 0.75)
        assert report_ald(x, y) == pytest.approx(0.5, abs=1e-12)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="all-zero reference"):
            report16([random_image(16), np.zeros((16, 16))], [np.ones((16, 16))] * 2)

    def test_stack_rows_match_single(self):
        rng = np.random.default_rng(7)
        x, y = rng.uniform(size=(2, 9, 16, 16))
        d = report16(x, y).ald_inf
        for i in range(9):
            assert d[i] == report_ald(x[i], y[i])
            assert d[i] == np.linalg.norm((y[i] - x[i]).ravel(), np.inf) / np.linalg.norm(
                x[i].ravel(), np.inf
            )


class TestSsim:
    def test_self_similarity(self):
        x = random_image()
        assert abs(ssim(x, x) - 1.0) < 1e-12

    def test_constant_images_closed_form(self):
        x = np.full((32, 32), 0.5)
        y = np.full((32, 32), 0.25)
        expected = (2 * 0.5 * 0.25 + 1e-4) / (0.5**2 + 0.25**2 + 1e-4)
        assert ssim(x, y) == pytest.approx(expected, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        x, y = random_image(16, rng), random_image(16, rng)
        assert ssim(x, y) == pytest.approx(ssim(y, x), abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_bounded_above(self, seed):
        rng = np.random.default_rng(seed)
        assert ssim(random_image(12, rng), random_image(12, rng)) <= 1.0

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((8, 8)), np.zeros((8, 8)))


def tensordot_ssim(x, y, window=11, sigma=1.5):
    """Direct 2-D windowed SSIM: the separable stack form's oracle."""
    half = (window - 1) / 2.0
    g = np.exp(-((np.arange(window) - half) ** 2) / (2.0 * sigma * sigma))
    kernel = np.outer(g, g)
    kernel /= kernel.sum()

    def filt(a):
        return np.tensordot(sliding_window_view(a, (window, window)), kernel, axes=([2, 3], [0, 1]))

    mu_x, mu_y = filt(x), filt(y)
    var_x = filt(x * x) - mu_x * mu_x
    var_y = filt(y * y) - mu_y * mu_y
    cov = filt(x * y) - mu_x * mu_y
    c1, c2 = 0.01**2, 0.03**2
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))


def gaussian_bands(shape, window, sigma):
    """Row and column band matrices of normalized 1-D Gaussian taps."""
    half = (window - 1) / 2.0
    g = np.exp(-((np.arange(window) - half) ** 2) / (2.0 * sigma * sigma))
    rows = np.zeros((shape[-2] - window + 1, shape[-2]))
    cols = np.zeros((shape[-1] - window + 1, shape[-1]))
    for band in (rows, cols):
        for i in range(len(band)):
            band[i, i : i + window] = g / g.sum()
    return rows, cols


def five_stack_ssim(x, y, window=11, sigma=1.5):
    """SSIM filtering all five statistics of each 16-pair block together, so
    nothing is shared between calls: the bits the reference step must keep."""
    rows, cols = gaussian_bands(x.shape, window, sigma)
    out = []
    for start in range(0, len(x), 16):
        a, b = x[start : start + 16], y[start : start + 16]
        mu_x, mu_y, xx, yy, xy = rows @ np.stack([a, b, a * a, b * b, a * b]) @ cols.T
        var_x, var_y, cov = xx - mu_x * mu_x, yy - mu_y * mu_y, xy - mu_x * mu_y
        num = (2.0 * mu_x * mu_y + 0.01**2) * (2.0 * cov + 0.03**2)
        den = (mu_x * mu_x + mu_y * mu_y + 0.01**2) * (var_x + var_y + 0.03**2)
        out.append(np.mean((num / den).reshape(len(a), -1), axis=1))
    return np.concatenate(out)


def per_block_ssim_reference(x, window=11, sigma=1.5):
    """The scorer as it was before it wrote into reused buffers: x's mean and
    mean square held per 16-image block, fresh arrays for every block."""
    rows, cols = gaussian_bands(x.shape, window, sigma)
    blocks = [slice(start, start + 16) for start in range(0, len(x), 16)]
    held = [rows @ np.stack([x[block], x[block] ** 2]) @ cols.T for block in blocks]

    def score(y):
        out = np.empty(len(x))
        for block, (mu_x, xx) in zip(blocks, held):
            a, b = x[block], y[block]
            mu_y, yy, xy = rows @ np.stack([b, b * b, a * b]) @ cols.T
            var_x = xx - mu_x * mu_x
            var_y = yy - mu_y * mu_y
            cov = xy - mu_x * mu_y
            num = (2.0 * mu_x * mu_y + 0.01**2) * (2.0 * cov + 0.03**2)
            den = (mu_x * mu_x + mu_y * mu_y + 0.01**2) * (var_x + var_y + 0.03**2)
            out[block] = np.mean((num / den).reshape(len(a), -1), axis=1)
        return out

    return score


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestSsimStack:
    @pytest.mark.parametrize(
        "shape,window,sigma", [((32, 32), 11, 1.5), ((11, 11), 11, 1.5), ((20, 24), 7, 1.0)]
    )
    def test_matches_tensordot_oracle(self, shape, window, sigma):
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.uniform(size=shape)
            y = np.clip(x + rng.normal(0.0, 0.2, size=shape), 0.0, 1.0)
            expected = tensordot_ssim(x, y, window, sigma)
            assert abs(ssim(x, y, window, sigma) - expected) < 1e-12

    def test_rows_independent_of_batch_mates(self):
        rng = np.random.default_rng(8)
        x, y = rng.uniform(size=(2, 20, 32, 32))
        scores = ssim_reference(x)(y)
        for i in range(20):
            assert scores[i] == ssim(x[i], y[i])
        order = rng.permutation(20)[:7]
        assert np.array_equal(ssim_reference(x[order])(y[order]), scores[order])

    @pytest.mark.parametrize("n", [1, 16, 17, 33])
    def test_reference_scorer_equals_ssim_scores(self, n):
        rng = np.random.default_rng(n)
        x, y, z = rng.uniform(size=(3, n, 32, 32))
        score = ssim_reference(x)
        scores = ssim_reference(x)(y)  # a fresh scorer per stack
        # one scorer serves many stacks against its reference
        assert np.array_equal(score(y), scores)
        assert np.array_equal(score(z), ssim_reference(x)(z))
        assert np.array_equal(score(y), scores)
        assert np.array_equal(scores, five_stack_ssim(x, y))
        for i in range(n):
            assert scores[i] == ssim(x[i], y[i])

    @pytest.mark.parametrize("n", [1, 15, 16, 17, 100])
    @pytest.mark.parametrize("window, sigma", [(11, 1.5), (7, 1.0)])
    def test_reused_buffers_equal_per_block_scorer(self, n, window, sigma):
        rng = np.random.default_rng(n + window)
        x = rng.uniform(size=(n, 32, 32))
        y, z = np.clip(x + rng.normal(0.0, 0.3, size=(2, n, 32, 32)), 0.0, 1.0)
        score = ssim_reference(x, window, sigma)
        expected = per_block_ssim_reference(x, window, sigma)
        for stack in (y, z, y):  # the same scorer, call after call
            assert np.array_equal(bits(score(stack)), bits(expected(stack)))
        # rows scored from an offset pair with the originals from there on
        for start in {0, n // 3, n - 1}:
            for k in {1, n - start}:
                rows = slice(start, start + k)
                want = per_block_ssim_reference(x[rows], window, sigma)(y[rows])
                assert np.array_equal(bits(score(y[rows], start)), bits(want))

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 64])
    def test_offset_calls_equal_per_block_scorer(self, n):
        # the sweep scores one pass at a time from an offset into the
        # originals; a pass may be shorter or longer than one SSIM block,
        # and each call's own block buffers leave no trace on the next
        rng = np.random.default_rng(n + 50)
        x = rng.uniform(size=(n + 40, 32, 32))
        score = ssim_reference(x)
        for start in (0, 17, 40, 17):
            rows = slice(start, start + n)
            y = np.clip(x[rows] + rng.normal(0.0, 0.3, size=(n, 32, 32)), 0.0, 1.0)
            got = score(y, start)
            assert np.array_equal(bits(score(y, start)), bits(got))
            assert np.array_equal(bits(got), bits(per_block_ssim_reference(x[rows])(y)))

    def test_offset_past_the_reference_rejected(self):
        score = ssim_reference(np.zeros((4, 16, 16)))
        for start, k in ((3, 2), (-1, 1), (5, 0)):
            with pytest.raises(ValueError, match="image shapes differ"):
                score(np.zeros((k, 16, 16)), start)

    def test_reference_smaller_than_window_rejected(self):
        x = np.zeros((3, 10, 32))
        with pytest.raises(ValueError) as direct:
            ssim(x[0], x[0])
        with pytest.raises(ValueError) as reference:
            ssim_reference(x)
        assert str(direct.value) == "image (10, 32) smaller than the 11x11 window"
        assert str(reference.value) == "image (3, 10, 32) smaller than the 11x11 window"
        with pytest.raises(ValueError, match="SSIM window 10 is even"):
            ssim_reference(np.zeros((3, 32, 32)), window=10)

    def test_scorer_rejects_other_shapes(self):
        score = ssim_reference(np.zeros((2, 16, 16)))
        with pytest.raises(ValueError, match="image shapes differ"):
            score(np.zeros((3, 16, 16)))


class TestScoreLatents:
    """Originals.score_latents: one pass of rows at a time through held
    workspaces, each row scored as its own release would be."""

    N = 30  # not a multiple of SSIM_BLOCK or PASS_ROWS: passes wrap mid-split

    def setup_method(self):
        self.model = init_model((1024, 256, 64, 32), 12, seed=4, weight_init_scale=2.0)
        self.x = np.random.default_rng(4).uniform(size=(self.N, 32, 32))
        self.originals = Originals(self.model, self.x)

    @pytest.mark.parametrize("reps", [1, 3])
    @pytest.mark.parametrize(
        "params",
        [
            PrivacyParams(1.0, 0.5, full_mask(32)),
            PrivacyParams(1.0, 0.5, identity_mask(32, 12), clip_radius=2.0),
        ],
        ids=["full", "clip_identity_only"],
    )
    def test_rows_equal_one_release_per_repetition(self, reps, params):
        u = np.random.default_rng(reps).uniform(-0.5, 0.5, size=(reps * self.N, params.n_noisy))
        z = perturb_latents(np.tile(self.originals.latents, (reps, 1)), params, u)
        iss, l2, ssim_vals = self.originals.score_latents(z)
        assert iss.shape == l2.shape == ssim_vals.shape == (reps * self.N,)
        for rep in range(reps):
            rows = slice(rep * self.N, (rep + 1) * self.N)
            y = decode_batch(self.model, z[rows])
            emb = encode_batch(self.model, y)[:, : self.model.identity_len]
            assert np.array_equal(bits(iss[rows]), bits(iss_scores(self.originals.embeddings, emb)))
            assert np.array_equal(bits(l2[rows]), bits(l2_distances(self.x, y)))
            assert np.array_equal(bits(ssim_vals[rows]), bits(ssim_reference(self.x)(y)))

    @pytest.mark.parametrize("n", [30, 100])
    @pytest.mark.parametrize("reps", [1, 3])
    @pytest.mark.parametrize(
        "params",
        [
            PrivacyParams(1.0, 0.5, full_mask(32)),
            PrivacyParams(1.0, 0.5, identity_mask(32, 12), clip_radius=2.0),
        ],
        ids=["full", "clip_identity_only"],
    )
    def test_bits_do_not_depend_on_the_worker_count(self, monkeypatch, watch_passes, n, reps, params):
        x = np.random.default_rng(n).uniform(size=(n, 32, 32))
        originals = Originals(self.model, x)
        u = np.random.default_rng(reps).uniform(-0.5, 0.5, size=(reps * n, params.n_noisy))
        z = perturb_latents(np.tile(originals.latents, (reps, 1)), params, u)
        y = decode_batch(self.model, z)
        emb = encode_batch(self.model, y)[:, : self.model.identity_len]
        score = ssim_reference(x)
        reference = np.concatenate(
            [
                [iss_scores(originals.embeddings, emb[rows]), l2_distances(x, y[rows]), score(y[rows])]
                for rows in (slice(r * n, (r + 1) * n) for r in range(reps))
            ],
            axis=1,
        )
        calls = watch_passes()
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)  # threads trade the interpreter often
            for cpus in (1, 2, 3):  # 3: more CPUs than workers
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
                calls.clear()
                iss, l2, ssim_vals = originals.score_latents(z)
                assert np.array_equal(bits(np.stack([iss, l2, ssim_vals])), bits(reference))
                assert len(set(calls)) == min(2, cpus, -(-len(z) // PASS_ROWS))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cpus, expected", [(1, 1), (8, 2)])
    def test_workers_capped_at_two(self, monkeypatch, watch_passes, cpus, expected):
        # the calling thread and, given a second CPU, the one helper thread
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        calls = watch_passes()
        self.originals.score_latents(np.tile(self.originals.latents, (10, 1)))  # 5 passes
        assert len(set(calls)) == expected

    @pytest.mark.parametrize("cpu_count, expected", [(3, 2), (None, 1)])
    def test_workers_follow_cpu_count_without_affinity(self, monkeypatch, watch_passes, cpu_count, expected):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # as on macOS and Windows
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        calls = watch_passes()
        self.originals.score_latents(np.tile(self.originals.latents, (10, 1)))  # 5 passes
        assert len(set(calls)) == expected

    def test_worker_error_raised_once_after_every_thread_joins(self, monkeypatch, watch_passes):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        error = RuntimeError("second pass failed")
        calls = watch_passes(fail_on=2, error=error)
        before = threading.active_count()
        z = np.tile(self.originals.latents, (10, 1))  # 300 rows: 5 passes for 2 workers
        with pytest.raises(RuntimeError) as err:
            self.originals.score_latents(z)
        assert err.value is error  # raised on the second pass only, so once
        assert len(set(calls)) == 2
        assert threading.active_count() == before

    def test_calling_thread_error_raised_once_after_the_helper_joins(self, monkeypatch):
        # the calling thread's second pass fails, while the helper has passes left
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        error, passes, calls = RuntimeError("calling thread's pass failed"), metrics._decode_encode_passes, []

        def failing_passes(model, z, score):
            def failing(*args):
                calls.append(threading.current_thread())
                if calls.count(caller) == 2 and calls[-1] is caller:
                    raise error
                return score(*args)

            return passes(model, z, failing)

        monkeypatch.setattr(metrics, "_decode_encode_passes", failing_passes)
        before, raised = threading.active_count(), []

        def call():
            try:
                self.originals.score_latents(np.tile(self.originals.latents, (20, 1)))  # 10 passes
            except RuntimeError as exc:
                raised.append((exc, threading.active_count()))

        # a daemon, as the helper it starts: a helper never joined fails the
        # join instead of hanging the suite
        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive()
        # raised once, on the calling thread, with only it and this one left
        assert raised == [(error, before + 1)]
        assert calls.count(caller) == 2 and len(set(calls)) == 2
        assert threading.active_count() == before

    def traced_peak(self, z) -> int:
        """tracemalloc's peak over the pass schedule of z, scored by no one."""
        tracemalloc.start()
        try:
            _decode_encode_passes(self.model, z, lambda start, y, latent: None)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_decode_encode_pass_peaks_at_the_decoder_and_one_block(self, monkeypatch):
        # a 64-row pass holds at most two layers' blocks and the decoded
        # images: the encoder's 64-wide layer, written from its 256-wide
        # input beside the images, is the decoder's last layer and one block.
        # Beside them: the padded input, and the buffer of at most
        # np.getbufsize() values that numpy's broadcast of a bias takes
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        z = np.random.default_rng(1).normal(0.0, 3.0, size=(PASS_ROWS, 32))
        decoder = PASS_ROWS * (256 + 1024) * 8  # its last layer's block and input
        assert decoder + PASS_ROWS * 64 * 8 == 672 * 1024
        assert self.traced_peak(z) <= 672 * 1024 + z.nbytes + 8 * np.getbufsize()

    def test_pass_blocks_are_freed_before_the_next_pass(self, monkeypatch):
        # on one worker, ten passes peak where one does: a pass's blocks do
        # not outlive it, or the next pass's would sit beside them
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        z = np.random.default_rng(2).normal(0.0, 3.0, size=(10 * PASS_ROWS, 32))
        one, ten = self.traced_peak(z[:PASS_ROWS]), self.traced_peak(z)
        assert ten <= one + 4096

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("height", [1, 11, 16, 48, 64, 65, 2 * PASS_ROWS + 17])
    def test_decode_encode_passes_bits_at_every_stream_height(self, monkeypatch, cpus, height):
        # a stream shorter than a pass runs as one short pass; a longer one
        # is cut into PASS_ROWS-row passes, its last one short
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        z = np.random.default_rng(height).normal(0.0, 3.0, size=(height, 32))
        images, latents, starts = np.empty((height, 32, 32)), np.empty((height, 32)), []

        def score(start, y, latent):
            starts.append(start)
            images[start : start + len(y)], latents[start : start + len(y)] = y, latent

        _decode_encode_passes(self.model, z, score)
        assert sorted(starts) == list(range(0, height, PASS_ROWS))
        ref_images = decode_batch(self.model, z)
        assert np.array_equal(bits(images), bits(ref_images))
        assert np.array_equal(bits(latents), bits(encode_batch(self.model, ref_images)))

    def test_scoring_error_releases_the_lock_and_is_raised_once(self, monkeypatch, watch_passes):
        # the other worker's row norms fail inside the locked scoring section,
        # slowly enough that the calling thread's worker waits for the lock
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        error, norms, calls = RuntimeError("row norms failed"), metrics._row_norms, []

        def failing(d):
            calls.append(threading.current_thread())
            if calls[-1] is caller or error in calls:
                return norms(d)
            time.sleep(0.5)
            calls.append(error)
            raise error

        monkeypatch.setattr(metrics, "_row_norms", failing)
        passes = watch_passes()
        before, raised = threading.active_count(), []

        def call():
            try:
                self.originals.score_latents(np.tile(self.originals.latents, (10, 1)))  # 5 passes
            except RuntimeError as exc:
                raised.append(exc)

        # a daemon, as the worker it starts: a lock never released fails the
        # join instead of hanging the suite
        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive() and raised == [error]
        assert len(set(passes)) == 2
        # the calling thread's worker scored its waiting pass once the lock was free
        assert caller in calls[calls.index(error) :]
        assert threading.active_count() == before

    @pytest.mark.parametrize("rows", [N, 2 * N + 5])
    def test_report_equals_score_latents(self, rows):
        # one row scorer for evaluate and the sweep: the report of a decoded
        # stream, against the split tiled to the stream's height, has the
        # bits of the stream's score_latents
        params = PrivacyParams(1.0, 0.5, full_mask(32))
        u = np.random.default_rng(rows).uniform(-0.5, 0.5, size=(rows, params.n_noisy))
        tile = np.arange(rows) % self.N
        z = perturb_latents(self.originals.latents[tile], params, u)
        ids = [f"{i:03d}" for i in range(rows)]
        report = Originals(self.model, self.x[tile]).report(decode_batch(self.model, z), 0.5, ids)
        scores = self.originals.score_latents(z)
        assert np.array_equal(bits(np.stack([report.iss, report.l2, report.ssim])), bits(np.stack(scores)))

    def test_rows_pair_with_originals_modulo_the_split(self):
        # 70 rows: the second pass starts at original 4 and wraps at 30
        z = self.originals.latents[np.arange(70) % self.N]
        iss, l2, _ = self.originals.score_latents(z)
        recon = decode_batch(self.model, self.originals.latents)
        assert np.array_equal(bits(l2), bits(np.tile(l2_distances(self.x, recon), 3)[:70]))
        assert np.array_equal(bits(iss[30:60]), bits(iss[:30]))


class TestIss:
    def test_same_image(self):
        model = linear_probe_model()
        x = probe_image(0.3, 0.7)
        assert pair_iss(model, x, x) == 1.0

    def test_orthogonal(self):
        assert iss_from_embeddings([1.0, 0.0], [0.0, 1.0]) == 0.5

    def test_opposite(self):
        assert iss_from_embeddings([1.0, 0.5], [-1.0, -0.5]) == 0.0

    def test_zero_embedding(self):
        assert iss_from_embeddings([0.0, 0.0], [1.0, 0.0]) == 0.5

    def test_rows_match_single(self):
        rng = np.random.default_rng(10)
        a, b = rng.normal(size=(2, 30, 12))
        b[0] = a[0]
        b[1] = -a[1]
        a[2] = 0.0
        scores = iss_scores(a, b)
        assert scores[0] == 1.0 and scores[1] == 0.0 and scores[2] == 0.5
        for i in range(30):
            assert scores[i] == iss_from_embeddings(a[i], b[i])

    def test_model_pathway_matches_embeddings(self):
        model = linear_probe_model()
        x, y = probe_image(1.0, 0.0), probe_image(-0.6, 0.8)
        assert pair_iss(model, x, y) == pytest.approx(
            iss_from_embeddings([1.0, 0.0], [-0.6, 0.8]), abs=1e-12
        )


class TestFppsr:
    def test_no_change_no_success(self):
        model = linear_probe_model()
        pairs = [(probe_image(0.5, 0.5), probe_image(0.5, 0.5))] * 3
        assert pair_report(model, pairs, 1.0).fppsr == 0.0

    def test_opposite_embeddings_all_succeed(self):
        model = linear_probe_model()
        pairs = [(probe_image(1.0, 0.0), probe_image(-1.0, 0.0))] * 4
        assert pair_report(model, pairs, 0.5).fppsr == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pair_report(linear_probe_model(), [], 0.5)

    def test_threshold_extremes(self):
        model = linear_probe_model()
        rng = np.random.default_rng(3)
        pairs = [
            (probe_image(*rng.uniform(0.1, 1.0, 2)), probe_image(*rng.uniform(0.1, 1.0, 2)))
            for _ in range(6)
        ]
        assert pair_report(model, pairs, 0.0).fppsr == 0.0
        max_iss = max(pair_iss(model, x, y) for x, y in pairs)
        above = min(1.0, max_iss + 1e-9)
        if above > max_iss:
            assert pair_report(model, pairs, above).fppsr == 1.0

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, math.nan])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        pairs = [(probe_image(1.0, 0.0), probe_image(0.5, 0.5))] * 2
        with pytest.raises(ValueError, match="threshold"):
            pair_report(linear_probe_model(), pairs, threshold)


class TestCalibrate:
    def test_constant_impostors(self):
        model = linear_probe_model()
        genuine = [(probe_image(1.0, 0.0), probe_image(1.0, 0.0))]
        # cos = -0.6 between (1,0) and (-0.6,0.8): iss = 0.2
        impostor = [(probe_image(1.0, 0.0), probe_image(-0.6, 0.8))] * 5
        report = calibrate_threshold(model, genuine, impostor, percentile=95.0)
        assert report.tau == pytest.approx(0.2, abs=1e-12)

    def test_shared_images_score_like_copies(self):
        model = init_model((256, 32, 8), 4, seed=2)
        rng = np.random.default_rng(11)
        images = [rng.uniform(size=(16, 16)) for _ in range(6)]
        pairs = [(images[i], images[j]) for i in range(6) for j in range(i + 1, 6)]
        copies = [(x.copy(), y.copy()) for x, y in pairs]
        shared = calibrate_threshold(model, pairs[:4], pairs[4:], 90.0)
        copied = calibrate_threshold(model, copies[:4], copies[4:], 90.0)
        assert np.array_equal(shared.genuine_scores, copied.genuine_scores)
        assert np.array_equal(shared.impostor_scores, copied.impostor_scores)
        assert shared.impostor_scores[0] == pair_iss(model, *pairs[4])

    def test_nearest_rank_grid(self):
        grid = [i / 100.0 for i in range(100)]
        assert nearest_rank_percentile(grid, 95.0) == pytest.approx(0.94, abs=1e-12)
        # numpy's nearest-rank definition, with and without ties, at the
        # sizes up to those of the CLI's impostor pair sets
        rng = np.random.default_rng(12)
        for n in (*range(1, 40), 399, 1225, 4950, 10000):
            for values in (rng.uniform(size=n), rng.integers(0, 4, n).astype(float)):
                for p in (0.0, 0.1, 1.0, 5.0, 25.0, 33.3, 50.0, 66.7, 90.0, 95.0, 99.0, 100.0):
                    expected = np.percentile(values, p, method="inverted_cdf")
                    assert np.array_equal(bits(nearest_rank_percentile(values, p)), bits(expected))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            calibrate_threshold(linear_probe_model(), [], [], 95.0)


def fed_oracle(a, b):
    """Same closed form, independent eigensolver (LAPACK via numpy)."""
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    cov_a = np.atleast_2d(np.cov(a, rowvar=False))
    cov_b = np.atleast_2d(np.cov(b, rowvar=False))

    def sqrt_psd(m):
        w, v = np.linalg.eigh((m + m.T) / 2.0)
        return v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.T

    root = sqrt_psd(cov_a)
    cross = sqrt_psd(root @ cov_b @ root)
    return float(np.sum((mu_a - mu_b) ** 2) + np.trace(cov_a + cov_b - 2.0 * cross))


class TestFed:
    def test_identical_sets(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(20, 4))
        assert abs(fed(a, a)) < 1e-8

    def test_one_dimensional_closed_form(self):
        rng = np.random.default_rng(4)
        base = rng.normal(0.0, 1.0, size=(400, 1))
        d = 2.5
        # equal variance, means differing by d: distance is exactly d^2
        assert fed(base, base + d) == pytest.approx(d * d, abs=1e-9)

    def test_against_independent_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = rng.normal(size=(60, 4)) @ rng.normal(size=(4, 4))
            b = rng.normal(size=(50, 4)) + rng.normal(size=4)
            assert fed(a, b) == pytest.approx(fed_oracle(a, b), abs=1e-6)

    def test_symmetric(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(30, 3))
        b = 0.5 * rng.normal(size=(25, 3)) + 1.0
        assert fed(a, b) == pytest.approx(fed(b, a), abs=1e-8)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = rng.normal(size=(10, 3))
            b = rng.normal(size=(12, 3))
            assert fed(a, b) >= -1e-8

    def test_too_few_rejected(self):
        with pytest.raises(ValueError):
            fed(np.zeros((1, 3)), np.zeros((5, 3)))


def blur_oracle(x, sigma, radius):
    """Direct nested-loop convolution with clamp-to-edge indexing."""
    taps = np.exp(-(np.arange(-radius, radius + 1) ** 2) / (2.0 * sigma**2))
    kernel = np.outer(taps, taps) / np.outer(taps, taps).sum()
    h, w = x.shape
    out = np.zeros_like(x)
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for di in range(-radius, radius + 1):
                for dj in range(-radius, radius + 1):
                    ii = min(max(i + di, 0), h - 1)
                    jj = min(max(j + dj, 0), w - 1)
                    acc += kernel[di + radius, dj + radius] * x[ii, jj]
            out[i, j] = acc
    return out


class TestBlur:
    def test_constant_unchanged(self):
        x = np.full((16, 16), 0.37)
        assert np.max(np.abs(blur_baseline(x, 2.0, 3) - x)) < 1e-12

    def test_radius_zero_identity(self):
        x = random_image(16)
        assert np.array_equal(blur_baseline(x, 1.5, 0), x)

    def test_single_pixel_mass_preserved(self):
        x = np.zeros((17, 17))
        x[8, 8] = 1.0
        out = blur_baseline(x, 1.5, 3)
        assert abs(out.sum() - 1.0) < 1e-9
        assert out[8, 8] < 1.0

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, size=(10, 10))
        got = blur_baseline(x, 1.2, 2)
        want = blur_oracle(x, 1.2, 2)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_matches_direct_convolution_past_the_edges(self):
        # every window reaches past both edges, so the clamped taps pile up
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, size=(10, 10))
        got = blur_baseline(x, 3.0, 12)
        want = blur_oracle(x, 3.0, 12)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_range_preserved(self):
        x = random_image(16)
        out = blur_baseline(x, 3.0, 5)
        assert out.min() >= 0.0 and out.max() <= 1.0


def mosaic_oracle(x, block):
    """One-image tile loop: each tile takes the mean of its own pixels."""
    out = np.empty_like(x)
    for i in range(0, x.shape[0], block):
        for j in range(0, x.shape[1], block):
            out[i : i + block, j : j + block] = x[i : i + block, j : j + block].mean()
    return out


class TestBaselineStacks:
    """A stack's rows equal one-image calls bit for bit."""

    def stack(self):
        return np.random.default_rng(12).uniform(0.0, 1.0, size=(20, 32, 32))

    @pytest.mark.parametrize("block", [1, 2, 5, 7, 16, 31, 32])
    def test_mosaic_rows(self, block):
        x = self.stack()
        out = mosaic_baseline(x, block)
        for i in range(len(x)):
            assert np.array_equal(out[i], mosaic_baseline(x[i], block))
            assert np.array_equal(out[i], mosaic_oracle(x[i], block))
        assert np.array_equal(mosaic_baseline(x.reshape(4, 5, 32, 32), block).reshape(x.shape), out)

    @pytest.mark.parametrize("sigma, radius", [(0.6, 2), (2.5, 8), (16.0, 48)])
    def test_blur_rows(self, sigma, radius):
        x = self.stack()
        out = blur_baseline(x, sigma, radius)
        for i in range(len(x)):
            assert np.array_equal(out[i], blur_baseline(x[i], sigma, radius))
        nested = blur_baseline(x.reshape(4, 5, 32, 32), sigma, radius)
        assert np.array_equal(nested.reshape(x.shape), out)


class TestMosaic:
    def test_block_one_identity(self):
        x = random_image(8)
        assert np.array_equal(mosaic_baseline(x, 1), x)

    def test_block_full_width(self):
        x = random_image(8)
        out = mosaic_baseline(x, 8)
        assert np.allclose(out, x.mean(), atol=1e-12)

    def test_two_by_two(self):
        x = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert np.allclose(mosaic_baseline(x, 2), 0.5, atol=1e-15)

    def test_partial_edge_tiles(self):
        x = np.arange(15.0).reshape(3, 5) / 15.0
        out = mosaic_baseline(x, 2)
        assert out[2, 4] == pytest.approx(x[2, 4], abs=1e-15)  # 1x1 corner tile
        assert out[0, 0] == pytest.approx(x[:2, :2].mean(), abs=1e-15)

    def test_range_preserved(self):
        x = random_image(9)
        out = mosaic_baseline(x, 4)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_bad_block(self):
        with pytest.raises(ValueError):
            mosaic_baseline(random_image(8), 0)


class TestEvaluatePairs:
    def test_identical_pairs(self):
        rng = np.random.default_rng(8)
        imgs = [rng.uniform(0.3, 0.7, size=(16, 16)) for _ in range(4)]
        pairs = [(f"img{i:02d}", im, im.copy()) for i, im in enumerate(imgs)]
        ids, x, y = zip(*pairs)
        report = Originals(identity16(), x).report(y, 0.5, ids)
        assert np.all(report.l2 == 0.0)
        assert np.all(np.abs(report.ssim - 1.0) < 1e-12)
        assert np.all(report.iss == 1.0)
        assert report.fppsr == 0.0
        assert report.fed < 1e-8

    def test_released_stack_left_as_given(self):
        # the row scorer overwrites the images it scores: report hands it a copy
        rng = np.random.default_rng(10)
        x, y = rng.uniform(size=(2, 5, 16, 16))
        before = y.copy()
        report16(x, y)
        assert np.array_equal(bits(y), bits(before))

    def test_rows_sorted_and_counted(self, tmp_path):
        model = linear_probe_model()
        pairs = [
            ("b", probe_image(0.5, 0.1), probe_image(0.4, 0.2)),
            ("a", probe_image(0.2, 0.9), probe_image(0.3, 0.8)),
            ("c", probe_image(0.7, 0.3), probe_image(0.6, 0.4)),
        ]
        # 2x2 images are below the SSIM window; Originals must reject them
        ids, x, y = zip(*sorted(pairs, key=lambda rec: rec[0]))
        with pytest.raises(ValueError, match="smaller than the 11x11 window"):
            Originals(model, x).report(y, 0.5, ids)

    def test_report_rows_in_id_order(self):
        # the CSV files cmd_evaluate writes from a report are checked in
        # test_cli.py::TestEvaluateAndSweep::test_report_csv_rows
        rng = np.random.default_rng(9)
        model16 = AutoencoderModel(
            encoder_dims=(256, 2),
            identity_len=2,
            weights=[rng.normal(size=(2, 256)) * 0.1, rng.normal(size=(256, 2)) * 0.1],
            biases=[np.zeros(2), np.zeros(256)],
        )
        pairs = [
            (f"{i:03d}", rng.uniform(0, 1, (16, 16)), rng.uniform(0, 1, (16, 16)))
            for i in (3, 0, 4, 1, 2)
        ]
        ids, x, y = zip(*sorted(pairs, key=lambda rec: rec[0]))
        report = Originals(model16, x).report(y, 0.4, ids)
        assert report.image_ids == ("000", "001", "002", "003", "004")
        for values in (report.l2, report.ald_inf, report.ssim, report.iss):
            assert values.shape == (5,)
        # row i scores the i-th pair it was given
        for i in range(5):
            assert report.l2[i] == l2(x[i], y[i]) and report.ssim[i] == ssim(x[i], y[i])
