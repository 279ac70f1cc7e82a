import numpy as np
import pytest

from dpimage.data import (
    FaceParams,
    identity_distance,
    generate_corpus,
    load_manifest,
    read_pgm,
    render_face,
    sample_identity_params,
    save_manifest,
    write_pgm,
)
from dpimage.errors import BadMagicError, BadMaxvalError, DataError, TruncatedError
from dpimage.numerics import make_stream

SYMMETRIC = FaceParams(
    face_width=0.36,
    face_height=0.40,
    eye_spacing=0.24,
    eye_height=0.14,
    mouth_width=0.28,
    mouth_curve=0.03,
)


class TestRenderFace:
    def test_deterministic(self):
        p = SYMMETRIC
        a, _ = render_face(p, 32, make_stream(3))
        b, _ = render_face(p, 32, make_stream(3))
        assert np.array_equal(a, b)

    def test_symmetric_when_noise_free(self):
        img, _ = render_face(SYMMETRIC, 32, make_stream(0))
        assert np.max(np.abs(img - img[:, ::-1])) <= 1e-12

    def test_range(self):
        p = FaceParams(
            face_width=0.42,
            face_height=0.46,
            eye_spacing=0.32,
            eye_height=0.22,
            mouth_width=0.40,
            mouth_curve=0.09,
            jitter_x=2.0,
            jitter_y=-2.0,
            brightness=0.05,
            noise_std=0.02,
        )
        img, _ = render_face(p, 32, make_stream(1))
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_out_of_range_rejected(self):
        bad = FaceParams(
            face_width=0.9,
            face_height=0.40,
            eye_spacing=0.24,
            eye_height=0.14,
            mouth_width=0.28,
            mouth_curve=0.0,
        )
        with pytest.raises(DataError):
            render_face(bad, 32, make_stream(0))

    def test_small_side_rejected(self):
        with pytest.raises(DataError):
            render_face(SYMMETRIC, 8, make_stream(0))

    def test_noise_consumes_stream(self):
        p_noise = FaceParams(**{**SYMMETRIC.__dict__, "noise_std": 0.01})
        _, s0 = render_face(SYMMETRIC, 32, make_stream(5))
        _, s1 = render_face(p_noise, 32, make_stream(5))
        assert s0 == make_stream(5)
        assert s1 != make_stream(5)

    def test_has_structure(self):
        img, _ = render_face(SYMMETRIC, 32, make_stream(0))
        assert img.std() > 0.05  # not a constant field


class TestGenerateCorpus:
    def test_counts_and_ids(self):
        images, manifest = generate_corpus(50, 10, 32, seed=0)
        assert len(images) == 500 and len(manifest) == 500
        assert sorted({r.identity_id for r in manifest}) == list(range(50))

    def test_deterministic(self):
        a, ma = generate_corpus(5, 3, 32, seed=9)
        b, mb = generate_corpus(5, 3, 32, seed=9)
        assert ma == mb
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_same_identity_same_params_different_nuisance(self):
        images, manifest = generate_corpus(3, 4, 32, seed=2)
        # two samples of identity 0 differ (nuisance) but share identity params
        assert not np.array_equal(images[0], images[1])
        p0, _ = sample_identity_params(make_stream(0))
        # identity params are a pure function of (seed, identity)
        a, _ = generate_corpus(3, 2, 32, seed=2)
        assert np.array_equal(images[0], a[0])

    def test_split_assignment(self):
        _, manifest = generate_corpus(2, 10, 32, seed=1)
        per_identity = [r.split for r in manifest if r.identity_id == 0]
        assert per_identity == ["train"] * 8 + ["eval"] * 2

    def test_too_few_identities(self):
        with pytest.raises(DataError):
            generate_corpus(1, 5, 32, seed=0)

    def test_identities_separated(self):
        from dpimage.data import sample_identity_params
        from dpimage.numerics import derive_stream

        # rejection sampling keeps every accepted pair farther apart than
        # any two samples of one identity (which share parameters exactly)
        _, manifest = generate_corpus(12, 2, 32, seed=3)
        params = []
        accepted = []
        for ident in range(12):
            stream = derive_stream(3, 0, ident)
            for _ in range(1000):
                cand, stream = sample_identity_params(stream)
                if all(identity_distance(cand, p) >= 0.6 for p in accepted):
                    break
            accepted.append(cand)
        for i in range(12):
            for j in range(i + 1, 12):
                assert identity_distance(accepted[i], accepted[j]) >= 0.6


class TestManifestIO:
    def test_round_trip(self, tmp_path):
        _, manifest = generate_corpus(3, 2, 32, seed=4)
        path = tmp_path / "manifest.csv"
        save_manifest(manifest, path)
        assert load_manifest(path) == manifest

    def test_sparse_ids_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("path,identity_id,split\na.pgm,0,train\nb.pgm,2,train\n")
        with pytest.raises(DataError):
            load_manifest(path)


class TestPgm:
    def test_header_bytes_exact(self, tmp_path):
        img = np.zeros((32, 32))
        path = tmp_path / "z.pgm"
        write_pgm(img, path)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n32 32\n255\n")
        assert len(blob) == len(b"P5\n32 32\n255\n") + 1024

    def test_round_trip_error_bound(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.uniform(0.0, 1.0, size=(32, 32))
        path = tmp_path / "r.pgm"
        write_pgm(img, path)
        back = read_pgm(path)
        assert np.max(np.abs(back - img)) <= 1.0 / 510.0 + 1e-15

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "ascii.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(BadMagicError):
            read_pgm(path)

    def test_bad_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(BadMaxvalError):
            read_pgm(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(TruncatedError):
            read_pgm(path)

    def test_comments_allowed(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 128, 255, 64]))
        img = read_pgm(path)
        assert img.shape == (2, 2)
        assert img[0, 1] == 128 / 255.0

    def test_out_of_range_write_rejected(self, tmp_path):
        with pytest.raises(DataError):
            write_pgm(np.full((4, 4), 1.5), tmp_path / "x.pgm")
        img = np.full((4, 4), 0.5)
        img[1, 2] = np.nan
        with pytest.raises(DataError):
            write_pgm(img, tmp_path / "nan.pgm")
        assert not (tmp_path / "nan.pgm").exists()
