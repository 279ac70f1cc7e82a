import csv
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpimage.data import (
    FACE_PARAMS,
    N_SHAPE,
    PGM_BLOCK,
    _pgm_tokens,
    generate_corpus,
    load_manifest,
    read_pgm,
    read_pgms,
    render_faces,
    save_manifest,
    write_csv,
    write_file,
    write_pgms,
)
from dpimage.errors import BadMagicError, BadMaxvalError, DataError, TruncatedError
from dpimage.numerics import derive_states, rng_uniform_rows

SYMMETRIC = dict(
    face_width=0.36,
    face_height=0.40,
    eye_spacing=0.24,
    eye_height=0.14,
    mouth_width=0.28,
    mouth_curve=0.03,
)


def face(**values):
    """One FACE_PARAMS row as a (1, 10) matrix; unnamed nuisance is 0."""
    row = {name: 0.0 for name in FACE_PARAMS} | values
    assert list(row) == list(FACE_PARAMS)
    return np.array([list(row.values())])


def noise(seed, side=32, faces=1):
    """Pixel-noise uniforms for a stack of side x side faces, one row per face."""
    return rng_uniform_rows(derive_states(seed, np.arange(faces)), 2 * side * side)


def render_one(row, side=32, seed=0):
    return render_faces(row, side, noise(seed, side))[0]


class TestRenderFace:
    def test_deterministic(self):
        a = render_one(face(**SYMMETRIC), seed=3)
        b = render_one(face(**SYMMETRIC), seed=3)
        assert np.array_equal(a, b)

    def test_symmetric_when_noise_free(self):
        img = render_one(face(**SYMMETRIC))
        assert np.max(np.abs(img - img[:, ::-1])) <= 1e-12

    def test_range(self):
        p = face(
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
        img = render_one(p, seed=1)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_out_of_range_rejected(self):
        bad = face(**{**SYMMETRIC, "face_width": 0.9, "mouth_curve": 0.0})
        with pytest.raises(DataError):
            render_one(bad)

    def test_out_of_range_error_names_parameter_and_value(self):
        rows = np.concatenate([face(**SYMMETRIC), face(**{**SYMMETRIC, "eye_height": 0.3})])
        message = r"face 1: parameter eye_height=0\.3 outside \[0\.06, 0\.24\]"
        with pytest.raises(DataError, match=message):
            render_faces(rows, 32, noise(0, faces=2))
        with pytest.raises(DataError, match=r"face 0: parameter noise_std=nan outside"):
            render_one(face(**SYMMETRIC, noise_std=np.nan))

    def test_small_side_rejected(self):
        with pytest.raises(DataError):
            render_one(face(**SYMMETRIC), side=8)

    def test_noise_free_face_ignores_uniforms(self):
        quiet, noisy = face(**SYMMETRIC), face(**SYMMETRIC, noise_std=0.01)
        assert np.array_equal(render_one(quiet, seed=5), render_one(quiet, seed=6))
        assert not np.array_equal(render_one(noisy, seed=5), render_one(noisy, seed=6))

    def test_has_structure(self):
        img = render_one(face(**SYMMETRIC))
        assert img.std() > 0.05  # not a constant field

    def test_stack_rows_equal_one_row_calls(self):
        # rows that differ in every parameter, noise-free and noisy, render in
        # one call with the bits each gets alone
        lo, hi = np.array(list(FACE_PARAMS.values())).T
        u = rng_uniform_rows(derive_states(8, np.arange(5)), len(FACE_PARAMS))
        rows = lo + (u + 0.5) * (hi - lo)
        rows[1, -1] = 0.0
        u = noise(9, faces=5)
        stack = render_faces(rows, 32, u)
        assert stack.shape == (5, 32, 32) and stack.dtype == np.float64
        for k in range(5):
            assert np.array_equal(stack[k], render_faces(rows[k : k + 1], 32, u[k : k + 1])[0])
        assert len({stack[k].tobytes() for k in range(5)}) == 5


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
        # rejection sampling keeps every accepted pair farther apart than
        # any two samples of one identity (which share parameters exactly);
        # the candidates rebuilt here render the corpus's images bit for bit
        images, _ = generate_corpus(12, 2, 32, seed=3)
        lo, hi = np.array(list(FACE_PARAMS.values())).T
        span = hi - lo
        accepted = np.empty((12, 6))
        for ident in range(12):
            state = derive_states(3, 0, ident)
            for t in range(1000):  # candidate t: the stream's draws 6t+1 ... 6t+6
                accepted[ident] = lo[:6] + (rng_uniform_rows(state, 6, 6 * t)[0] + 0.5) * span[:6]
                distance = np.linalg.norm((accepted[ident] - accepted[:ident]) / span[:6], axis=1)
                if (distance >= 0.6).all():
                    break
            u = rng_uniform_rows(derive_states(3, 1, 2 * ident), 4 + 2 * 32 * 32)
            row = np.concatenate([accepted[ident], lo[6:] + (u[0, :4] + 0.5) * span[6:]])
            assert np.array_equal(render_faces(row[np.newaxis], 32, u[:, 4:])[0], images[2 * ident])
        assert N_SHAPE == 6 and list(FACE_PARAMS)[5:7] == ["mouth_curve", "jitter_x"]
        for i in range(12):
            for j in range(i + 1, 12):
                assert np.linalg.norm((accepted[i] - accepted[j]) / span[:6]) >= 0.6


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
        write_pgms([img], [path])
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n32 32\n255\n")
        assert len(blob) == len(b"P5\n32 32\n255\n") + 1024

    def test_round_trip_error_bound(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.uniform(0.0, 1.0, size=(32, 32))
        path = tmp_path / "r.pgm"
        write_pgms([img], [path])
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
            write_pgms([np.full((4, 4), 1.5)], [tmp_path / "x.pgm"])
        img = np.full((4, 4), 0.5)
        img[1, 2] = np.nan
        with pytest.raises(DataError):
            write_pgms([img], [tmp_path / "nan.pgm"])
        assert not (tmp_path / "nan.pgm").exists()


    @pytest.mark.parametrize("bad", [np.nan, 1.5])
    def test_bad_last_image_writes_no_file(self, tmp_path, bad):
        stack = np.random.default_rng(4).uniform(0.0, 1.0, size=(3, 6, 5))
        stack[2, 4, 1] = bad
        paths = [tmp_path / f"{k}.pgm" for k in range(3)]
        with pytest.raises(DataError, match="2.pgm: pixel values"):
            write_pgms(stack, paths)
        assert not any(p.exists() for p in paths)

    def test_stack_round_trip_equals_one_path_reads(self, tmp_path):
        stack = np.random.default_rng(5).uniform(0.0, 1.0, size=(4, 6, 5))
        paths = [tmp_path / f"{k}.pgm" for k in range(4)]
        write_pgms(stack, paths)
        for path, img in zip(paths, stack):
            blob = path.read_bytes()
            write_pgms([img], [path])
            assert path.read_bytes() == blob
        back = read_pgms(paths)
        assert back.shape == (4, 6, 5) and back.dtype == np.float64
        for path, img in zip(paths, back):
            assert np.array_equal(img, read_pgm(path))
        assert np.array_equal(back, np.rint(stack * 255.0) / 255.0)
        assert read_pgms([]).shape == (0, 0, 0)

    def test_blocks_write_the_bytes_of_one_image_calls(self, tmp_path):
        # 100 images span two blocks, the second partial; a list stack is
        # written as an array stack is
        stack = np.random.default_rng(6).uniform(0.0, 1.0, size=(100, 6, 5))
        stack[0, 0, 0], stack[99, 5, 4] = 0.0, 1.0
        paths = [tmp_path / f"{k}.pgm" for k in range(100)]
        assert PGM_BLOCK < len(stack) < 2 * PGM_BLOCK
        write_pgms(stack, paths)
        blobs = [p.read_bytes() for p in paths]
        write_pgms(list(stack), paths)
        assert [p.read_bytes() for p in paths] == blobs
        for path, img, blob in zip(paths, stack, blobs):
            write_pgms([img], [path])
            assert path.read_bytes() == blob

    @pytest.mark.parametrize("at", [0, 5])
    @pytest.mark.parametrize("bad", ["nan", "range"])
    def test_bad_image_in_second_block_writes_no_file(self, tmp_path, bad, at):
        images = np.random.default_rng(7).uniform(0.0, 1.0, size=(100, 6, 5))
        k = PGM_BLOCK + at
        images[k][2, 3] = np.nan if bad == "nan" else -0.5
        images[k + 10][0, 0] = 2.0  # a later bad image is not the one named
        paths = [tmp_path / f"{i}.pgm" for i in range(100)]
        with pytest.raises(DataError, match=rf"{k}\.pgm: "):
            write_pgms(images, paths)
        assert not any(p.exists() for p in paths)

    def test_stack_errors_name_the_file(self, tmp_path):
        paths = [tmp_path / f"{k}.pgm" for k in range(3)]
        write_pgms(np.zeros((3, 4, 4)), paths)
        paths[1].write_bytes(b"P6\n4 4\n255\n" + bytes(48))
        with pytest.raises(BadMagicError, match=r"1\.pgm: bad magic b'P6'"):
            read_pgms(paths)
        write_pgms([np.zeros((4, 5))], [paths[2]])
        with pytest.raises(DataError, match=r"2\.pgm: image is 5x4, .*0\.pgm is 4x4"):
            read_pgms([paths[0], paths[2]])
        paths[1].write_bytes(b"P5\n4 4\n255\n" + bytes(15))
        with pytest.raises(TruncatedError, match=r"1\.pgm: expected 16 pixel bytes, found 15"):
            read_pgms(paths)

    @pytest.mark.parametrize("make", [lambda p: None, lambda p: p.mkdir()])
    def test_missing_or_directory_input_names_path(self, tmp_path, make):
        path = tmp_path / "face.pgm"
        make(path)
        with pytest.raises(OSError, match="face.pgm"):
            read_pgm(path)


def byte_loop_tokens(blob: bytes):
    """The header tokenizer as a byte-at-a-time loop, the reference for _pgm_tokens."""
    i = 0
    n = len(blob)
    while i < n:
        c = blob[i : i + 1]
        if c in b" \t\r\n":
            i += 1
            continue
        if c == b"#":
            j = blob.find(b"\n", i)
            i = n if j < 0 else j + 1
            continue
        j = i
        while j < n and blob[j : j + 1] not in b" \t\r\n":
            j += 1
        yield blob[i:j], j
        i = j


HEADER_PIECES = [
    b" ", b"\t", b"\r", b"\n", b"  \n\t", b"#", b"# a comment\n", b"#no newline",
    b"P5", b"32", b"255", b"1#2", b"x#", b"\x00", b"\xff", b"\x0b", b"\x0c",
]


class TestPgmTokens:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.lists(st.sampled_from(HEADER_PIECES), max_size=24).map(b"".join),
            st.binary(max_size=48),
        ),
        st.integers(min_value=0, max_value=64),
    )
    def test_matches_byte_loop(self, header, cut):
        # whole and truncated headers, with pixel-like bytes after them
        for blob in (header, header[:cut], header + bytes(range(256))):
            assert list(_pgm_tokens(blob)) == list(byte_loop_tokens(blob))

    def test_long_whitespace_tail_is_linear(self):
        blob = b"P5" + b" \t" * 50_000 + b"#" * 5_000
        assert list(_pgm_tokens(blob)) == [(b"P5", 2)]


class TestWriteFile:
    def test_shorter_rewrite_leaves_only_new_bytes(self, tmp_path):
        path = tmp_path / "f.bin"
        write_file(path, b"a much longer first version\n")
        write_file(path, b"short")
        assert path.read_bytes() == b"short"

    def test_new_file_mode_matches_open(self, tmp_path):
        with open(tmp_path / "opened.bin", "wb") as f:
            f.write(b"x")
        write_file(tmp_path / "written.bin", b"x")
        modes = [stat.S_IMODE((tmp_path / n).stat().st_mode) for n in ("opened.bin", "written.bin")]
        assert modes[0] == modes[1]

    def test_buffer_objects_written_whole(self, tmp_path):
        payload = bytes(range(256)) * 300
        for blob in (bytearray(payload), memoryview(payload), np.frombuffer(payload, np.uint8)):
            write_file(tmp_path / "b.bin", blob)
            assert (tmp_path / "b.bin").read_bytes() == payload

    def test_blobs_written_in_turn(self, tmp_path):
        # a 2-D float array goes as its row-major bytes, and the file ends with the last blob
        rows = np.arange(12.0).reshape(3, 4)
        write_file(tmp_path / "b.bin", b"a much longer first version" * 10)
        write_file(tmp_path / "b.bin", b"head", rows, b"", b"tail")
        assert (tmp_path / "b.bin").read_bytes() == b"head" + rows.tobytes() + b"tail"


class TestWriteCsv:
    def test_lines_end_in_lf(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b"), [(1, 2.5), (3, -0.125)])
        assert path.read_bytes() == b"a,b\n1,2.5\n3,-0.125\n"

    def test_numpy_scalars_written_as_python_values(self, tmp_path):
        values = [np.float64(0.1), np.float64(1 / 3), np.float64(1e-300), np.int64(-7)]
        write_csv(tmp_path / "numpy.csv", ("v",), [(v,) for v in values])
        write_csv(tmp_path / "python.csv", ("v",), [(v.item(),) for v in values])
        blob = (tmp_path / "numpy.csv").read_bytes()
        assert blob == (tmp_path / "python.csv").read_bytes()
        assert blob == b"v\n0.1\n0.3333333333333333\n1e-300\n-7\n"

    def test_commas_and_newlines_read_back(self, tmp_path):
        path = tmp_path / "q.csv"
        rows = [("a,b", "line one\nline two"), ('say "hi"', "cr\rinside"), ("\r\n", "")]
        write_csv(path, ("x", "y"), rows)
        with open(path, newline="") as f:
            assert list(csv.reader(f)) == [["x", "y"], *map(list, rows)]

    def test_header_alone_is_one_line(self, tmp_path):
        path = tmp_path / "h.csv"
        write_csv(path, ("i", "j", "distance"), [])
        assert path.read_bytes() == b"i,j,distance\n"
