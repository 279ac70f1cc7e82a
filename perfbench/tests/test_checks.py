from worker import is_pgm


def write(path, blob):
    path.write_bytes(blob)
    return path


def test_is_pgm_accepts_a_32x32_p5_image(tmp_path):
    # the first pixel byte is whitespace, which must not be read as header
    assert is_pgm(write(tmp_path / "a.pgm", b"P5\n32 32\n255\n" + b"\n" * 1024), 32)


def test_is_pgm_rejects_other_formats_and_sizes(tmp_path):
    assert not is_pgm(write(tmp_path / "b.pgm", b"P2\n32 32\n255\n" + b"\0" * 1024), 32)
    assert not is_pgm(write(tmp_path / "c.pgm", b"P5\n16 16\n255\n" + b"\0" * 256), 32)
    assert not is_pgm(write(tmp_path / "d.pgm", b"P5\n32 32\n255\n" + b"\0" * 1023), 32)
    assert not is_pgm(write(tmp_path / "e.pgm", b"P5\n32 32\n65535\n" + b"\0" * 2048), 32)
    assert not is_pgm(write(tmp_path / "f.pgm", b""), 32)
