"""Raw volume ingestion, sidecar headers, and the analytic benchmark
fields."""

import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from boxqi import volume


def test_header_validation():
    with pytest.raises(ValueError):
        volume.VolumeHeader((12, 14, 14))          # below minimum extent
    with pytest.raises(ValueError):
        volume.VolumeHeader((14, 14))              # not three dims
    with pytest.raises(ValueError):
        volume.VolumeHeader((14, 14, 14), dtype="f32")
    with pytest.raises(ValueError):
        volume.VolumeHeader((14, 14, 14), endianness="native")
    with pytest.raises(ValueError):
        volume.VolumeHeader((14, 14, 14), spacing=(1.0, 0.0, 1.0))


def test_header_json_round_trip():
    h = volume.VolumeHeader((256, 256, 99), dtype="u16", endianness="big",
                            spacing=(0.7, 0.7, 1.5))
    again = volume.VolumeHeader.from_json(h.to_json())
    assert again == h
    minimal = volume.VolumeHeader.from_json('{"dims": [13, 13, 13]}')
    assert minimal.dtype == "u8" and minimal.endianness == "little"
    assert minimal.spacing is None
    with pytest.raises(ValueError):
        volume.VolumeHeader.from_json('{"dims": [13,13,13], "zoom": 2}')
    with pytest.raises(ValueError):
        volume.VolumeHeader.from_json("not json")


def test_header_derived_properties():
    h = volume.VolumeHeader((256, 256, 99), dtype="u16")
    assert h.nbytes == 256 * 256 * 99 * 2
    assert h.numpy_dtype == np.dtype("<u2")
    grid = h.grid()
    assert grid.m == (254, 254, 97)
    assert grid.h == 1.0
    # physical spacing is carried as metadata only; geometry stays cubic
    spaced = volume.VolumeHeader((16, 16, 16), spacing=(0.5, 0.5, 0.5))
    assert spaced.grid().h == 1.0


def test_raw_round_trip_u8(rng):
    header = volume.VolumeHeader((13, 13, 13))
    samples = rng.integers(0, 256, size=(13, 13, 13)).astype(np.float64)
    blob = volume.write_raw(header, samples)
    assert len(blob) == header.nbytes
    back, grid = volume.read_raw(header, blob)
    np.testing.assert_array_equal(back, samples)
    assert grid.m == (11, 11, 11)
    assert volume.write_raw(header, back) == blob
    assert not back.flags.writeable


def test_raw_round_trip_u16_big_endian(rng):
    header = volume.VolumeHeader((13, 14, 15), dtype="u16", endianness="big")
    samples = rng.integers(0, 65536, size=(13, 14, 15)).astype(np.float64)
    blob = volume.write_raw(header, samples)
    back, _ = volume.read_raw(header, blob)
    np.testing.assert_array_equal(back, samples)
    # native float64 in C order: `qi.approximate` takes it without a copy
    assert back.dtype == np.float64 and back.flags.c_contiguous


def test_raw_stream_is_x_fastest():
    header = volume.VolumeHeader((13, 13, 13))
    blob = bytearray(header.nbytes)
    blob[1] = 200  # second scalar in the stream
    samples, _ = volume.read_raw(header, bytes(blob))
    assert samples[1, 0, 0] == 200
    assert samples.sum() == 200


def test_raw_error_paths(rng):
    header = volume.VolumeHeader((13, 13, 13))
    with pytest.raises(ValueError):
        volume.read_raw(header, b"\0" * (header.nbytes - 1))
    with pytest.raises(ValueError):
        volume.write_raw(header, np.full((13, 13, 13), 0.5))   # not integral
    with pytest.raises(ValueError):
        volume.write_raw(header, np.full((13, 13, 13), 300.0))  # > u8 range
    with pytest.raises(ValueError):
        volume.write_raw(header, np.zeros((13, 13, 12)))


def test_save_load_volume_with_sidecar(rng, tmp_path):
    header = volume.VolumeHeader((13, 13, 14), dtype="u16",
                                 spacing=(1.0, 1.0, 2.0))
    samples = rng.integers(0, 4096, size=(13, 13, 14)).astype(np.float64)
    path = tmp_path / "scan.raw"
    volume.save_volume(path, header, samples)
    assert (tmp_path / "scan.raw.json").exists()
    back, grid, header_back = volume.load_volume(path)
    np.testing.assert_array_equal(back, samples)
    assert header_back == header
    assert grid.m == (11, 11, 12)
    # explicit sidecar location
    other = tmp_path / "elsewhere.json"
    other.write_text(header.to_json())
    back2, _, _ = volume.load_volume(path, header_path=other)
    np.testing.assert_array_equal(back2, samples)
    with pytest.raises(ValueError):
        volume.load_volume(tmp_path / "missing.raw")  # no sidecar header


def test_benchmark_field_values():
    assert set(volume.TEST_FUNCTIONS) == {"f1", "f2", "f3"}
    f1 = volume.TEST_FUNCTIONS["f1"]
    f2 = volume.TEST_FUNCTIONS["f2"]
    f3 = volume.TEST_FUNCTIONS["f3"]
    assert (f1.lo, f1.hi) == (-1.0, 1.0) and f1.side == 2.0
    assert (f2.lo, f2.hi) == (0.0, 1.0)
    assert (f3.lo, f3.hi) == (-0.5, 0.5)
    # closed-form landmark values
    np.testing.assert_allclose(f1(np.zeros((1, 3)))[0], 0.6, rtol=1e-14)
    np.testing.assert_allclose(f3(np.zeros((1, 3)))[0], math.tanh(1.0) / 9,
                               rtol=1e-14)
    # translated evaluation: on_omega shifts the domain cube to the origin
    p = np.array([[0.25, 0.5, 0.75]])
    np.testing.assert_allclose(f3.on_omega(p + 0.5)[0], f3(p)[0], rtol=1e-14)


def test_f2_is_sum_of_four_gaussians():
    f2 = volume.TEST_FUNCTIONS["f2"]
    pts = np.array([[0.0, 0.0, 0.0], [0.5, 0.25, 0.5], [1.0, 1.0, 1.0]])

    def explicit(x, y, z):
        t1 = 0.50 * np.exp(-10 * ((x - 0.25) ** 2 + (y - 0.25) ** 2))
        t2 = 0.75 * np.exp(-16 * ((x - 0.50) ** 2 + (y - 0.25) ** 2
                                  + (z - 0.25) ** 2))
        t3 = 0.50 * np.exp(-10 * ((x - 0.75) ** 2 + (y - 0.125) ** 2
                                  + (z - 0.50) ** 2))
        t4 = -0.25 * np.exp(-20 * ((x - 0.75) ** 2 + (y - 0.75) ** 2))
        return t1 + t2 + t3 + t4

    np.testing.assert_allclose(f2(pts), explicit(*pts.T), rtol=1e-13)


def test_sample_test_function_layout():
    samples, grid, fn = volume.sample_test_function("f2", 16)
    assert samples.shape == (18, 18, 18)
    assert grid.m == (16, 16, 16)
    np.testing.assert_allclose(grid.h, 1 / 16)
    assert not samples.flags.writeable
    # boundary sample sits exactly on the domain corner
    np.testing.assert_allclose(samples[0, 0, 0],
                               fn(np.array([[fn.lo] * 3]))[0], rtol=1e-14)
    with pytest.raises(ValueError):
        volume.sample_test_function("f9", 16)


@pytest.mark.parametrize("m", [16.9, (16.9, 16.9, 16.9), True, "16",
                               np.True_, None, {16}, np.array(16), (16, 16),
                               [16, 16, 16, 16], [16, [16, 16]]])
def test_sample_test_function_rejects_a_non_integer_m(m):
    """m, or each of its three entries, is the grid's cube count as given:
    16.9 is not truncated to 16, and anything but one count or three fails
    with the same ValueError, never a TypeError or a silent m = 16."""
    with pytest.raises(ValueError, match="positive integers"):
        volume.sample_test_function("f2", m)


def test_sample_test_function_takes_one_count_or_three_equal():
    """Three equal counts, numpy's included, sample the m^3 grid of one
    count, with the grid's counts stored as Python ints; unequal ones are
    not a cube."""
    samples, grid, _ = volume.sample_test_function("f2", 16)
    for m in [(16, 16, 16), np.array([16, 16, 16]), np.int64(16)]:
        got, got_grid, _ = volume.sample_test_function("f2", m)
        assert got_grid == grid and all(type(c) is int for c in got_grid.m)
        assert np.array_equal(got, samples)
    with pytest.raises(ValueError, match="must be uniform"):
        volume.sample_test_function("f2", (16, 16, 17))


def test_volume_pipeline_demo_runs(capsys, tmp_path):
    """The demo writes a 256 x 256 x 99 raw scan, reads it back, fits it
    and extracts a non-empty isosurface, all inside its directory."""
    path = Path(__file__).parents[1] / "demos" / "volume_pipeline.py"
    spec = importlib.util.spec_from_file_location("volume_pipeline", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main(["--dir", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert "volume grid: m = (254, 254, 97), h = 1.0" in lines
    counts = re.fullmatch(r"isovalue 24000: (\d+) vertices, (\d+) "
                          r"triangles -> .*scan\.obj", lines[-1])
    assert counts and min(int(n) for n in counts.groups()) > 0
    assert (tmp_path / "scan.obj").stat().st_size > 0
