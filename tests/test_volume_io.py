import contextlib
import errno
import functools
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pddiag import volume_io as vio


def build_header_bytes(
    dims_xyz=(16, 16, 16),
    datatype=16,
    vox_offset=352.0,
    magic=b"n+1\x00",
    byte_order="<",
    ndim=3,
    pixdim=(1.0, 1.0, 1.0),
    scl=(0.0, 0.0),
):
    """Construct a header independently of the library, field by field."""
    buf = bytearray(348)
    struct.pack_into(byte_order + "i", buf, 0, 348)
    nx, ny, nz = dims_xyz
    struct.pack_into(byte_order + "8h", buf, 40, ndim, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into(byte_order + "h", buf, 70, datatype)
    struct.pack_into(byte_order + "8f", buf, 76, 1.0, *pixdim, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into(byte_order + "f", buf, 108, vox_offset)
    struct.pack_into(byte_order + "2f", buf, 112, *scl)
    buf[344:348] = magic
    return bytes(buf)


class TestParseHeader:
    def test_little_endian_fixture(self):
        hdr = vio.parse_header(build_header_bytes())
        assert hdr.dims == (16, 16, 16)
        assert hdr.datatype_code == 16
        assert hdr.vox_offset == 352
        assert hdr.endianness == "little"

    def test_big_endian_fixture_matches_little(self):
        le = vio.parse_header(build_header_bytes(byte_order="<"))
        be = vio.parse_header(build_header_bytes(byte_order=">"))
        assert be.endianness == "big"
        assert be.dims == le.dims
        assert be.datatype_code == le.datatype_code
        assert be.vox_offset == le.vox_offset

    def test_axis_mapping_x_is_w(self):
        # dim[1]=10 (x, fastest) / dim[2]=12 / dim[3]=14 -> (D, H, W) = (14, 12, 10)
        hdr = vio.parse_header(build_header_bytes(dims_xyz=(10, 12, 14)))
        assert hdr.dims == (14, 12, 10)

    def test_two_file_magic_rejected(self):
        with pytest.raises(vio.BadMagic):
            vio.parse_header(build_header_bytes(magic=b"ni1\x00"))

    def test_wrong_dimensionality(self):
        with pytest.raises(vio.UnsupportedDimensionality):
            vio.parse_header(build_header_bytes(ndim=4))

    def test_unsupported_datatype(self):
        with pytest.raises(vio.UnsupportedDatatype):
            vio.parse_header(build_header_bytes(datatype=64))  # float64 payload not in the subset

    def test_truncated_header(self):
        with pytest.raises(vio.TruncatedHeader):
            vio.parse_header(build_header_bytes()[:300])

    def test_garbage_sizeof_hdr(self):
        buf = bytearray(build_header_bytes())
        struct.pack_into("<i", buf, 0, 999)
        with pytest.raises(vio.NiftiFormatError):
            vio.parse_header(bytes(buf))

    @pytest.mark.parametrize("vox_offset", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_vox_offset(self, vox_offset):
        with pytest.raises(vio.NiftiFormatError, match="not finite"):
            vio.parse_header(build_header_bytes(vox_offset=vox_offset))

    @pytest.mark.parametrize("scl", [(0.0, 0.0), (-0.0, 0.0), (0.0, 7.0), (1.0, 0.0), (1.0, -0.0)])
    def test_unscaled_header_reads(self, scl):
        assert vio.parse_header(build_header_bytes(scl=scl)).dims == (16, 16, 16)

    @pytest.mark.parametrize(
        "scl", [(2.0, 100.0), (1.0, 5.0), (2.0, 0.0), (-1.0, 0.0), (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0)]
    )
    def test_intensity_scaling_refused(self, scl):
        with pytest.raises(vio.NiftiFormatError, match="scl_slope .* scl_inter"):
            vio.parse_header(build_header_bytes(scl=scl))

    def test_scaled_file_is_not_read_unscaled(self, tmp_path):
        # a reader that ignored the scaling would return 0, 1, 2, 3, not 100, 102, 104, 106
        path = tmp_path / "scaled.nii"
        header = build_header_bytes(dims_xyz=(4, 1, 1), scl=(2.0, 100.0))
        path.write_bytes(header + b"\x00" * 4 + np.arange(4, dtype="<f4").tobytes())
        with pytest.raises(vio.NiftiFormatError, match="scl_slope 2.0 and scl_inter 100.0"):
            vio.read_volume(path)


# (byte offset, width) of the header fields the property test overwrites
MUTABLE_FIELDS = {
    "dim[0]": (40, 2),
    "dim[1:4]": (42, 6),
    "dim[4:8]": (48, 8),
    "datatype": (70, 2),
    "vox_offset": (108, 4),
    "scl_slope": (112, 4),
    "scl_inter": (116, 4),
}


class TestMutatedHeaders:
    @settings(max_examples=300, deadline=None)
    @given(
        byte_order=st.sampled_from(["<", ">"]),
        edits=st.fixed_dictionaries(
            {name: st.none() | st.binary(min_size=n, max_size=n) for name, (_, n) in MUTABLE_FIELDS.items()}
        ),
    )
    def test_only_format_errors_escape(self, tmp_path_factory, byte_order, edits):
        # each field keeps its valid value (None) or gets arbitrary bytes
        payload = np.arange(64, dtype=byte_order + "f4").tobytes()
        buf = bytearray(build_header_bytes(dims_xyz=(4, 4, 4), byte_order=byte_order) + b"\x00" * 4 + payload)
        for name, raw in edits.items():
            if raw is not None:
                offset, width = MUTABLE_FIELDS[name]
                buf[offset : offset + width] = raw
        path = tmp_path_factory.getbasetemp() / "mutated.nii"
        path.write_bytes(bytes(buf))
        for read in (lambda: vio.parse_header(bytes(buf[:348])), lambda: vio.read_volume(path)):
            with contextlib.suppress(vio.NiftiFormatError):
                read()


class TestReadWrite:
    def test_float32_round_trip_bits(self, tmp_path):
        rng = np.random.default_rng(42)
        data = rng.standard_normal((8, 8, 8)).astype(np.float32).astype(np.float64)
        path = tmp_path / "v.nii"
        vio.write_volume(data, path)
        hdr = vio.parse_header(path.read_bytes()[:348])
        assert hdr.dims == (8, 8, 8)
        assert hdr.datatype_code == vio.DTYPE_FLOAT32
        back = vio.read_volume(path)
        assert back.dtype == np.float64 and back.shape == (8, 8, 8)
        assert back.astype("<f4").tobytes() == data.astype("<f4").tobytes()
        assert (back == data).all()

    @pytest.mark.parametrize(
        "read", [vio.read_volume, functools.partial(vio.read_atlas, region_count=1)], ids=["read_volume", "read_atlas"]
    )
    def test_a_read_opens_its_file_once(self, tmp_path, monkeypatch, read):
        path = tmp_path / "v.nii"
        vio.write_volume(np.ones((4, 4, 4)), path, datatype_code=vio.DTYPE_UINT8)
        opened = []
        monkeypatch.setattr(vio, "open", lambda *a, **k: opened.append(a[0]) or open(*a, **k), raising=False)
        read(path)
        assert opened == [path]

    def test_seeded_fixture_regenerates(self, tmp_path):
        # expected values regenerated from the fixture's recorded seed
        seed = 20240917
        data = np.random.default_rng(seed).standard_normal((8, 8, 8)).astype(np.float32)
        vio.write_volume(data.astype(np.float64), tmp_path / "v.nii")
        back = vio.read_volume(tmp_path / "v.nii")
        expected = np.random.default_rng(seed).standard_normal((8, 8, 8)).astype(np.float32).astype(np.float64)
        assert (back == expected).all()

    def test_uint8_exact(self, tmp_path):
        vio.write_volume(np.full((4, 4, 4), 255.0), tmp_path / "u8.nii", datatype_code=vio.DTYPE_UINT8)
        back = vio.read_volume(tmp_path / "u8.nii")
        assert (back == 255.0).all()
        assert vio.parse_header((tmp_path / "u8.nii").read_bytes()[:348]).datatype_code == vio.DTYPE_UINT8

    def test_int16_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        data = rng.integers(-32768, 32768, size=(5, 4, 8)).astype(np.float64)
        vio.write_volume(data, tmp_path / "i16.nii", datatype_code=vio.DTYPE_INT16)
        assert (vio.read_volume(tmp_path / "i16.nii") == data).all()

    def test_value_out_of_range_uint8(self, tmp_path):
        with pytest.raises(vio.ValueOutOfRange):
            vio.write_volume(np.full((2, 2, 4), 300.0), tmp_path / "x.nii", datatype_code=vio.DTYPE_UINT8)

    @pytest.mark.parametrize("value", [4e38, -4e38])
    def test_float32_overflow_rejected_either_sign(self, tmp_path, value):
        data = np.zeros((2, 2, 4))
        data[1, 1, 3] = value
        with pytest.raises(vio.ValueOutOfRange, match="float32"):
            vio.write_volume(data, tmp_path / "x.nii", datatype_code=vio.DTYPE_FLOAT32)
        assert not (tmp_path / "x.nii").exists()

    @pytest.mark.parametrize("code", [vio.DTYPE_UINT8, vio.DTYPE_INT16, vio.DTYPE_FLOAT32])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_voxel_refused_on_write(self, tmp_path, bad, code):
        data = np.zeros((2, 2, 4))
        data[1, 0, 2] = bad
        with pytest.raises(vio.NonFiniteData, match="x.nii"):
            vio.write_volume(data, tmp_path / "x.nii", datatype_code=code)
        assert list(tmp_path.iterdir()) == []

    def test_non_integral_rejected_for_int_target(self, tmp_path):
        with pytest.raises(vio.ValueOutOfRange):
            vio.write_volume(np.full((2, 2, 4), 1.5), tmp_path / "x.nii", datatype_code=vio.DTYPE_UINT8)

    def test_file_size_arithmetic(self, tmp_path):
        path = tmp_path / "z.nii"
        vio.write_volume(np.zeros((4, 4, 4)), path)
        # 348 header + 4 pad to 352 + 64 voxels * 4 bytes
        assert path.stat().st_size == 352 + 64 * 4

    def test_write_then_parse_header(self, tmp_path):
        path = tmp_path / "h.nii"
        vio.write_volume(np.zeros((6, 5, 4)), path, datatype_code=vio.DTYPE_INT16)
        hdr = vio.parse_header(path.read_bytes()[:348])
        assert hdr.dims == (6, 5, 4)
        assert hdr.datatype_code == vio.DTYPE_INT16

    def test_big_endian_payload_reads(self, tmp_path):
        data = np.arange(24, dtype=">f4").reshape(2, 3, 4)
        hdr = build_header_bytes(dims_xyz=(4, 3, 2), byte_order=">")
        path = tmp_path / "be.nii"
        path.write_bytes(hdr + b"\x00" * 4 + data.tobytes())
        assert vio.parse_header(path.read_bytes()[:348]).endianness == "big"
        assert (vio.read_volume(path) == np.arange(24).reshape(2, 3, 4)).all()

    @pytest.mark.parametrize("byte_order", ["<", ">"])
    @pytest.mark.parametrize("code", [vio.DTYPE_UINT8, vio.DTYPE_INT16, vio.DTYPE_FLOAT32])
    def test_payload_spanning_chunks_reads_exactly(self, tmp_path, code, byte_order):
        dims = (11, 50, 301)  # several chunks for every datatype, the last one partial
        dt = np.dtype(byte_order + vio.SUPPORTED_DATATYPES[code][0])
        size = dt.itemsize * math.prod(dims)
        assert size > vio._CHUNK_BYTES and size % vio._CHUNK_BYTES
        rng = np.random.default_rng(code)
        if dt.kind == "f":
            payload = rng.standard_normal(dims).astype(dt)
        else:
            payload = rng.integers(np.iinfo(dt).min, np.iinfo(dt).max, size=dims, endpoint=True).astype(dt)
        path = tmp_path / "chunks.nii"
        header = build_header_bytes(dims_xyz=dims[::-1], datatype=code, byte_order=byte_order)
        path.write_bytes(header + b"\x00" * 4 + payload.tobytes())
        assert vio.read_volume(path).tobytes() == payload.astype(np.float64).tobytes()

    def test_read_peak_holds_no_whole_raw_payload(self, tmp_path):
        # the float64 result takes 2.1 MB; the 1 MB float32 payload beside it
        # made the peak 3.15 MB
        path = tmp_path / "v64.nii"
        vio.write_volume(np.ones((64, 64, 64)), path, datatype_code=vio.DTYPE_FLOAT32)
        tracemalloc.start()
        try:
            vol = vio.read_volume(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (vol == 1.0).all()
        assert peak <= 2.5e6

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.nii"
        path.write_bytes(build_header_bytes(dims_xyz=(4, 4, 4)) + b"\x00" * 10)
        with pytest.raises(vio.TruncatedData):
            vio.read_volume(path)

    def test_nan_payload_rejected(self, tmp_path):
        payload = np.full(8, np.nan, dtype="<f4").tobytes()
        path = tmp_path / "n.nii"
        path.write_bytes(build_header_bytes(dims_xyz=(2, 2, 2)) + b"\x00" * 4 + payload)
        with pytest.raises(vio.NonFiniteData, match="n.nii"):
            vio.read_volume(path)

    @pytest.mark.parametrize("byte_order", ["<", ">"])
    @pytest.mark.parametrize("where", [0, 12, 23], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_one_non_finite_voxel_rejected(self, tmp_path, bad, where, byte_order):
        payload = np.arange(24, dtype=byte_order + "f4")
        payload[where] = bad
        path = tmp_path / "one.nii"
        header = build_header_bytes(dims_xyz=(4, 3, 2), byte_order=byte_order)
        path.write_bytes(header + b"\x00" * 4 + payload.tobytes())
        with pytest.raises(vio.NonFiniteData, match="one.nii"):
            vio.read_volume(path)
        with pytest.raises(vio.NonFiniteData, match="two.nii"):
            vio.write_volume(payload.astype(np.float64).reshape(2, 3, 4), tmp_path / "two.nii")
        assert not (tmp_path / "two.nii").exists()

    @pytest.mark.parametrize(
        "read", [vio.read_volume, functools.partial(vio.read_atlas, region_count=1)], ids=["read_volume", "read_atlas"]
    )
    def test_oversized_header_is_truncated_data(self, tmp_path, read):
        # 32767³ voxels: reading before checking the file size ran out of memory
        path = tmp_path / "huge.nii"
        path.write_bytes(build_header_bytes(dims_xyz=(32767,) * 3, datatype=vio.DTYPE_UINT8) + b"\x00" * 68)
        with pytest.raises(vio.TruncatedData):
            read(path)

    def test_vox_offset_past_end_of_file(self, tmp_path):
        path = tmp_path / "far.nii"
        path.write_bytes(build_header_bytes(dims_xyz=(2, 2, 2), vox_offset=1e30) + b"\x00" * 36)
        with pytest.raises(vio.TruncatedData):
            vio.read_volume(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            vio.read_volume(tmp_path / "nope.nii")

    def test_nonstandard_vox_offset_honored(self, tmp_path):
        payload = np.arange(8, dtype="<f4")
        path = tmp_path / "off.nii"
        hdr = build_header_bytes(dims_xyz=(2, 2, 2), vox_offset=400.0)
        path.write_bytes(hdr + b"\x00" * (400 - 348) + payload.tobytes())
        assert vio.parse_header(path.read_bytes()[:348]).vox_offset == 400
        back = vio.read_volume(path)
        assert (back.ravel() == np.arange(8)).all()
        # the writer puts the same voxels at the standard offset
        out = tmp_path / "off2.nii"
        vio.write_volume(back, out)
        assert out.stat().st_size == 352 + 8 * 4
        assert vio.parse_header(out.read_bytes()[:348]).vox_offset == 352
        assert vio.read_volume(out).tobytes() == back.tobytes()

    def test_write_failing_partway_leaves_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "v.nii"
        vio.write_volume(np.zeros((4, 4, 4)), path)
        before = path.read_bytes()

        class DiskFull:
            """A file that takes the header, then fails the next write like a full disk."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, b):
                self.writes += 1
                if self.writes > 1:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(b)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(vio, "open", lambda *a, **k: DiskFull(open(*a, **k)), raising=False)
        with pytest.raises(OSError, match="No space"):
            vio.write_volume(np.ones((4, 4, 4)), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["v.nii"]


class TestAtlas:
    @pytest.mark.parametrize("region_count, code", [(3, vio.DTYPE_UINT8), (300, vio.DTYPE_INT16)], ids=["3", "300"])
    def test_atlas_round_trip(self, tmp_path, region_count, code):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, region_count + 1, size=(8, 8, 8))
        labels.flat[:region_count] = np.arange(1, region_count + 1)  # force every region nonempty
        atlas = vio.AtlasVolume(labels=labels, region_count=region_count)
        vio.write_atlas(atlas, tmp_path / "a.nii")
        assert vio.parse_header((tmp_path / "a.nii").read_bytes()[:348]).datatype_code == code
        back = vio.read_atlas(tmp_path / "a.nii", region_count=region_count)
        assert (back.labels == labels).all()
        assert back.region_count == region_count

    def test_atlas_rejects_float_datatype(self, tmp_path):
        vio.write_volume(np.ones((4, 4, 4)), tmp_path / "f.nii", datatype_code=vio.DTYPE_FLOAT32)
        with pytest.raises(vio.UnsupportedDatatype):
            vio.read_atlas(tmp_path / "f.nii", region_count=1)

    def test_region_sizes_counted_at_construction(self):
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 5, size=(5, 6, 7))
        labels.flat[:4] = [1, 2, 3, 4]
        atlas = vio.AtlasVolume(labels=labels, region_count=4)
        assert atlas.region_sizes.tolist() == [int((labels == r).sum()) for r in range(1, 5)]
        assert not atlas.region_sizes.flags.writeable

    def test_empty_region_rejected(self):
        labels = np.ones((4, 4, 4), dtype=np.int64)
        with pytest.raises(ValueError, match="no voxels"):
            vio.AtlasVolume(labels=labels, region_count=2)

    def test_label_above_region_count_rejected(self):
        labels = np.full((4, 4, 4), 5, dtype=np.int64)
        with pytest.raises(ValueError, match=r"\[0, 3\]"):
            vio.AtlasVolume(labels=labels, region_count=3)


@pytest.mark.parametrize(
    "refused, error, message",
    [
        (lambda _: vio.VolumeHeader(dims=(2, 2, 2), endianness="middle"), vio.NiftiFormatError,
         "endianness must be 'little' or 'big', got 'middle'"),
        (lambda out: vio.write_volume(np.zeros((2, 2, 2)), out / "v.nii", datatype_code=64), vio.UnsupportedDatatype,
         "datatype code 64 not in [2, 4, 16]"),
        (lambda out: vio.write_volume(np.zeros((2, 2)), out / "v.nii"), ValueError,
         "expected a 3-D array, got ndim=2"),
        (lambda out: vio.write_volume(np.zeros((1, 1, 40000)), out / "v.nii"), vio.NiftiFormatError,
         "all dims must lie in [1, 32767], got (1, 1, 40000)"),
        (lambda _: vio.AtlasVolume(labels=np.ones((2, 2, 2)), region_count=1), ValueError,
         "atlas labels must be integers, got dtype float64"),
        (lambda _: vio.AtlasVolume(labels=np.ones((2, 2), dtype=np.int64), region_count=1), ValueError,
         "atlas must be 3-D, got ndim=2"),
    ],
    ids=["endianness", "write-unsupported-datatype", "from-2d-array", "write-int16-overflowing-dim", "float-atlas",
         "2d-atlas"],
)  # fmt: skip
def test_documented_refusal(tmp_path, refused, error, message):
    """A refusal raises its own error type with this message, and no write leaves a file behind."""
    with pytest.raises(error) as caught:
        refused(tmp_path)
    assert type(caught.value) is error and str(caught.value) == message
    assert list(tmp_path.iterdir()) == []
