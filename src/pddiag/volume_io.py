"""Bit-exact I/O for a minimal uncompressed NIfTI-1 subset, plus atlas handling.

Only single-file volumes (magic ``n+1\\0``) with dim[0]=3 and datatypes
uint8 (2), int16 (4), float32 (16) are accepted, unscaled; anything else errors
loudly. Normative header offsets: 0 (sizeof_hdr), 40 (dim), 70 (datatype),
108 (vox_offset), 112 (scl_slope), 116 (scl_inter), 344 (magic).

Axis convention: a volume has dims (D, H, W) with W the fastest-varying axis
in the payload, i.e. ``data[d, h, w]`` as a C-ordered (D, H, W) array stores
the standard NIfTI x-fastest element sequence with (x, y, z) = (W, H, D).
All voxel values are widened to float64 on load.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .atomic import replacing

HEADER_SIZE = 348
MAGIC = b"n+1\x00"

# NIfTI datatype code -> (numpy dtype char, bitpix)
SUPPORTED_DATATYPES = {2: ("u1", 8), 4: ("i2", 16), 16: ("f4", 32)}

DTYPE_UINT8 = 2
DTYPE_INT16 = 4
DTYPE_FLOAT32 = 16


class NiftiFormatError(ValueError):
    """Base class for malformed or unsupported volume files."""


class BadMagic(NiftiFormatError):
    pass


class UnsupportedDatatype(NiftiFormatError):
    pass


class UnsupportedDimensionality(NiftiFormatError):
    pass


class TruncatedHeader(NiftiFormatError):
    pass


class TruncatedData(NiftiFormatError):
    pass


class NonFiniteData(NiftiFormatError):
    pass


class ValueOutOfRange(ValueError):
    pass


class DimMismatch(ValueError):
    pass


@dataclass(frozen=True)
class VolumeHeader:
    dims: tuple[int, int, int]
    datatype_code: int = DTYPE_FLOAT32
    vox_offset: int = 352
    endianness: str = "little"
    voxel_size: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if any(int(d) < 1 for d in self.dims):
            raise NiftiFormatError(f"all dims must be >= 1, got {self.dims}")
        if self.datatype_code not in SUPPORTED_DATATYPES:
            raise UnsupportedDatatype(f"datatype code {self.datatype_code} not in {sorted(SUPPORTED_DATATYPES)}")
        if self.vox_offset < HEADER_SIZE:
            raise NiftiFormatError(f"vox_offset {self.vox_offset} < {HEADER_SIZE}")
        if self.endianness not in ("little", "big"):
            raise NiftiFormatError(f"endianness must be 'little' or 'big', got {self.endianness!r}")


@dataclass
class Volume3D:
    header: VolumeHeader
    data: np.ndarray  # (D, H, W) float64, C order

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.data.shape != tuple(self.header.dims):
            raise ValueError(f"data shape {self.data.shape} != header dims {self.header.dims}")
        # min and max propagate NaN and +-inf, so this needs no voxel-sized
        # mask; the header's dims >= 1 keep the array non-empty
        if not (np.isfinite(self.data.min()) and np.isfinite(self.data.max())):
            raise NonFiniteData("volume contains NaN or Inf")

    @classmethod
    def from_array(cls, data: np.ndarray, voxel_size=(1.0, 1.0, 1.0), datatype_code=DTYPE_FLOAT32) -> "Volume3D":
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 3:
            raise ValueError(f"expected a 3-D array, got ndim={data.ndim}")
        hdr = VolumeHeader(dims=data.shape, datatype_code=datatype_code, voxel_size=tuple(voxel_size))
        return cls(header=hdr, data=data)


@dataclass
class AtlasVolume:
    labels: np.ndarray  # (D, H, W) integer labels in [0, region_count]
    region_count: int
    voxel_size: tuple[float, float, float] = field(default=(1.0, 1.0, 1.0))
    # (R,) voxels in each of regions 1..R, read-only; set from labels
    region_sizes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.labels = np.ascontiguousarray(self.labels)
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise ValueError(f"atlas labels must be integers, got dtype {self.labels.dtype}")
        if self.labels.ndim != 3:
            raise ValueError(f"atlas must be 3-D, got ndim={self.labels.ndim}")
        r = int(self.region_count)
        lo, hi = int(self.labels.min()), int(self.labels.max())
        if lo < 0 or hi > r:
            raise ValueError(f"atlas labels must lie in [0, {r}], found range [{lo}, {hi}]")
        counts = np.bincount(self.labels.ravel(), minlength=r + 1)
        empty = np.nonzero(counts[1:] == 0)[0] + 1
        if empty.size:
            raise ValueError(f"atlas regions with no voxels: {empty.tolist()}")
        self.region_sizes = counts[1:]
        self.region_sizes.flags.writeable = False

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.labels.shape


def parse_header(buf: bytes) -> VolumeHeader:
    """Decode a 348-byte NIfTI-1 header, inferring endianness from sizeof_hdr."""
    if len(buf) < HEADER_SIZE:
        raise TruncatedHeader(f"header needs {HEADER_SIZE} bytes, got {len(buf)}")
    if struct.unpack_from("<i", buf, 0)[0] == HEADER_SIZE:
        end = "<"
        endianness = "little"
    elif struct.unpack_from(">i", buf, 0)[0] == HEADER_SIZE:
        end = ">"
        endianness = "big"
    else:
        raise NiftiFormatError("sizeof_hdr is not 348 in either byte order; not a NIfTI-1 header")
    if buf[344:348] != MAGIC:
        raise BadMagic(f"magic {buf[344:348]!r} is not {MAGIC!r} (only single-file n+1 volumes supported)")
    dim = struct.unpack_from(end + "8h", buf, 40)
    if dim[0] != 3:
        raise UnsupportedDimensionality(f"dim[0] = {dim[0]}, only 3-D volumes supported")
    datatype = struct.unpack_from(end + "h", buf, 70)[0]
    # x (dim[1]) is fastest in the payload; map (x, y, z) -> (W, H, D)
    dims = (int(dim[3]), int(dim[2]), int(dim[1]))
    pixdim = struct.unpack_from(end + "8f", buf, 76)
    vox_offset_f = struct.unpack_from(end + "f", buf, 108)[0]
    if not math.isfinite(vox_offset_f):
        raise NiftiFormatError(f"vox_offset {vox_offset_f} is not finite")
    slope, inter = struct.unpack_from(end + "2f", buf, 112)  # slope 0 means no scaling
    if slope != 0.0 and (slope, inter) != (1.0, 0.0):
        raise NiftiFormatError(f"scl_slope {slope} and scl_inter {inter} ask for intensity scaling, not supported")
    # VolumeHeader refuses an unsupported datatype, a dim below 1 and a vox_offset inside the header
    return VolumeHeader(
        dims=dims,
        datatype_code=int(datatype),
        vox_offset=int(round(vox_offset_f)),
        endianness=endianness,
        voxel_size=(float(pixdim[1]), float(pixdim[2]), float(pixdim[3])),
    )


def _build_header_bytes(header: VolumeHeader) -> bytes:
    _, bitpix = SUPPORTED_DATATYPES[header.datatype_code]
    buf = bytearray(HEADER_SIZE)
    struct.pack_into("<i", buf, 0, HEADER_SIZE)
    d, h, w = header.dims
    struct.pack_into("<8h", buf, 40, 3, w, h, d, 1, 1, 1, 1)
    struct.pack_into("<h", buf, 70, header.datatype_code)
    struct.pack_into("<h", buf, 72, bitpix)
    dx, dy, dz = header.voxel_size
    struct.pack_into("<8f", buf, 76, 1.0, dx, dy, dz, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", buf, 108, float(header.vox_offset))
    buf[344:348] = MAGIC
    return bytes(buf)


# payload bytes read and converted at a time, so the raw payload is never
# held whole beside the converted array
_CHUNK_BYTES = 1 << 17


def _read_payload(fh, path, header: VolumeHeader, out_dtype) -> np.ndarray:
    """Read the payload the header declares from the open file ``fh`` into a fresh (D, H, W) array of out_dtype.

    The size check comes before the read, so a header that declares more
    voxels than memory can hold fails as TruncatedData, not MemoryError.
    The payload is read in chunks of _CHUNK_BYTES, each converted into the
    output at once. ``path`` names the file in errors.
    """
    dtype_char, _ = SUPPORTED_DATATYPES[header.datatype_code]
    d, h, w = header.dims
    dt = np.dtype(("<" if header.endianness == "little" else ">") + dtype_char)
    count = d * h * w
    need = count * dt.itemsize
    have = os.fstat(fh.fileno()).st_size - header.vox_offset
    if have < need:
        raise TruncatedData(f"{path}: payload has {max(have, 0)} bytes, need {need}")
    fh.seek(header.vox_offset)
    out = np.empty(count, dtype=out_dtype)
    chunk = bytearray(min(need, _CHUNK_BYTES))
    step = len(chunk) // dt.itemsize
    for i in range(0, count, step):
        n = min(step, count - i)
        got = fh.readinto(memoryview(chunk)[: n * dt.itemsize])
        if got < n * dt.itemsize:
            raise TruncatedData(f"{path}: payload has {i * dt.itemsize + got} bytes, need {need}")
        out[i : i + n] = np.frombuffer(chunk, dtype=dt, count=n)
    return out.reshape(d, h, w)


def read_volume(path) -> Volume3D:
    """Load a volume; integer payloads convert exactly, float32 widens to float64."""
    with open(path, "rb") as fh:
        header = parse_header(fh.read(HEADER_SIZE))
        data = _read_payload(fh, path, header, np.float64)
    try:
        return Volume3D(header=header, data=data)
    except NonFiniteData as exc:
        raise NonFiniteData(f"{path}: {exc}") from None


def write_volume(volume: Volume3D, path) -> None:
    """Write little-endian header + zero padding to vox_offset + payload, in the header's datatype.

    NaN, Inf and values the datatype cannot hold are refused before the file is opened.
    """
    header = volume.header
    code = header.datatype_code
    dtype_char, _ = SUPPORTED_DATATYPES[code]
    data = volume.data
    lo, hi = data.min(), data.max()  # NaN and +-inf propagate, see Volume3D
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NonFiniteData(f"{path}: volume contains NaN or Inf")
    if code in (DTYPE_UINT8, DTYPE_INT16):
        info = np.iinfo(np.dtype(dtype_char))
        if (data != np.round(data)).any():
            raise ValueOutOfRange(f"non-integral values cannot be written as datatype {code}")
        if lo < info.min or hi > info.max:
            raise ValueOutOfRange(f"values in [{lo}, {hi}] exceed [{info.min}, {info.max}] for datatype {code}")
    elif max(hi, -lo) > np.finfo(np.float32).max:
        raise ValueOutOfRange("values exceed float32 range")
    payload = data.astype("<" + dtype_char, order="C")
    with replacing(path) as tmp, open(tmp, "wb") as fh:
        fh.write(_build_header_bytes(header))
        fh.write(b"\x00" * (header.vox_offset - HEADER_SIZE))
        fh.write(payload)


def read_atlas(path, region_count: int) -> AtlasVolume:
    """Load an integer-datatype volume as an atlas of ``region_count`` regions."""
    with open(path, "rb") as fh:
        header = parse_header(fh.read(HEADER_SIZE))
        if header.datatype_code not in (DTYPE_UINT8, DTYPE_INT16):
            raise UnsupportedDatatype(f"atlas requires an integer datatype, file has code {header.datatype_code}")
        labels = _read_payload(fh, path, header, np.int64)
    return AtlasVolume(labels=labels, region_count=int(region_count), voxel_size=header.voxel_size)


def write_atlas(atlas: AtlasVolume, path) -> None:
    code = DTYPE_UINT8 if atlas.region_count <= 255 else DTYPE_INT16
    vol = Volume3D.from_array(atlas.labels.astype(np.float64), voxel_size=atlas.voxel_size, datatype_code=code)
    write_volume(vol, path)
