"""Image I/O, the embedding simulator, augmentation, and paired batching.

Images are 8-bit grayscale, stored row-major. Files use the binary PGM (P5)
format with maxval 255. A dataset is a list of (cover, stego, id) pairs with
a split label; batches always interleave each pair's cover (label 0) and
stego (label 1) so every batch is half-and-half by construction.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DataError, FormatError, SpecError
from .tensor import Tensor

SPLITS = ("train", "validation", "test")
AUGMENTATIONS = ("none", "dihedral8")
DIHEDRAL_COUNT = 8


@dataclass(eq=False)
class GrayImage:
    """8-bit grayscale image; ``pixels`` is flat, row-major, length w*h."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.dtype != np.uint8:
            raise DataError(f"pixels must be uint8, got {px.dtype}")
        if self.width < 1 or self.height < 1:
            raise DataError(f"image size must be positive, got {self.width}x{self.height}")
        if px.ndim != 1 or px.size != self.width * self.height:
            raise DataError(
                f"pixel count {px.size} does not match {self.width}x{self.height}"
            )
        self.pixels = np.ascontiguousarray(px)

    def as_array(self) -> np.ndarray:
        """[height, width] view of the pixels."""
        return self.pixels.reshape(self.height, self.width)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "GrayImage":
        a = np.ascontiguousarray(arr)
        if a.ndim != 2:
            raise DataError(f"expected a 2-D array, got shape {a.shape}")
        if a.dtype != np.uint8:
            raise DataError(f"expected uint8 pixels, got {a.dtype}")
        return cls(width=a.shape[1], height=a.shape[0], pixels=a.reshape(-1))


# ---------------------------------------------------------------------------
# PGM (P5) files
# ---------------------------------------------------------------------------

_WHITESPACE = b" \t\r\n\v\f"


def read_pgm(data: bytes) -> GrayImage:
    """Parse a binary PGM (P5, maxval 255) byte string.

    Comments (# to end of line) and runs of whitespace are tolerated between
    header tokens, per the PGM grammar. Errors carry the byte offset of the
    offending spot.
    """
    pos = 0
    n = len(data)

    def skip_separators(p: int) -> int:
        while p < n:
            if data[p : p + 1] in (b"#",):
                while p < n and data[p] not in b"\r\n":
                    p += 1
            elif data[p] in _WHITESPACE:
                p += 1
            else:
                break
        return p

    def token(p: int, what: str) -> tuple[bytes, int]:
        p = skip_separators(p)
        if p >= n:
            raise FormatError(f"unexpected end of file while reading {what}", offset=p)
        start = p
        while p < n and data[p] not in _WHITESPACE and data[p : p + 1] != b"#":
            p += 1
        return data[start:p], p

    magic, pos = token(pos, "magic number")
    if magic != b"P5":
        raise FormatError(f"not a binary PGM: magic {magic[:8]!r}, expected P5", offset=0)

    values = []
    for what in ("width", "height", "maxval"):
        tok, newpos = token(pos, what)
        try:
            val = int(tok)
        except ValueError:
            raise FormatError(f"{what} is not an integer: {tok[:16]!r}", offset=skip_separators(pos))
        if val < 0:
            raise FormatError(f"{what} must be non-negative, got {val}", offset=skip_separators(pos))
        values.append(val)
        pos = newpos
    width, height, maxval = values
    if width < 1 or height < 1:
        raise FormatError(f"degenerate image size {width}x{height}", offset=0)
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}, only 255 is handled", offset=0)

    if pos >= n or data[pos] not in _WHITESPACE:
        raise FormatError("expected a whitespace byte after maxval", offset=pos)
    pos += 1  # exactly one separator byte before the raster

    count = width * height
    if n - pos < count:
        raise FormatError(
            f"raster truncated: expected {count} bytes, found {n - pos}", offset=n
        )
    if n - pos > count:
        raise FormatError(f"{n - pos - count} trailing bytes after raster", offset=pos + count)
    px = np.frombuffer(data, dtype=np.uint8, count=count, offset=pos).copy()
    return GrayImage(width=width, height=height, pixels=px)


def write_pgm(img: GrayImage) -> bytes:
    """Canonical binary PGM bytes: 'P5\\n<w> <h>\\n255\\n' + raster."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def load_pgm(path) -> GrayImage:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return read_pgm(data)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc.args[0]}") from exc


def save_pgm(path, img: GrayImage) -> None:
    with open(path, "wb") as fh:
        fh.write(write_pgm(img))


# ---------------------------------------------------------------------------
# embedding simulator
# ---------------------------------------------------------------------------

def embed_simulate(cover: GrayImage, payload_bpp: float, seed: int) -> GrayImage:
    """Simulated +-1 embedding at a given payload (bits per pixel).

    floor(payload * pixel_count) distinct pixels are selected uniformly;
    each selected pixel is left unchanged with probability 1/2, otherwise
    changed by +-1 (sign uniform), with saturation flips at the range ends
    (0 can only go up, 255 only down). Draw order is fixed: positions, then
    the change coin flips, then the signs, all from PCG64(seed).
    """
    if not (0.0 < payload_bpp <= 1.0):
        raise DataError(f"payload must be in (0, 1] bits per pixel, got {payload_bpp!r}")
    n = cover.pixels.size
    k = int(payload_bpp * n)
    rng = np.random.Generator(np.random.PCG64(seed))
    positions = rng.choice(n, size=k, replace=False)
    change = rng.random(k) < 0.5
    signs = rng.integers(0, 2, size=k).astype(np.int16) * 2 - 1

    px = cover.pixels.astype(np.int16)
    sel = positions[change]
    s = signs[change]
    s = np.where(px[sel] == 0, np.int16(1), s)
    s = np.where(px[sel] == 255, np.int16(-1), s)
    px[sel] += s
    return GrayImage(width=cover.width, height=cover.height,
                     pixels=px.astype(np.uint8))


# ---------------------------------------------------------------------------
# dihedral augmentation
# ---------------------------------------------------------------------------

def augment_dihedral(img: GrayImage) -> list[GrayImage]:
    """The 8 symmetries of the square, in a fixed order: indices 0-3 are
    counter-clockwise rotations by 0/90/180/270 degrees; indices 4-7 apply a
    horizontal mirror first, then the same rotations."""
    arr = img.as_array()
    out = []
    for mirrored in (arr, np.fliplr(arr)):
        for k in range(4):
            out.append(GrayImage.from_array(np.ascontiguousarray(np.rot90(mirrored, k))))
    return out


# ---------------------------------------------------------------------------
# paired datasets and manifests
# ---------------------------------------------------------------------------

class Pair(NamedTuple):
    cover: GrayImage
    stego: GrayImage
    pair_id: str


@dataclass
class PairedDataset:
    pairs: list[Pair] = field(default_factory=list)
    split: str = "train"
    augmentation: str = "none"

    def __post_init__(self):
        if self.split not in SPLITS:
            raise DataError(f"unknown split {self.split!r}; expected one of {SPLITS}")
        if self.augmentation not in AUGMENTATIONS:
            raise DataError(
                f"unknown augmentation {self.augmentation!r}; expected one of {AUGMENTATIONS}"
            )

    def __len__(self) -> int:
        return len(self.pairs)


def apply_dihedral8(ds: PairedDataset) -> PairedDataset:
    """Expand every pair into its 8 dihedral variants; the cover and stego
    of a pair always get the same transform (suffix .t0 ... .t7)."""
    if ds.augmentation == "dihedral8":
        raise DataError("dataset is already dihedral8-augmented")
    pairs = []
    for cover, stego, pair_id in ds.pairs:
        cvars = augment_dihedral(cover)
        svars = augment_dihedral(stego)
        for t in range(DIHEDRAL_COUNT):
            pairs.append(Pair(cvars[t], svars[t], f"{pair_id}.t{t}"))
    return replace(ds, pairs=pairs, augmentation="dihedral8")


def _image_batch(images: list[GrayImage]) -> Tensor:
    h, w = images[0].height, images[0].width
    for img in images:
        if img.height != h or img.width != w:
            raise DataError(
                f"images in a batch must share a size; got {h}x{w} and "
                f"{img.height}x{img.width}"
            )
    stack = np.stack([img.as_array() for img in images]).astype(np.float32)
    return Tensor(stack[:, None, :, :])


def _pair_batches(
    ds: PairedDataset, batch_size: int, seed: int | None
) -> Iterator[tuple[Tensor, list[int]]]:
    """Batches of batch_size/2 pairs, each cover (label 0) followed by its
    stego (label 1). With a seed, the pairs come in a seeded permutation and
    trailing pairs that do not fill a batch are dropped; without one, they
    come in dataset order and the last batch may be smaller."""
    if not isinstance(batch_size, int) or batch_size < 2 or batch_size % 2 != 0:
        raise SpecError(f"batch_size must be a positive even integer, got {batch_size!r}")
    if len(ds.pairs) == 0:
        raise DataError(f"dataset split {ds.split!r} is empty")
    per_batch = batch_size // 2
    if seed is None:
        order, stop = range(len(ds.pairs)), len(ds.pairs)
    else:
        order = np.random.Generator(np.random.PCG64(seed)).permutation(len(ds.pairs))
        stop = len(order) - per_batch + 1
    for start in range(0, stop, per_batch):
        images: list[GrayImage] = []
        labels: list[int] = []
        for idx in order[start : start + per_batch]:
            pair = ds.pairs[idx]
            images += (pair.cover, pair.stego)
            labels += (0, 1)
        yield _image_batch(images), labels


def make_batches(
    ds: PairedDataset, batch_size: int, seed: int
) -> Iterator[tuple[Tensor, list[int]]]:
    """Shuffled pair-aware batches.

    batch_size must be even; each batch holds batch_size/2 pairs with the
    cover (label 0) and its stego (label 1) adjacent, so labels are exactly
    half zeros and half ones. The pair order is a seeded permutation;
    trailing pairs that do not fill a batch are dropped.
    """
    return _pair_batches(ds, batch_size, seed)


def eval_batches(
    ds: PairedDataset, batch_size: int
) -> Iterator[tuple[Tensor, list[int]]]:
    """Deterministic unshuffled batches covering every image exactly once
    (the last batch may be smaller). Pairs stay interleaved cover/stego."""
    return _pair_batches(ds, batch_size, None)


def write_manifest(path, entries: list[tuple[str, str, str, str]]) -> None:
    """Write manifest lines ``<id> <cover-path> <stego-path> <split>``; they
    split on whitespace, so a field that is empty or holds some is an error,
    and so is an id that an earlier entry has (load_manifest refuses both)."""
    lines = []
    ids = set()
    for entry in entries:
        pair_id, cover_path, stego_path, split = entry
        if split not in SPLITS:
            raise DataError(f"unknown split {split!r} for pair {pair_id!r}")
        if any(str(value).split() != [str(value)] for value in entry):
            raise DataError(f"a manifest field of {entry!r} is empty or holds whitespace")
        if pair_id in ids:
            raise DataError(f"duplicate pair id {pair_id!r}")
        ids.add(pair_id)
        lines.append(f"{pair_id} {cover_path} {stego_path} {split}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def load_manifest(path) -> dict[str, PairedDataset]:
    """Load a manifest and the images it references.

    Returns one PairedDataset per split present. Relative image paths are
    resolved against the manifest's directory. Structural problems raise
    FormatError naming the line; unreadable or malformed images raise with
    the image path.
    """
    base = os.path.dirname(os.path.abspath(path))
    datasets: dict[str, PairedDataset] = {}
    seen_ids: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 4:
                raise FormatError(
                    f"{path}:{lineno}: expected '<id> <cover> <stego> <split>', "
                    f"got {len(fields)} fields"
                )
            pair_id, cover_rel, stego_rel, split = fields
            if split not in SPLITS:
                raise FormatError(f"{path}:{lineno}: unknown split {split!r}")
            if pair_id in seen_ids:
                raise FormatError(f"{path}:{lineno}: duplicate pair id {pair_id!r}")
            seen_ids.add(pair_id)
            # join keeps an absolute path as it is
            cover = load_pgm(os.path.join(base, cover_rel))
            stego = load_pgm(os.path.join(base, stego_rel))
            if cover.width != stego.width or cover.height != stego.height:
                raise DataError(
                    f"{path}:{lineno}: cover and stego sizes differ for {pair_id!r}"
                )
            if split not in datasets:
                datasets[split] = PairedDataset(pairs=[], split=split)
            datasets[split].pairs.append(Pair(cover, stego, pair_id))
    return datasets
