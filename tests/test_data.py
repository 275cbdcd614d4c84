"""Image IO, the embedding simulator, augmentation, batching, manifests."""
import numpy as np
import pytest

from stegnet import data
from stegnet.data import (
    GrayImage,
    Pair,
    PairedDataset,
    apply_dihedral8,
    augment_dihedral,
    embed_simulate,
    eval_batches,
    load_manifest,
    make_batches,
    read_pgm,
    write_pgm,
    write_manifest,
)
from stegnet.errors import DataError, FormatError, SpecError

from conftest import textured_cover


def marked_image():
    """4x4 image with distinct values so every symmetry is distinguishable."""
    return GrayImage.from_array(np.arange(16, dtype=np.uint8).reshape(4, 4))


# ---------------------------------------------------------------------------
# PGM round trips and parsing
# ---------------------------------------------------------------------------

def test_pgm_round_trip_is_bitwise(small_rng):
    img = textured_cover(small_rng, 16)
    again = read_pgm(write_pgm(img))
    assert np.array_equal(again.as_array(), img.as_array())
    assert write_pgm(again) == write_pgm(img)


def test_pgm_writer_emits_the_canonical_header():
    img = GrayImage.from_array(np.zeros((3, 4), dtype=np.uint8))
    blob = write_pgm(img)
    assert blob.startswith(b"P5\n4 3\n255\n")
    assert len(blob) == len(b"P5\n4 3\n255\n") + 12


def test_pgm_reader_tolerates_comments_and_whitespace_runs():
    raster = bytes(range(12))
    blob = b"P5 # binary graymap\n  4 # width\n\t3\n# before maxval\n255\n" + raster
    img = read_pgm(blob)
    assert (img.width, img.height) == (4, 3)
    assert bytes(img.pixels) == raster


def test_pgm_reader_rejects_ascii_variant():
    with pytest.raises(FormatError, match="P5"):
        read_pgm(b"P2\n2 2\n255\n0 1 2 3\n")


def test_pgm_reader_rejects_wrong_maxval():
    with pytest.raises(FormatError, match="maxval"):
        read_pgm(b"P5\n2 2\n65535\n" + bytes(8))


def test_truncated_raster_reports_the_end_offset():
    blob = b"P5\n4 3\n255\n" + bytes(5)
    with pytest.raises(FormatError) as exc_info:
        read_pgm(blob)
    assert "truncated" in str(exc_info.value)
    assert exc_info.value.offset == len(blob)


def test_trailing_bytes_report_the_offset_after_the_raster():
    header = b"P5\n2 2\n255\n"
    with pytest.raises(FormatError) as exc_info:
        read_pgm(header + bytes(6))
    assert exc_info.value.offset == len(header) + 4


def test_non_integer_header_field_is_rejected():
    with pytest.raises(FormatError, match="width"):
        read_pgm(b"P5\nfour 3\n255\n" + bytes(12))


def test_pgm_load_save_files(tmp_path, small_rng):
    img = textured_cover(small_rng, 8)
    p = tmp_path / "img.pgm"
    data.save_pgm(p, img)
    assert np.array_equal(data.load_pgm(p).as_array(), img.as_array())


def test_load_pgm_error_names_the_file(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P5\n2 2\n255\n")
    with pytest.raises(FormatError, match="bad.pgm"):
        data.load_pgm(p)


def test_gray_image_validates_pixel_count_and_dtype():
    with pytest.raises(DataError):
        GrayImage(width=2, height=2, pixels=np.zeros(3, dtype=np.uint8))
    with pytest.raises(DataError):
        GrayImage(width=2, height=2, pixels=np.zeros(4, dtype=np.float32))


# ---------------------------------------------------------------------------
# embedding simulator
# ---------------------------------------------------------------------------

def test_embed_selects_floor_of_payload_times_pixels():
    cover = GrayImage.from_array(np.full((16, 16), 128, dtype=np.uint8))
    stego = embed_simulate(cover, 0.4, seed=0)
    diff = stego.pixels.astype(np.int16) - cover.pixels.astype(np.int16)
    # floor(0.4 * 256) = 102 pixels selected; roughly half actually change
    assert np.count_nonzero(diff) <= 102
    assert set(np.unique(diff)) <= {-1, 0, 1}


def test_embed_changes_about_half_the_selected_pixels():
    cover = GrayImage.from_array(np.full((16, 16), 128, dtype=np.uint8))
    changed = [
        np.count_nonzero(embed_simulate(cover, 0.4, seed=s).pixels != cover.pixels)
        for s in range(2000)
    ]
    # 102 selected, change probability 1/2 -> mean 51, sem ~0.11
    assert abs(float(np.mean(changed)) - 51.0) < 1.5


def test_embed_is_deterministic_per_seed(small_rng):
    cover = textured_cover(small_rng, 16)
    a = embed_simulate(cover, 0.5, seed=7)
    b = embed_simulate(cover, 0.5, seed=7)
    c = embed_simulate(cover, 0.5, seed=8)
    assert np.array_equal(a.as_array(), b.as_array())
    assert not np.array_equal(a.as_array(), c.as_array())


def test_embed_saturates_at_the_range_ends():
    black = GrayImage.from_array(np.zeros((16, 16), dtype=np.uint8))
    white = GrayImage.from_array(np.full((16, 16), 255, dtype=np.uint8))
    for seed in range(5):
        up = embed_simulate(black, 1.0, seed).pixels.astype(np.int16)
        down = embed_simulate(white, 1.0, seed).pixels.astype(np.int16)
        assert set(np.unique(up)) <= {0, 1}
        assert set(np.unique(down)) <= {254, 255}


def test_embed_full_payload_selects_every_pixel():
    cover = GrayImage.from_array(np.full((8, 8), 100, dtype=np.uint8))
    stego = embed_simulate(cover, 1.0, seed=3)
    diff = np.abs(stego.pixels.astype(np.int16) - cover.pixels.astype(np.int16))
    assert np.max(diff) == 1
    # with all 64 pixels selected, ~32 should flip
    assert 10 <= np.count_nonzero(diff) <= 54


@pytest.mark.parametrize("payload", [0.0, -0.1, 1.0001, 2.0])
def test_embed_rejects_out_of_range_payloads(payload):
    cover = GrayImage.from_array(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(DataError):
        embed_simulate(cover, payload, seed=0)


# ---------------------------------------------------------------------------
# dihedral symmetries
# ---------------------------------------------------------------------------

def test_dihedral_variants_are_the_eight_square_symmetries():
    img = marked_image()
    arr = img.as_array()
    variants = augment_dihedral(img)
    assert len(variants) == 8
    expected = [np.rot90(arr, k) for k in range(4)]
    expected += [np.rot90(np.fliplr(arr), k) for k in range(4)]
    for got, want in zip(variants, expected):
        assert np.array_equal(got.as_array(), want)


def test_dihedral_variants_are_pairwise_distinct():
    variants = augment_dihedral(marked_image())
    blobs = {write_pgm(v) for v in variants}
    assert len(blobs) == 8


def test_dihedral_orbit_is_closed_under_repetition():
    img = marked_image()
    orbit = {write_pgm(v) for v in augment_dihedral(img)}
    for v in augment_dihedral(img):
        assert {write_pgm(w) for w in augment_dihedral(v)} == orbit


def test_apply_dihedral8_keeps_cover_and_stego_aligned(small_rng):
    cover = textured_cover(small_rng, 8)
    stego_arr = cover.as_array().copy()
    stego_arr[0, 0] ^= 1  # single-pixel difference marks the transform
    ds = PairedDataset(pairs=[Pair(cover, GrayImage.from_array(stego_arr), "p0")])
    out = apply_dihedral8(ds)
    assert len(out) == 8
    assert [p.pair_id for p in out.pairs] == [f"p0.t{t}" for t in range(8)]
    assert out.augmentation == "dihedral8"
    for pair in out.pairs:
        diff = pair.cover.as_array() != pair.stego.as_array()
        assert np.count_nonzero(diff) == 1  # same transform on both images


def test_apply_dihedral8_refuses_to_stack():
    ds = PairedDataset(pairs=[Pair(marked_image(), marked_image(), "p0")])
    once = apply_dihedral8(ds)
    with pytest.raises(DataError):
        apply_dihedral8(once)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def pair_dataset(rng, count, size=8):
    pairs = []
    for i in range(count):
        cover = textured_cover(rng, size)
        stego = embed_simulate(cover, 1.0, seed=i)
        pairs.append(Pair(cover, stego, f"p{i}"))
    return PairedDataset(pairs=pairs)


def test_ten_pairs_at_batch_sixteen_yield_one_full_batch(small_rng):
    ds = pair_dataset(small_rng, 10)
    batches = list(make_batches(ds, 16, seed=0))
    assert len(batches) == 1
    images, labels = batches[0]
    assert images.shape == (16, 1, 8, 8)
    assert labels == [0, 1] * 8


def distinct_pairs(count):
    """Covers that differ by construction (pair i is the constant 20*i + 10),
    so the bytes of a cover tell its pair apart whatever ran before."""
    pairs = []
    for i in range(count):
        cover = GrayImage.from_array(np.full((8, 8), 20 * i + 10, dtype=np.uint8))
        pairs.append(Pair(cover, embed_simulate(cover, 1.0, seed=i), f"p{i}"))
    return PairedDataset(pairs=pairs)


def test_batches_interleave_each_cover_with_its_own_stego():
    ds = distinct_pairs(4)
    (images, labels), = make_batches(ds, 8, seed=3)
    assert labels == [0, 1, 0, 1, 0, 1, 0, 1]
    by_blob = {write_pgm(p.cover): write_pgm(p.stego) for p in ds.pairs}
    for i in range(0, 8, 2):
        cover = images.array[i, 0].astype(np.uint8)
        stego = images.array[i + 1, 0].astype(np.uint8)
        cov_img = GrayImage.from_array(cover)
        assert by_blob[write_pgm(cov_img)] == write_pgm(GrayImage.from_array(stego))


def test_batching_is_deterministic_per_seed_and_reshuffles_across_seeds(small_rng):
    ds = pair_dataset(small_rng, 12)
    a = [img.array.copy() for img, _ in make_batches(ds, 4, seed=5)]
    b = [img.array.copy() for img, _ in make_batches(ds, 4, seed=5)]
    c = [img.array.copy() for img, _ in make_batches(ds, 4, seed=6)]
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_every_pair_appears_at_most_once_per_epoch():
    ds = distinct_pairs(9)
    seen = []
    for images, _ in make_batches(ds, 4, seed=1):
        for i in range(0, images.shape[0], 2):
            seen.append(write_pgm(GrayImage.from_array(images.array[i, 0].astype(np.uint8))))
    assert len(seen) == 8  # floor(9/2) = 4 batches of 2 pairs
    assert len(set(seen)) == 8


def test_batch_size_must_be_even_and_positive(small_rng):
    ds = pair_dataset(small_rng, 4)
    for bad in (0, -2, 3, 7):
        with pytest.raises(SpecError):
            list(make_batches(ds, bad, seed=0))
        with pytest.raises(SpecError):
            list(eval_batches(ds, bad))


def test_empty_dataset_is_rejected():
    ds = PairedDataset(pairs=[])
    with pytest.raises(DataError):
        list(make_batches(ds, 4, seed=0))
    with pytest.raises(DataError):
        list(eval_batches(ds, 4))


def test_mixed_image_sizes_in_one_batch_are_rejected(small_rng):
    a = textured_cover(small_rng, 8)
    b = textured_cover(small_rng, 16)
    ds = PairedDataset(pairs=[Pair(a, a, "p0"), Pair(b, b, "p1")])
    with pytest.raises(DataError, match="share a size"):
        list(make_batches(ds, 4, seed=0))


def test_eval_batches_cover_everything_in_order_with_a_short_tail(small_rng):
    ds = pair_dataset(small_rng, 5)
    batches = list(eval_batches(ds, 4))
    assert [img.shape[0] for img, _ in batches] == [4, 4, 2]
    flat = []
    for images, labels in batches:
        assert labels == [0, 1] * (images.shape[0] // 2)
        for i in range(images.shape[0]):
            flat.append(write_pgm(GrayImage.from_array(images.array[i, 0].astype(np.uint8))))
    want = []
    for p in ds.pairs:
        want.extend([write_pgm(p.cover), write_pgm(p.stego)])
    assert flat == want


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def write_pair_files(tmp_path, rng, name, split):
    cover = textured_cover(rng, 8)
    stego = embed_simulate(cover, 1.0, seed=hash(name) % 1000)
    data.save_pgm(tmp_path / f"{name}_c.pgm", cover)
    data.save_pgm(tmp_path / f"{name}_s.pgm", stego)
    return (name, f"{name}_c.pgm", f"{name}_s.pgm", split)


def test_manifest_round_trip_with_relative_paths(tmp_path, small_rng):
    entries = [
        write_pair_files(tmp_path, small_rng, "a", "train"),
        write_pair_files(tmp_path, small_rng, "b", "train"),
        write_pair_files(tmp_path, small_rng, "c", "validation"),
    ]
    mpath = tmp_path / "pairs.txt"
    write_manifest(mpath, entries)
    splits = load_manifest(mpath)
    assert set(splits) == {"train", "validation"}
    assert [p.pair_id for p in splits["train"].pairs] == ["a", "b"]
    assert [p.pair_id for p in splits["validation"].pairs] == ["c"]
    reloaded = splits["train"].pairs[0].cover
    assert np.array_equal(reloaded.as_array(), data.load_pgm(tmp_path / "a_c.pgm").as_array())


def test_write_manifest_rejects_fields_that_would_not_read_back(tmp_path, small_rng):
    good = write_pair_files(tmp_path, small_rng, "a", "train")
    for i in range(3):
        bad = list(good)
        bad[i] = "with space" if i else ""
        with pytest.raises(DataError, match="whitespace"):
            write_manifest(tmp_path / "pairs.txt", [good, tuple(bad)])
    assert not (tmp_path / "pairs.txt").exists()


def test_manifest_rejects_wrong_field_count(tmp_path):
    mpath = tmp_path / "pairs.txt"
    mpath.write_text("a cover.pgm stego.pgm\n")
    with pytest.raises(FormatError, match=":1:"):
        load_manifest(mpath)


def test_manifest_rejects_unknown_split_and_duplicate_id(tmp_path, small_rng):
    entry = write_pair_files(tmp_path, small_rng, "a", "train")
    mpath = tmp_path / "pairs.txt"
    mpath.write_text(f"a {entry[1]} {entry[2]} holdout\n")
    with pytest.raises(FormatError, match="split"):
        load_manifest(mpath)
    mpath.write_text(f"a {entry[1]} {entry[2]} train\na {entry[1]} {entry[2]} train\n")
    with pytest.raises(FormatError, match="duplicate"):
        load_manifest(mpath)


def test_manifest_skips_blank_lines_and_comments(tmp_path, small_rng):
    entry = write_pair_files(tmp_path, small_rng, "a", "test")
    mpath = tmp_path / "pairs.txt"
    mpath.write_text(f"# header comment\n\na {entry[1]} {entry[2]} test\n")
    splits = load_manifest(mpath)
    assert [p.pair_id for p in splits["test"].pairs] == ["a"]


def test_manifest_error_for_missing_image(tmp_path):
    mpath = tmp_path / "pairs.txt"
    mpath.write_text("a nope_c.pgm nope_s.pgm train\n")
    with pytest.raises(OSError):
        load_manifest(mpath)


def test_write_manifest_rejects_bad_split(tmp_path):
    with pytest.raises(DataError):
        write_manifest(tmp_path / "m.txt", [("a", "c.pgm", "s.pgm", "holdout")])


def test_write_manifest_rejects_a_duplicate_id(tmp_path):
    # load_manifest refuses such a manifest, so it is never written
    entries = [("a", "c1.pgm", "s1.pgm", "train"), ("a", "c2.pgm", "s2.pgm", "test")]
    with pytest.raises(DataError, match="duplicate pair id 'a'"):
        write_manifest(tmp_path / "m.txt", entries)
    assert not (tmp_path / "m.txt").exists()
