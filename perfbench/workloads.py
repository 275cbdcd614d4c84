"""Workload definitions, the seeded input generator, set-up and timed rounds.

The generator synthesizes textured covers here, writes them as PGM files to
a scratch directory, and the program only ever sees those files. Set-up then
does what ``stegnet embed`` and the start of ``stegnet train``/``eval`` do,
through the same public calls; a round is one call of ``train.train_loop``
or ``train.evaluate``.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from stegnet import data, train, zhunet

EPOCHS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "train": time train_loop; "eval": time evaluate on the test split
    size: int
    payload: float
    batch_size: int
    augment: str
    pairs: tuple[tuple[str, int], ...]  # (split, pair count)

    def describe(self) -> dict:
        return {"workload": self.name, "mode": self.mode, "image_size": self.size,
                "payload_bpp": self.payload, "batch_size": self.batch_size,
                "augment": self.augment, "pairs": dict(self.pairs)}


WORKLOADS = {w.name: w for w in (
    Workload("train256", "train", 256, 0.4, 8, "none",
             (("train", 4), ("validation", 1))),
    Workload("train64_aug", "train", 64, 1.0, 16, "dihedral8",
             (("train", 6), ("validation", 2), ("test", 2))),
    Workload("eval256", "eval", 256, 0.4, 8, "none",
             (("train", 1), ("validation", 1), ("test", 8))),
)}


# ---------------------------------------------------------------------------
# input generator
# ---------------------------------------------------------------------------

def _box_blur(a: np.ndarray, r: int) -> np.ndarray:
    """Separable mean over a (2r+1)^2 window with edge replication."""
    for axis in (0, 1):
        p = np.pad(a, [(r, r) if ax == axis else (0, 0) for ax in (0, 1)], mode="edge")
        c = np.cumsum(p, axis=axis, dtype=np.float64)
        c = np.concatenate([np.zeros_like(c.take([0], axis=axis)), c], axis=axis)
        n = a.shape[axis]
        a = (c.take(np.arange(2 * r + 1, n + 2 * r + 1), axis=axis)
             - c.take(np.arange(0, n), axis=axis)) / (2 * r + 1)
    return a


def synth_cover(rng: np.random.Generator, size: int) -> np.ndarray:
    """A textured 8-bit cover: smooth regions from a blurred coarse grid, an
    oriented stripe texture and fine sensor-like noise."""
    cell = max(4, size // 16)
    coarse = rng.uniform(30.0, 225.0, size=(size // cell + 1, size // cell + 1))
    smooth = _box_blur(np.kron(coarse, np.ones((cell, cell)))[:size, :size], cell // 2)
    yy, xx = np.mgrid[0:size, 0:size]
    theta = rng.uniform(0.0, np.pi)
    freq = rng.uniform(0.15, 0.6)
    stripes = rng.uniform(2.0, 8.0) * np.sin(freq * (np.cos(theta) * xx + np.sin(theta) * yy))
    noise = _box_blur(rng.normal(0.0, 3.0, size=(size, size)), 1) + rng.normal(0.0, 1.0, size=(size, size))
    return np.clip(np.rint(smooth + stripes + noise), 0, 255).astype(np.uint8)


def write_covers(wl: Workload, seed: int, root: str) -> list[tuple[str, str, str]]:
    """Write the seeded covers as binary PGM files; returns (stem, path, split)
    in file order. The split of each cover is a seeded permutation, as
    ``stegnet embed`` assigns them."""
    rng = np.random.Generator(np.random.PCG64([seed, wl.size]))
    splits = [split for split, n in wl.pairs for _ in range(n)]
    order = rng.permutation(len(splits))
    covers = []
    os.makedirs(os.path.join(root, "covers"), exist_ok=True)
    for i in range(len(splits)):
        stem = f"c{i:03d}"
        path = os.path.join(root, "covers", f"{stem}.pgm")
        pixels = synth_cover(rng, wl.size)
        with open(path, "wb") as fh:
            fh.write(f"P5\n{wl.size} {wl.size}\n255\n".encode("ascii") + pixels.tobytes())
        covers.append((stem, path, splits[int(order[i])]))
    return covers


def pair_seed(seed: int, idx: int) -> int:
    return int(np.random.SeedSequence([seed, idx]).generate_state(1)[0])


def model_config(seed: int) -> zhunet.ModelConfig:
    return zhunet.ModelConfig(seed=seed)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def embed_all(wl: Workload, seed: int, covers, root: str) -> str:
    """Embed every cover, write the stego PGMs and the manifest; returns the
    manifest path."""
    out_dir = os.path.join(root, "embedded")
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for idx, (stem, cover_path, split) in enumerate(covers):
        cover = data.load_pgm(cover_path)
        stego = data.embed_simulate(cover, wl.payload, pair_seed(seed, idx))
        stego_path = os.path.join(out_dir, f"{stem}_stego.pgm")
        data.save_pgm(stego_path, stego)
        entries.append((stem, cover_path, stego_path, split))
    manifest = os.path.join(out_dir, "manifest.txt")
    data.write_manifest(manifest, entries)
    return manifest


def prepare(wl: Workload, seed: int, covers, root: str) -> dict:
    """Untimed inputs the set-up starts from: for eval, the embedded pairs
    and a checkpoint file written by the program."""
    if wl.mode != "eval":
        return {}
    manifest = embed_all(wl, seed, covers, root)
    checkpoint = os.path.join(root, "model.znet")
    zhunet.save_checkpoint(zhunet.build_model(model_config(seed)), checkpoint)
    return {"manifest": manifest, "checkpoint": checkpoint}


def setup(wl: Workload, seed: int, covers, root: str, prepared: dict):
    """The timed set-up; returns (datasets, model)."""
    if wl.mode == "eval":
        model = zhunet.load_checkpoint(prepared["checkpoint"])
        return data.load_manifest(prepared["manifest"]), model
    datasets = data.load_manifest(embed_all(wl, seed, covers, root))
    if wl.augment == "dihedral8":
        datasets["train"] = data.apply_dihedral8(datasets["train"])
    return datasets, zhunet.build_model(model_config(seed))


def dataset_bytes(datasets: dict) -> int:
    return sum(p.cover.pixels.nbytes + p.stego.pixels.nbytes
               for ds in datasets.values() for p in ds.pairs)


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def round_shape(wl: Workload, datasets: dict) -> tuple[int, int]:
    """(images, batches) one round processes."""
    half = wl.batch_size // 2
    if wl.mode == "eval":
        pairs = len(datasets["test"].pairs)
        return 2 * pairs, -(-pairs // half)
    train_batches = len(datasets["train"].pairs) // half
    val_batches = -(-len(datasets["validation"].pairs) // half)
    return EPOCHS * train_batches * wl.batch_size, EPOCHS * (train_batches + val_batches)


def train_config(wl: Workload, seed: int) -> train.TrainConfig:
    return train.TrainConfig(seed=seed, max_epochs=EPOCHS, lr_decay_epochs=(),
                             batch_size=wl.batch_size)


def run_round(wl: Workload, seed: int, datasets: dict, model, clock):
    """One timed call; returns (seconds, outcome). The outcome of a train
    round is its TrainState, of an eval round the error rate."""
    if wl.mode == "eval":
        t0 = clock()
        error = train.evaluate(model, datasets["test"], wl.batch_size)
        return clock() - t0, error
    cfg = train_config(wl, seed)
    t0 = clock()
    state = train.train_loop(model, datasets["train"], datasets["validation"], cfg)
    return clock() - t0, state
