"""Hash every file the stegnet CLI writes on a seeded synthetic workload.

Usage: python tools/output_digest.py WORKDIR

Runs this checkout's CLI in an empty WORKDIR: embed, three short train runs
at --threads 1 and 2, eval, infer and dump-features at every stage, and
gradcheck at both scales and seeds 0 and 3 (each command's stdout and exit
code go to WORKDIR/stdout/). Prints "sha256  path" for every file and a
total. Paths written into the outputs are absolute, so compare two trees by
running both in the same WORKDIR, emptied in between.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
STAGES = ("preprocessing", "sep1", "sep2", "block1", "block2", "block3", "block4")
TRAIN_RUNS = {
    "default": {},
    "frozen_tlu3": {"freeze_srm": "true", "activation_mode": "tlu3", "lr_decay_epochs": "1"},
    "dihedral8": {"augment": "dihedral8", "seed": "2"},
}


def stegnet(work: Path, label: str, *args, exits=(0,)) -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "stegnet.cli", *map(str, args)],
                          env=env, cwd=work, capture_output=True, text=True)
    (work / "stdout" / f"{label}.txt").write_text(f"{proc.stdout}exit {proc.returncode}\n")
    if proc.returncode not in exits:
        sys.exit(f"{label}: exit {proc.returncode}\n{proc.stderr}")


def run_all(work: Path) -> None:
    (work / "stdout").mkdir(parents=True)
    covers = work / "covers"
    covers.mkdir()
    rng = np.random.default_rng(0)
    for i in range(12):
        pixels = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
        (covers / f"c{i:02d}.pgm").write_bytes(b"P5\n32 32\n255\n" + pixels.tobytes())
    stegnet(work, "embed", "embed", "--in", covers, "--out", work / "pairs", "--payload", 0.4,
            "--seed", 1, "--val-fraction", 0.25, "--test-fraction", 0.25)
    manifest = work / "pairs" / "manifest.txt"
    for name, overrides in TRAIN_RUNS.items():
        for threads in (1, 2):
            run = f"{name}_t{threads}"
            keys = {"manifest": manifest, "out_dir": work / run, "batch_size": 4,
                    "max_epochs": 3, **overrides}
            config = work / f"{run}.cfg"
            config.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
            stegnet(work, f"train_{run}", "--threads", threads, "train", "--config", config)
        ckpt = work / f"{name}_t1" / "best.znet"
        for threads in (1, 2):
            stegnet(work, f"eval_{name}_t{threads}", "--threads", threads, "eval",
                    "--checkpoint", ckpt, "--manifest", manifest, "--split", "test")
        stegnet(work, f"infer_{name}", "--threads", 1, "infer", "--checkpoint", ckpt,
                "--image", covers / "c00.pgm")
        for stage in STAGES:
            stegnet(work, f"dump_{name}_{stage}", "--threads", 1, "dump-features",
                    "--checkpoint", ckpt, "--image", covers / "c00.pgm", "--stage", stage,
                    "--out", work / f"maps_{name}")
    for scale in ("ops", "model"):
        for seed in (0, 3):
            stegnet(work, f"gradcheck_{scale}_{seed}", "--threads", 1, "gradcheck",
                    "--scale", scale, "--seed", seed, exits=(0, 3))


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    work = Path(sys.argv[1]).resolve()
    if work.exists() and any(work.iterdir()):
        sys.exit(f"{work} is not empty")
    run_all(work)
    lines = []
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.relative_to(work)}")
    print("\n".join(lines))
    total = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    print(f"{total}  total ({len(lines)} files)")


if __name__ == "__main__":
    main()
