"""Hash every file the stegnet CLI writes on a seeded synthetic workload.

Usage: python tools/output_digest.py WORKDIR

Runs this checkout's CLI in an empty WORKDIR: embed, three short train runs
at --threads 1 and 2, eval, infer and dump-features at every stage, and
gradcheck at both scales and seeds 0 and 3 (each command's stdout and exit
code go to WORKDIR/stdout/). Then it saves the logits and every stage's
maps of one seeded 8-image 64x64 eval forward, in a process at one BLAS
thread and in one at two, of an f32 model (WORKDIR/eval64_t1/, eval64_t2/)
and of an f64 one (eval64_f64_t1/, eval64_f64_t2/). Prints
"sha256  path" for every file and a total. Paths written into the outputs
are absolute, so compare two trees by running both in the same WORKDIR,
emptied in between.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
STAGES = ("preprocessing", "sep1", "sep2", "block1", "block2", "block3", "block4")
# The CLI runs of run_all cannot show the eval forward's band partition: a
# multi-threaded eval ends in an error rate, infer and dump-features run one
# image, and a 32x32 map fits one forward band. At 64x64 block2's conv splits
# into bands, and at two threads each conv runs on a one-image map, whose
# bands join for f32 maps only.
EVAL_FORWARD = """
import sys
from pathlib import Path
import numpy as np
from stegnet import zhunet
from stegnet.tensor import DTYPES, Tensor
out, dtype = Path(sys.argv[1]), sys.argv[2]
out.mkdir()
model = zhunet.build_model(zhunet.ModelConfig(seed=0, dtype=dtype))
pixels = np.random.default_rng(0).integers(0, 256, size=(8, 1, 64, 64))
images = Tensor(pixels.astype(DTYPES[dtype]))
np.save(out / "logits.npy", model.forward(images, mode="eval").array)
for stage in sys.argv[3:]:
    np.save(out / f"{stage}.npy", model.dump_feature_maps(images, stage).array)
"""
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
    for dtype, prefix in (("f32", "eval64"), ("f64", "eval64_f64")):
        for threads in (1, 2):
            env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=str(threads))
            subprocess.run([sys.executable, "-c", EVAL_FORWARD, work / f"{prefix}_t{threads}",
                            dtype, *STAGES], env=env, check=True)


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
