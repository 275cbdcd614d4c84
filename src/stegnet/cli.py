"""Command-line entry point.

Subcommands: embed, train, eval, infer, gradcheck, dump-features. Every
command is deterministic given its flags and seed. Exit codes: 0 success,
1 usage error, 2 data/format error, 3 numeric failure (training divergence
or a failed gradient check).

``--threads N`` caps the cores a command uses; without it, the BLAS
thread variables of the environment set the cap. The flag sets those
variables, which must take effect before numpy is first imported, so this
module defers all heavy imports into the command bodies. Importing
``nnops`` then takes OpenBLAS's thread count as the number of eval-forward
shards and sets OpenBLAS to one thread, so every cap gives the same bytes.
"""
from __future__ import annotations

import argparse
import os
import sys

from .errors import DataError, DivergenceError, FormatError, SpecError, StegnetError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_THREAD_ENV_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    pass


def _apply_thread_cap(threads: int | None) -> None:
    if threads is None:
        return
    if threads < 1:
        raise _UsageError(f"--threads must be at least 1, got {threads}")
    if "numpy" in sys.modules:
        # too late to change BLAS pools reliably; honor only matching caps
        current = os.environ.get("OPENBLAS_NUM_THREADS")
        if current != str(threads):
            print(
                "warning: numpy already loaded; --threads may not take effect",
                file=sys.stderr,
            )
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(threads)


def _seed(text: str) -> int:
    """--seed: numpy's seed sequences take non-negative integers only."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


# ---------------------------------------------------------------------------
# config files: `key = value` lines, # comments, unknown keys rejected
# ---------------------------------------------------------------------------

def parse_config_text(text: str, allowed_keys) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError(f"config line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in allowed_keys:
            raise SpecError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise SpecError(f"config line {lineno}: duplicate key {key!r}")
        if not value:
            raise SpecError(f"config line {lineno}: empty value for {key!r}")
        values[key] = value
    return values


def run_config_schema() -> list[tuple[str, object]]:
    """(key, default) of every run-config key, in resolved.cfg order: the
    run's paths, the TrainConfig fields with the model keys freeze_srm and
    activation_mode after seed, then augment. A None default marks a
    required key; every other value parses and formats by the type of its
    default, and the model keys take their defaults from ModelConfig."""
    from dataclasses import fields

    from .train import TrainConfig
    from .zhunet import ModelConfig

    model = ModelConfig()
    train = [(f.name, f.default) for f in fields(TrainConfig)]
    after_seed = [key for key, _ in train].index("seed") + 1
    return ([("manifest", None), ("out_dir", None)] + train[:after_seed]
            + [("freeze_srm", not model.srm_trainable), ("activation_mode", model.activation_mode)]
            + train[after_seed:] + [("augment", "none")])


def _parse_value(key: str, value: str, default):
    if isinstance(default, bool):
        lowered = value.lower()
        if lowered in ("true", "1", "yes", "false", "0", "no"):
            return lowered in ("true", "1", "yes")
        raise SpecError(f"config key {key!r} expects a boolean, got {value!r}")
    if isinstance(default, tuple):
        # comma-separated epochs; the word 'none' spells the empty schedule
        if value.strip().lower() == "none":
            return ()
        tokens = [tok.strip() for tok in value.split(",")]
        if "" in tokens:
            raise SpecError(f"config key {key!r} has an empty entry in {value!r}; "
                            f"write none for no epochs")
        return tuple(int(tok) for tok in tokens)
    return value if default is None else type(default)(value)


def _format_value(value, default) -> str:
    if isinstance(default, bool):
        return str(value).lower()
    if isinstance(default, float):  # ten digits where they read back exactly
        short = f"{value:.10g}"
        return short if float(short) == value else repr(value)
    if isinstance(default, tuple):
        return ",".join(str(e) for e in value) or "none"
    return str(value)


def load_run_config(path):
    """Parse a training run config; returns (TrainConfig, ModelConfig,
    manifest, out_dir, augment). The freeze_srm, activation_mode and seed
    keys build the ModelConfig; seed also seeds the batch order. Keys left
    out take their defaults, except that a left-out lr_decay_epochs keeps
    only the default epochs below max_epochs. Relative manifest and out_dir
    paths are resolved against the config file's directory."""
    from .data import AUGMENTATIONS
    from .train import TrainConfig
    from .zhunet import ModelConfig

    schema = run_config_schema()
    with open(path, "r", encoding="utf-8") as fh:
        raw = parse_config_text(fh.read(), [key for key, _ in schema])
    for key, default in schema:
        if default is None and key not in raw:
            raise SpecError(f"config is missing the required key {key!r}")
    try:
        values = {key: _parse_value(key, raw[key], default) if key in raw else default
                  for key, default in schema}
    except ValueError as exc:
        raise SpecError(f"bad config value: {exc}") from exc
    manifest, out_dir, augment, freeze_srm, activation_mode = (
        values.pop(k) for k in ("manifest", "out_dir", "augment", "freeze_srm", "activation_mode"))
    if "lr_decay_epochs" not in raw:
        values["lr_decay_epochs"] = tuple(e for e in values["lr_decay_epochs"]
                                          if e < values["max_epochs"])
    cfg = TrainConfig(**values)
    cfg.validate()
    model_cfg = ModelConfig(activation_mode=activation_mode, srm_trainable=not freeze_srm,
                            seed=cfg.seed)
    model_cfg.validate()
    if augment not in AUGMENTATIONS:
        raise SpecError(f"config key 'augment' must be {' or '.join(AUGMENTATIONS)}, got {augment!r}")
    base = os.path.dirname(os.path.abspath(path))  # join keeps an absolute path as it is
    return cfg, model_cfg, os.path.join(base, manifest), os.path.join(base, out_dir), augment


def _resolved_config_text(cfg, model_cfg, manifest: str, out_dir: str, augment: str) -> str:
    run = {"manifest": manifest, "out_dir": out_dir, "augment": augment,
           "freeze_srm": not model_cfg.srm_trainable,
           "activation_mode": model_cfg.activation_mode}
    lines = ["# resolved run configuration"] + [
        f"{key} = {_format_value(run[key] if key in run else getattr(cfg, key), default)}"
        for key, default in run_config_schema()
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _file_id(path: str):
    """(device, inode) of a file, the same for every path that reaches it;
    None when it cannot be read."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_dev, st.st_ino


def cmd_embed(args) -> int:
    import numpy as np

    from . import data

    in_dir, out_dir = args.in_dir, args.out_dir
    for flag, path in (("--in", in_dir), ("--out", out_dir)):
        if any(ch.isspace() for ch in os.path.abspath(path)):
            raise DataError(f"{flag} path {os.path.abspath(path)!r} holds whitespace")
    if not os.path.isdir(in_dir):
        raise DataError(f"input directory {in_dir!r} does not exist")
    names = sorted(n for n in os.listdir(in_dir) if n.lower().endswith(".pgm"))
    if not names:
        raise DataError(f"no .pgm files in {in_dir!r}")
    if not (0.0 <= args.val_fraction and 0.0 <= args.test_fraction
            and args.val_fraction + args.test_fraction < 1.0):
        raise _UsageError("--val-fraction/--test-fraction must be >= 0 and sum below 1")
    if not 0.0 < args.payload <= 1.0:
        raise _UsageError(f"--payload must be in (0, 1] bits per pixel, got {args.payload!r}")
    # with --out at --in, the stego of x.pgm would overwrite the cover x_stego.pgm
    inputs = {_file_id(os.path.join(in_dir, name)): name for name in names}
    inputs.pop(None, None)
    for name in names:
        clash = inputs.get(_file_id(os.path.join(out_dir, f"{os.path.splitext(name)[0]}_stego.pgm")))
        if clash is not None:
            raise DataError(f"the stego of {name} would overwrite the input file "
                            f"{os.path.join(in_dir, clash)}")
    os.makedirs(out_dir, exist_ok=True)

    # deterministic split assignment: shuffle indices once with the run seed
    rng = np.random.Generator(np.random.PCG64([args.seed, len(names)]))
    order = rng.permutation(len(names))
    n_test = int(args.test_fraction * len(names))
    n_val = int(args.val_fraction * len(names))
    split_of = {}
    for rank, idx in enumerate(order):
        if rank < n_test:
            split_of[int(idx)] = "test"
        elif rank < n_test + n_val:
            split_of[int(idx)] = "validation"
        else:
            split_of[int(idx)] = "train"

    entries = []
    taken = {}  # pair id -> the cover that has it
    failures = 0
    for idx, name in enumerate(names):
        cover_path = os.path.join(in_dir, name)
        stem = os.path.splitext(name)[0]
        stego_path = os.path.join(out_dir, f"{stem}_stego.pgm")
        try:
            if any(ch.isspace() for ch in name):
                raise DataError("a manifest line cannot hold a file name with whitespace")
            if stem in taken:
                raise DataError(f"pair id {stem!r} is already taken by {taken[stem]}")
            cover = data.load_pgm(cover_path)
            seed = int(np.random.SeedSequence([args.seed, idx]).generate_state(1)[0])
            stego = data.embed_simulate(cover, args.payload, seed)
            data.save_pgm(stego_path, stego)
        except (FormatError, DataError, OSError) as exc:
            print(f"embed: {cover_path}: {exc}", file=sys.stderr)
            failures += 1
            continue
        taken[stem] = name
        entries.append((stem, os.path.abspath(cover_path), os.path.abspath(stego_path),
                        split_of[idx]))
    data.write_manifest(os.path.join(out_dir, "manifest.txt"), entries)
    print(f"embedded {len(entries)} of {len(names)} images at {args.payload} bpp")
    return EXIT_DATA if failures else EXIT_OK


def _load_splits(manifest_path: str, *splits: str) -> list:
    """The named splits of a manifest, read once; a missing split is a
    DataError that names the splits the manifest has."""
    from .data import load_manifest

    datasets = load_manifest(manifest_path)
    for split in splits:
        if split not in datasets:
            raise DataError(
                f"manifest {manifest_path!r} has no {split!r} split "
                f"(found: {', '.join(sorted(datasets)) or 'none'})"
            )
    return [datasets[split] for split in splits]


def cmd_train(args) -> int:
    from . import zhunet
    from .data import apply_dihedral8
    from .train import train_loop

    cfg, model_cfg, manifest, out_dir, augment = load_run_config(args.config)
    train_ds, val_ds = _load_splits(manifest, "train", "validation")
    if augment == "dihedral8":
        train_ds = apply_dihedral8(train_ds)

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "resolved.cfg"), "w", encoding="utf-8") as fh:
        fh.write(_resolved_config_text(cfg, model_cfg, manifest, out_dir, augment))
    metrics_path = os.path.join(out_dir, "metrics.csv")
    if os.path.exists(metrics_path):
        os.remove(metrics_path)  # fresh run, fresh history

    model = zhunet.build_model(model_cfg)
    state = train_loop(model, train_ds, val_ds, cfg, metrics_path=metrics_path)
    ckpt_path = os.path.join(out_dir, "best.znet")
    with open(ckpt_path, "wb") as fh:
        fh.write(state.best_checkpoint)
    print(
        f"trained {state.epoch + 1} epochs; best_val_error={state.best_val_error:.6f}; "
        f"checkpoint {ckpt_path}"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    from .train import evaluate
    from .zhunet import load_checkpoint

    model = load_checkpoint(args.checkpoint)
    (dataset,) = _load_splits(args.manifest, args.split)
    error = evaluate(model, dataset)
    print(f"error_rate={error:.6f}")
    return EXIT_OK


def cmd_infer(args) -> int:
    import numpy as np

    from .data import _image_batch, load_pgm
    from .nnops import softmax
    from .zhunet import load_checkpoint

    model = load_checkpoint(args.checkpoint)
    logits = model.forward(_image_batch([load_pgm(args.image)]), mode="eval")
    probs = softmax(logits).array[0]
    label = "cover" if int(np.argmax(probs)) == 0 else "stego"
    print(f"{label} p_cover={probs[0]:.6f} p_stego={probs[1]:.6f}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .gradcheck import run_suite

    results = run_suite(scale=args.scale, seed=args.seed)
    for res in results:
        print(res.line())
    failed = [res.name for res in results if not res.ok]
    if failed:
        print(f"gradcheck failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_dump_features(args) -> int:
    import numpy as np

    from .data import GrayImage, _image_batch, load_pgm, save_pgm
    from .zhunet import load_checkpoint

    model = load_checkpoint(args.checkpoint)
    batch = _image_batch([load_pgm(args.image)])
    maps = model.dump_feature_maps(batch, args.stage).array[0]  # [C, H, W]
    os.makedirs(args.out_dir, exist_ok=True)
    raw_path = os.path.join(args.out_dir, f"{args.stage}.f32")
    with open(raw_path, "wb") as fh:
        fh.write(np.ascontiguousarray(maps, dtype="<f4").tobytes())
    for ch in range(maps.shape[0]):
        plane = maps[ch]
        lo, hi = float(plane.min()), float(plane.max())
        if hi > lo:
            norm = (plane - lo) * (255.0 / (hi - lo))
        else:
            norm = np.zeros_like(plane)
        out = GrayImage.from_array(np.clip(np.rint(norm), 0, 255).astype(np.uint8))
        save_pgm(os.path.join(args.out_dir, f"{args.stage}_{ch}.pgm"), out)
    print(f"wrote {maps.shape[0]} channel maps and {raw_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stegnet", description=__doc__.split("\n\n")[0])
    parser.add_argument("--threads", type=int, default=None,
                        help="cap the cores used: eval forwards split their batch "
                             "into up to N shards, each streaming its images one at a "
                             "time, BLAS runs on one thread (every cap gives the same "
                             "bytes); without it, OPENBLAS_NUM_THREADS or "
                             "OMP_NUM_THREADS sets the cap")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("embed", help="simulate embedding over a directory of cover PGMs")
    p.add_argument("--in", dest="in_dir", required=True, help="directory of cover .pgm files")
    p.add_argument("--out", dest="out_dir", required=True, help="output directory")
    p.add_argument("--payload", type=float, required=True, help="payload in bits per pixel")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--val-fraction", type=float, default=0.0,
                   help="fraction of pairs assigned to the validation split")
    p.add_argument("--test-fraction", type=float, default=0.0,
                   help="fraction of pairs assigned to the test split")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("train", help="train from a run config file")
    p.add_argument("--config", required=True, help="path to a key = value run config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="error rate of a checkpoint on a manifest split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test", choices=["train", "validation", "test"])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="classify a single PGM image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("gradcheck", help="finite-difference verification of the backward passes")
    p.add_argument("--scale", choices=["ops", "model"], default="ops")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("dump-features", help="write per-channel feature maps of a stage")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--stage", required=True)
    p.add_argument("--out", dest="out_dir", required=True)
    p.set_defaults(func=cmd_dump_features)
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_thread_cap(args.threads)
        return args.func(args)
    except _UsageError as exc:
        print(f"stegnet: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"stegnet: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FormatError as exc:
        print(f"stegnet: format error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except StegnetError as exc:
        print(f"stegnet: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"stegnet: i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
