"""Command-line interface: every subcommand, its file outputs, determinism,
and the exit-code contract (0 ok, 1 usage, 2 data/format, 3 numeric)."""
import os
import pathlib
import re

import numpy as np
import pytest

from stegnet import cli, data, nnops, zhunet
from stegnet.errors import SpecError
from stegnet.tensor import Tensor

from conftest import noisy_split, run_cli, textured_cover


def write_covers(dirpath, rng, count, size=16):
    dirpath.mkdir(parents=True, exist_ok=True)
    names = []
    for i in range(count):
        name = f"img{i:03d}.pgm"
        data.save_pgm(dirpath / name, textured_cover(rng, size))
        names.append(name)
    return names


def write_split_files(dirpath, rng, split, count, size=32):
    ds = noisy_split(rng, count, split, size=size)
    entries = []
    for pair in ds.pairs:
        data.save_pgm(dirpath / f"{pair.pair_id}_c.pgm", pair.cover)
        data.save_pgm(dirpath / f"{pair.pair_id}_s.pgm", pair.stego)
        entries.append((pair.pair_id, f"{pair.pair_id}_c.pgm",
                        f"{pair.pair_id}_s.pgm", split))
    return entries


def write_dataset(dirpath, rng, n_train=4, n_val=2, n_test=2, size=32):
    dirpath.mkdir(parents=True, exist_ok=True)
    entries = []
    entries += write_split_files(dirpath, rng, "train", n_train, size)
    entries += write_split_files(dirpath, rng, "validation", n_val, size)
    if n_test:
        entries += write_split_files(dirpath, rng, "test", n_test, size)
    manifest = dirpath / "manifest.txt"
    data.write_manifest(manifest, entries)
    return manifest


def write_config(path, manifest, out_dir, **overrides):
    values = {
        "manifest": str(manifest),
        "out_dir": str(out_dir),
        "lr_decay_epochs": "none",
        "batch_size": 4,
        "max_epochs": 2,
        "seed": 0,
    }
    values.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


def save_random_checkpoint(path, seed=0, **kw):
    model = zhunet.build_model(zhunet.ModelConfig(seed=seed, **kw))
    zhunet.save_checkpoint(model, path)
    return model


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------

def test_embed_writes_stegos_and_a_manifest(tmp_path, small_rng):
    names = write_covers(tmp_path / "covers", small_rng, 6)
    rc = cli.run(["embed", "--in", str(tmp_path / "covers"),
                  "--out", str(tmp_path / "stegos"), "--payload", "0.5", "--seed", "3"])
    assert rc == 0
    manifest = tmp_path / "stegos" / "manifest.txt"
    lines = [l for l in manifest.read_text().splitlines() if l.strip()]
    assert len(lines) == 6
    for name in names:
        stem = os.path.splitext(name)[0]
        cover = data.load_pgm(tmp_path / "covers" / name)
        stego = data.load_pgm(tmp_path / "stegos" / f"{stem}_stego.pgm")
        diff = np.abs(stego.as_array().astype(np.int16) - cover.as_array().astype(np.int16))
        assert np.max(diff) <= 1
        assert 0 < np.count_nonzero(diff) <= 128  # floor(0.5*256) selected


def test_embed_is_deterministic_per_seed(tmp_path, small_rng):
    write_covers(tmp_path / "covers", small_rng, 3)
    for out in ("a", "b", "c"):
        seed = "7" if out != "c" else "8"
        assert cli.run(["embed", "--in", str(tmp_path / "covers"),
                        "--out", str(tmp_path / out), "--payload", "0.5",
                        "--seed", seed]) == 0
    blob = lambda out, i: (tmp_path / out / f"img{i:03d}_stego.pgm").read_bytes()
    assert all(blob("a", i) == blob("b", i) for i in range(3))
    assert any(blob("a", i) != blob("c", i) for i in range(3))


def test_embed_assigns_split_fractions(tmp_path, small_rng):
    write_covers(tmp_path / "covers", small_rng, 6)
    assert cli.run(["embed", "--in", str(tmp_path / "covers"),
                    "--out", str(tmp_path / "out"), "--payload", "1.0",
                    "--val-fraction", "0.34", "--test-fraction", "0.34"]) == 0
    splits = [line.split()[3] for line in
              (tmp_path / "out" / "manifest.txt").read_text().splitlines()]
    assert sorted(splits) == ["test", "test", "train", "train", "validation", "validation"]


def test_embed_tiny_payload_keeps_the_cover_bits(tmp_path, small_rng):
    write_covers(tmp_path / "covers", small_rng, 1, size=16)
    assert cli.run(["embed", "--in", str(tmp_path / "covers"),
                    "--out", str(tmp_path / "out"), "--payload", "0.003"]) == 0
    cover = data.load_pgm(tmp_path / "covers" / "img000.pgm")
    stego = data.load_pgm(tmp_path / "out" / "img000_stego.pgm")
    # floor(0.003 * 256) = 0 pixels selected
    assert np.array_equal(stego.as_array(), cover.as_array())


def test_embed_reports_corrupt_inputs_with_exit_2(tmp_path, small_rng, capsys):
    write_covers(tmp_path / "covers", small_rng, 2)
    (tmp_path / "covers" / "bad.pgm").write_bytes(b"P5\n4 4\n255\n")  # truncated
    rc = cli.run(["embed", "--in", str(tmp_path / "covers"),
                  "--out", str(tmp_path / "out"), "--payload", "0.5"])
    assert rc == 2
    assert "bad.pgm" in capsys.readouterr().err
    # the healthy images were still embedded
    lines = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
    assert len(lines) == 2


def test_embed_usage_errors(tmp_path, small_rng):
    assert cli.run(["embed", "--in", str(tmp_path / "nope"),
                    "--out", str(tmp_path / "out"), "--payload", "0.5"]) == 2
    write_covers(tmp_path / "covers", small_rng, 1)
    assert cli.run(["embed", "--in", str(tmp_path / "covers"),
                    "--out", str(tmp_path / "out"), "--payload", "0.5",
                    "--val-fraction", "0.6", "--test-fraction", "0.6"]) == 1
    for payload in ("1.5", "0", "nan"):
        assert cli.run(["embed", "--in", str(tmp_path / "covers"),
                        "--out", str(tmp_path / "out"), "--payload", payload]) == 1
    assert not (tmp_path / "out").exists()


def test_embed_into_its_input_directory_overwrites_no_cover(tmp_path, small_rng, capsys):
    covers = tmp_path / "covers"
    write_covers(covers, small_rng, 1)
    (covers / "img000.pgm").rename(covers / "x.pgm")
    data.save_pgm(covers / "x_stego.pgm", textured_cover(small_rng, 16))
    before = {p.name: p.read_bytes() for p in covers.iterdir()}
    rc = cli.run(["embed", "--in", str(covers), "--out", str(covers), "--payload", "0.5"])
    assert rc == 2
    assert "x_stego.pgm" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in covers.iterdir()} == before


def test_embed_rejects_in_and_out_paths_that_hold_whitespace(tmp_path, small_rng, capsys):
    # manifest lines split on whitespace, so such a path could not be read back
    write_covers(tmp_path / "my covers", small_rng, 1)
    write_covers(tmp_path / "covers", small_rng, 1)
    assert cli.run(["embed", "--in", str(tmp_path / "my covers"),
                    "--out", str(tmp_path / "out"), "--payload", "0.5"]) == 2
    assert "--in" in capsys.readouterr().err
    assert cli.run(["embed", "--in", str(tmp_path / "covers"),
                    "--out", str(tmp_path / "out dir"), "--payload", "0.5"]) == 2
    assert "--out" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "out dir").exists()


def test_embed_skips_a_cover_whose_name_holds_whitespace(tmp_path, small_rng, capsys):
    write_covers(tmp_path / "covers", small_rng, 2)
    data.save_pgm(tmp_path / "covers" / "my cover.pgm", textured_cover(small_rng, 16))
    assert cli.run(["embed", "--in", str(tmp_path / "covers"),
                    "--out", str(tmp_path / "out"), "--payload", "0.5",
                    "--val-fraction", "0.34"]) == 2
    assert "my cover.pgm" in capsys.readouterr().err
    assert not (tmp_path / "out" / "my cover_stego.pgm").exists()
    # the manifest of the other two reads back
    splits = data.load_manifest(tmp_path / "out" / "manifest.txt")
    ids = sorted(p.pair_id for ds in splits.values() for p in ds.pairs)
    assert ids == ["img000", "img001"]


def test_embed_skips_a_cover_whose_pair_id_is_taken(tmp_path, small_rng, capsys):
    # a.PGM and a.pgm have the same stem; the second would overwrite the
    # first's stego and list id 'a' twice, which train then refuses
    (tmp_path / "covers").mkdir()
    for name in ("a.PGM", "a.pgm", "b.pgm"):
        data.save_pgm(tmp_path / "covers" / name, textured_cover(small_rng, 16))
    assert cli.run(["embed", "--in", str(tmp_path / "covers"),
                    "--out", str(tmp_path / "out"), "--payload", "0.5"]) == 2
    captured = capsys.readouterr()
    assert "a.pgm" in captured.err and "'a'" in captured.err
    assert "embedded 2 of 3" in captured.out
    (train,) = data.load_manifest(tmp_path / "out" / "manifest.txt").values()
    assert [p.pair_id for p in train.pairs] == ["a", "b"]
    kept = data.load_pgm(tmp_path / "covers" / "a.PGM")
    assert np.array_equal(train.pairs[0].cover.as_array(), kept.as_array())


def test_embed_on_a_directory_with_no_pgm_file_exits_2(tmp_path, capsys):
    (tmp_path / "covers").mkdir()
    (tmp_path / "covers" / "notes.txt").write_text("no images here\n")
    assert cli.run(["embed", "--in", str(tmp_path / "covers"),
                    "--out", str(tmp_path / "out"), "--payload", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines()
            if line.startswith("stegnet: error:")] == [captured.err.rstrip("\n")]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["embed", "--in", "{tmp}/covers", "--out", "{tmp}/out", "--payload", "0.5"],
    ["gradcheck"],
])
def test_a_negative_seed_is_a_usage_error(tmp_path, small_rng, command):
    write_covers(tmp_path / "covers", small_rng, 1)
    argv = [arg.format(tmp=tmp_path) for arg in command]
    proc = run_cli(*argv, "--seed", "-1")
    assert proc.returncode == 1
    assert "--seed" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_writes_resolved_config_metrics_and_checkpoint(tmp_path, small_rng, capsys):
    manifest = write_dataset(tmp_path / "data", small_rng)
    out_dir = tmp_path / "run"
    cfg_path = write_config(tmp_path / "run.cfg", manifest, out_dir, max_epochs=1)
    assert cli.run(["train", "--config", str(cfg_path)]) == 0
    assert "checkpoint" in capsys.readouterr().out

    resolved = (out_dir / "resolved.cfg").read_text()
    assert "lr_decay_epochs = none" in resolved
    assert "max_epochs = 1" in resolved
    # the resolved config is itself a loadable config
    cfg, model_cfg, loaded_manifest, loaded_out, augment = cli.load_run_config(
        out_dir / "resolved.cfg")
    assert cfg.max_epochs == 1 and cfg.lr_decay_epochs == ()
    assert model_cfg == zhunet.ModelConfig()
    assert loaded_manifest == str(manifest)
    assert augment == "none"

    metrics = (out_dir / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "epoch,lr,train_loss,val_error"
    assert len(metrics) == 2
    model = zhunet.load_checkpoint(out_dir / "best.znet")
    assert model.num_parameters() == 2_869_044


def test_train_builds_the_model_from_the_freeze_and_activation_keys(tmp_path, small_rng):
    manifest = write_dataset(tmp_path / "data", small_rng)
    out_dir = tmp_path / "run"
    cfg_path = write_config(tmp_path / "run.cfg", manifest, out_dir, max_epochs=1,
                            freeze_srm="true", activation_mode="tlu3")
    assert cli.run(["train", "--config", str(cfg_path)]) == 0
    model = zhunet.load_checkpoint(out_dir / "best.znet")
    assert model.table["config.srm_trainable"].tensor.array.tolist() == [0.0]
    assert model.table["config.activation_mode"].tensor.array.tolist() == [1.0]
    assert model.config == zhunet.ModelConfig(activation_mode="tlu3", srm_trainable=False)
    bank = zhunet.build_model(zhunet.ModelConfig())
    for name in ("pre.kernels3", "pre.kernels5"):
        assert np.array_equal(model.table[name].tensor.array, bank.table[name].tensor.array)


def test_train_subprocess_reruns_are_byte_identical(tmp_path, small_rng):
    manifest = write_dataset(tmp_path / "data", small_rng)
    for run_name in ("run_a", "run_b"):
        cfg_path = write_config(tmp_path / f"{run_name}.cfg", manifest,
                                tmp_path / run_name, max_epochs=2)
        proc = run_cli("--threads", "1", "train", "--config", cfg_path)
        assert proc.returncode == 0, proc.stderr
    read = lambda run_name, f: (tmp_path / run_name / f).read_bytes()
    assert read("run_a", "metrics.csv") == read("run_b", "metrics.csv")
    assert read("run_a", "best.znet") == read("run_b", "best.znet")


@pytest.mark.skipif(not nnops.BLAS_SINGLE_THREADED,
                    reason="no OpenBLAS thread count to take the workers from")
def test_thread_caps_of_one_and_two_give_the_same_bytes(tmp_path):
    """BLAS runs on one thread at every cap; a cap of 2 only runs the images
    of eval forwards, here the validation and test batches, on two
    threads."""
    manifest = write_dataset(tmp_path / "data", np.random.default_rng(61), n_test=3)
    printed = []
    for threads in (1, 2):
        out_dir = tmp_path / f"threads{threads}"
        cfg_path = write_config(tmp_path / f"threads{threads}.cfg", manifest, out_dir,
                                max_epochs=3, augment="dihedral8", batch_size=4)
        proc = run_cli("--threads", threads, "train", "--config", cfg_path)
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("--threads", threads, "eval", "--checkpoint", out_dir / "best.znet",
                       "--manifest", manifest, "--split", "test")
        assert proc.returncode == 0, proc.stderr
        printed.append([line for line in proc.stdout.splitlines()
                        if line.startswith("error_rate=")])
    read = lambda threads, f: (tmp_path / f"threads{threads}" / f).read_bytes()
    assert read(1, "metrics.csv") == read(2, "metrics.csv")
    assert read(1, "best.znet") == read(2, "best.znet")
    assert printed[0] == printed[1] and len(printed[0]) == 1


def test_train_rejects_unknown_config_key(tmp_path, small_rng, capsys):
    manifest = write_dataset(tmp_path / "data", small_rng)
    cfg_path = write_config(tmp_path / "run.cfg", manifest, tmp_path / "run",
                            learning_rate=0.1)
    assert cli.run(["train", "--config", str(cfg_path)]) == 2
    assert "learning_rate" in capsys.readouterr().err


def test_train_rejects_bad_values_and_missing_manifest(tmp_path, small_rng):
    manifest = write_dataset(tmp_path / "data", small_rng)
    bad_value = write_config(tmp_path / "a.cfg", manifest, tmp_path / "run",
                             batch_size="three")
    assert cli.run(["train", "--config", str(bad_value)]) == 2
    gone = write_config(tmp_path / "b.cfg", tmp_path / "missing.txt", tmp_path / "run")
    assert cli.run(["train", "--config", str(gone)]) == 2


# resolved.cfg as written before the run-config keys were derived from
# TrainConfig: the defaults, and a config that sets every key
RESOLVED_DEFAULTS = """\
# resolved run configuration
manifest = /data/manifest.txt
out_dir = runs/a
lr0 = 0.005
lr_decay_epochs = 50,150,250
lr_decay_factor = 5
momentum = 0.9
weight_decay = 0.0005
batch_size = 16
max_epochs = 400
seed = 0
freeze_srm = false
activation_mode = relu
patience = 40
augment = none
"""
RESOLVED_EVERY_KEY = """\
# resolved run configuration
manifest = /data/manifest.txt
out_dir = runs/b
lr0 = 0.001
lr_decay_epochs = none
lr_decay_factor = 2.5
momentum = 0.5
weight_decay = 0
batch_size = 8
max_epochs = 7
seed = 11
freeze_srm = true
activation_mode = tlu3
patience = 3
augment = dihedral8
"""


def test_resolved_config_text_is_pinned_and_loads_back(tmp_path):
    from stegnet.train import TrainConfig

    every_key = TrainConfig(lr0=1e-3, lr_decay_epochs=(), lr_decay_factor=2.5, momentum=0.5,
                            weight_decay=0.0, batch_size=8, max_epochs=7, seed=11, patience=3)
    every_model_key = zhunet.ModelConfig(activation_mode="tlu3", srm_trainable=False, seed=11)
    cases = [(TrainConfig(), zhunet.ModelConfig(), "runs/a", "none", RESOLVED_DEFAULTS),
             (every_key, every_model_key, "runs/b", "dihedral8", RESOLVED_EVERY_KEY)]
    for cfg, model_cfg, out_dir, augment, text in cases:
        assert cli._resolved_config_text(cfg, model_cfg, "/data/manifest.txt", out_dir,
                                         augment) == text
        path = tmp_path / "resolved.cfg"
        path.write_text(text)
        assert cli.load_run_config(path) == (cfg, model_cfg, "/data/manifest.txt",
                                             os.path.join(tmp_path, out_dir), augment)


def test_resolved_config_keeps_every_digit_of_a_float_it_loads_back(tmp_path):
    from stegnet.train import TrainConfig

    cfg = TrainConfig(lr0=0.00123456789012, weight_decay=0.000512345678912)
    text = cli._resolved_config_text(cfg, zhunet.ModelConfig(), "/data/manifest.txt", "runs/c",
                                     "none")
    assert "lr0 = 0.00123456789012\n" in text
    path = tmp_path / "resolved.cfg"
    path.write_text(text)
    assert cli.load_run_config(path)[0] == cfg


def test_relative_paths_resolve_next_to_the_config_from_any_directory(
        tmp_path, small_rng, monkeypatch):
    write_dataset(tmp_path / "exp" / "data", small_rng)
    cfg_path = write_config(tmp_path / "exp" / "run.cfg", "data/manifest.txt", "run",
                            max_epochs=1)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert cli.run(["train", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "exp" / "run" / "best.znet").is_file()
    assert (tmp_path / "exp" / "run" / "metrics.csv").is_file()
    assert list(elsewhere.iterdir()) == []


def test_a_left_out_decay_schedule_keeps_the_default_epochs_below_max_epochs(tmp_path):
    path = tmp_path / "run.cfg"
    for max_epochs, kept in ((3, ()), (50, ()), (51, (50,)), (200, (50, 150)),
                             (400, (50, 150, 250))):
        path.write_text(f"manifest = m.txt\nout_dir = run\nmax_epochs = {max_epochs}\n")
        cfg = cli.load_run_config(path)[0]
        assert (cfg.max_epochs, cfg.lr_decay_epochs) == (max_epochs, kept)


def test_an_explicit_decay_schedule_beyond_max_epochs_is_rejected(tmp_path, small_rng, capsys):
    manifest = write_dataset(tmp_path / "data", small_rng)
    cfg_path = write_config(tmp_path / "run.cfg", manifest, tmp_path / "run",
                            max_epochs=3, lr_decay_epochs="1,3")
    assert cli.run(["train", "--config", str(cfg_path)]) == 2
    assert "lr_decay_epochs must all be below max_epochs (3)" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_a_decay_schedule_with_an_empty_entry_is_rejected(tmp_path, small_rng, capsys):
    # 'none' is the one spelling of the empty schedule
    for value in (",", "1,,2"):
        path = write_config(tmp_path / "run.cfg", "/data/manifest.txt", "runs/x",
                            max_epochs=3, lr_decay_epochs=value)
        with pytest.raises(SpecError, match="lr_decay_epochs"):
            cli.load_run_config(path)
    manifest = write_dataset(tmp_path / "data", small_rng)
    cfg_path = write_config(tmp_path / "run.cfg", manifest, tmp_path / "run",
                            max_epochs=3, lr_decay_epochs="1,,2")
    assert cli.run(["train", "--config", str(cfg_path)]) == 2
    assert "empty entry" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_run_config_rejects_non_finite_values(tmp_path):
    for key in ("weight_decay", "lr0", "lr_decay_factor"):
        for value in ("nan", "inf"):
            path = write_config(tmp_path / "run.cfg", "/data/manifest.txt", "runs/x",
                                **{key: value})
            with pytest.raises(SpecError, match=key):
                cli.load_run_config(path)


def test_readme_library_usage_block_runs(tmp_path, small_rng, monkeypatch, capsys):
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library usage", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
    write_dataset(tmp_path / "dataset", small_rng, n_train=8, n_val=2, n_test=2, size=32)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0


def test_readme_run_config_block_lists_exactly_the_schema_keys():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1, blocks
    keys = [line.split("=")[0].strip() for line in blocks[0].splitlines() if "=" in line]
    assert keys == [key for key, _ in cli.run_config_schema()]


def test_train_requires_train_and_validation_splits(tmp_path, small_rng, capsys):
    only_train = tmp_path / "data"
    only_train.mkdir()
    entries = write_split_files(only_train, small_rng, "train", 4)
    manifest = only_train / "manifest.txt"
    data.write_manifest(manifest, entries)
    cfg_path = write_config(tmp_path / "run.cfg", manifest, tmp_path / "run")
    assert cli.run(["train", "--config", str(cfg_path)]) == 2
    assert "(found: train)" in capsys.readouterr().err


def test_train_divergence_exits_3(tmp_path, small_rng, capsys):
    manifest = write_dataset(tmp_path / "data", small_rng)
    cfg_path = write_config(tmp_path / "run.cfg", manifest, tmp_path / "run",
                            lr0="1e18", max_epochs=8)
    with np.errstate(all="ignore"):
        assert cli.run(["train", "--config", str(cfg_path)]) == 3
    assert "non-finite loss" in capsys.readouterr().err


def test_train_dihedral_augmentation_multiplies_the_train_split(tmp_path, small_rng, capsys):
    manifest = write_dataset(tmp_path / "data", small_rng, n_train=2, n_val=2)
    cfg_path = write_config(tmp_path / "run.cfg", manifest, tmp_path / "run",
                            max_epochs=1, augment="dihedral8", batch_size=4)
    assert cli.run(["train", "--config", str(cfg_path)]) == 0
    resolved = (tmp_path / "run" / "resolved.cfg").read_text()
    assert "augment = dihedral8" in resolved


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_prints_the_error_rate(tmp_path, small_rng, capsys):
    manifest = write_dataset(tmp_path / "data", small_rng, n_test=8)
    ckpt = tmp_path / "model.znet"
    save_random_checkpoint(ckpt)
    assert cli.run(["eval", "--checkpoint", str(ckpt),
                    "--manifest", str(manifest), "--split", "test"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("error_rate=")
    assert 0.0 <= float(out.split("=")[1]) <= 1.0


def test_eval_error_paths(tmp_path, small_rng, capsys):
    manifest = write_dataset(tmp_path / "data", small_rng, n_test=0)
    ckpt = tmp_path / "model.znet"
    save_random_checkpoint(ckpt)
    # missing split, missing checkpoint file, corrupt checkpoint, malformed
    # config entry
    assert cli.run(["eval", "--checkpoint", str(ckpt),
                    "--manifest", str(manifest), "--split", "test"]) == 2
    assert cli.run(["eval", "--checkpoint", str(tmp_path / "gone.znet"),
                    "--manifest", str(manifest)]) == 2
    (tmp_path / "junk.znet").write_bytes(b"not a checkpoint")
    assert cli.run(["eval", "--checkpoint", str(tmp_path / "junk.znet"),
                    "--manifest", str(manifest)]) == 2
    model = zhunet.build_model(zhunet.ModelConfig())
    model.table["config.activation_mode"] = zhunet.Entry(Tensor(np.zeros(0)), zhunet.CONFIG)
    zhunet.save_checkpoint(model, tmp_path / "empty_mode.znet")
    assert cli.run(["eval", "--checkpoint", str(tmp_path / "empty_mode.znet"),
                    "--manifest", str(manifest), "--split", "validation"]) == 2
    assert "config.activation_mode" in capsys.readouterr().err
    # well-formed, but another architecture's batchnorm eps
    model = zhunet.build_model(zhunet.ModelConfig())
    model.table["config.bn_eps"] = zhunet.Entry(Tensor(np.array([1e-3])), zhunet.CONFIG)
    zhunet.save_checkpoint(model, tmp_path / "other_eps.znet")
    assert cli.run(["eval", "--checkpoint", str(tmp_path / "other_eps.znet"),
                    "--manifest", str(manifest), "--split", "validation"]) == 2
    assert "config.bn_eps" in capsys.readouterr().err


def test_eval_exits_2_on_a_checkpoint_whose_tensors_disagree_in_dtype(tmp_path, small_rng,
                                                                       capsys):
    manifest = write_dataset(tmp_path / "data", small_rng, n_test=0)
    model = zhunet.build_model(zhunet.ModelConfig())
    entry = model.table["block1.conv.w"]
    model.table["block1.conv.w"] = zhunet.Entry(Tensor(entry.tensor.array.astype(np.float64)),
                                                entry.kind)
    zhunet.save_checkpoint(model, tmp_path / "mixed.znet")
    assert cli.run(["eval", "--checkpoint", str(tmp_path / "mixed.znet"),
                    "--manifest", str(manifest), "--split", "validation"]) == 2
    assert "'block1.conv.w' is float64, but fc1.w is float32" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------

def test_infer_label_matches_the_library_forward(tmp_path, small_rng, capsys):
    ckpt = tmp_path / "model.znet"
    model = save_random_checkpoint(ckpt, seed=11)
    img = textured_cover(small_rng, 32)
    img_path = tmp_path / "img.pgm"
    data.save_pgm(img_path, img)
    assert cli.run(["infer", "--checkpoint", str(ckpt), "--image", str(img_path)]) == 0
    out = capsys.readouterr().out
    label = out.split()[0]
    batch = Tensor(img.as_array().astype(np.float32)[None, None, :, :])
    probs = nnops.softmax(model.forward(batch, mode="eval")).array[0]
    assert label == ("cover" if probs[0] >= probs[1] else "stego")
    p_cover = float(out.split("p_cover=")[1].split()[0])
    assert p_cover == pytest.approx(float(probs[0]), abs=1e-5)


def test_infer_rejects_inadmissible_images(tmp_path, small_rng):
    ckpt = tmp_path / "model.znet"
    save_random_checkpoint(ckpt)
    data.save_pgm(tmp_path / "tiny.pgm", textured_cover(small_rng, 16))
    assert cli.run(["infer", "--checkpoint", str(ckpt),
                    "--image", str(tmp_path / "tiny.pgm")]) == 2


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def test_gradcheck_command_reports_every_operator(capsys):
    assert cli.run(["gradcheck", "--scale", "ops", "--seed", "0"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 10
    assert all(line.endswith("ok") for line in lines)
    assert any(line.startswith("conv2d:") for line in lines)


def test_gradcheck_model_scale(capsys):
    assert cli.run(["gradcheck", "--scale", "model", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "model_end_to_end" in out


def test_gradcheck_detects_a_broken_backward_with_exit_3(monkeypatch, capsys):
    real = nnops.conv2d_backward

    def corrupted(upstream, ctx):
        gx, gw, gb = real(upstream, ctx)
        return gx, Tensor(gw.array * 1.01), gb

    monkeypatch.setattr(nnops, "conv2d_backward", corrupted)
    assert cli.run(["gradcheck", "--scale", "ops", "--seed", "0"]) == 3
    captured = capsys.readouterr()
    assert "conv2d" in captured.err
    assert "FAIL" in captured.out


# ---------------------------------------------------------------------------
# dump-features
# ---------------------------------------------------------------------------

def test_dump_features_writes_raw_plus_channel_maps(tmp_path, small_rng):
    ckpt = tmp_path / "model.znet"
    save_random_checkpoint(ckpt)
    data.save_pgm(tmp_path / "img.pgm", textured_cover(small_rng, 32))
    out_dir = tmp_path / "features"
    assert cli.run(["dump-features", "--checkpoint", str(ckpt),
                    "--image", str(tmp_path / "img.pgm"),
                    "--stage", "block4", "--out", str(out_dir)]) == 0
    raw = (out_dir / "block4.f32").read_bytes()
    assert len(raw) == 128 * 4 * 4 * 4  # C*H*W float32 at 32x32 input
    pgms = sorted(out_dir.glob("block4_*.pgm"))
    assert len(pgms) == 128
    first = data.load_pgm(pgms[0])
    assert (first.width, first.height) == (4, 4)


def test_dump_features_preprocessing_stage_keeps_full_resolution(tmp_path, small_rng):
    ckpt = tmp_path / "model.znet"
    save_random_checkpoint(ckpt)
    data.save_pgm(tmp_path / "img.pgm", textured_cover(small_rng, 32))
    out_dir = tmp_path / "features"
    assert cli.run(["dump-features", "--checkpoint", str(ckpt),
                    "--image", str(tmp_path / "img.pgm"),
                    "--stage", "preprocessing", "--out", str(out_dir)]) == 0
    raw = (out_dir / "preprocessing.f32").read_bytes()
    assert len(raw) == 30 * 32 * 32 * 4
    assert len(list(out_dir.glob("preprocessing_*.pgm"))) == 30


def test_dump_features_unknown_stage_exits_2(tmp_path, small_rng, capsys):
    ckpt = tmp_path / "model.znet"
    save_random_checkpoint(ckpt)
    data.save_pgm(tmp_path / "img.pgm", textured_cover(small_rng, 32))
    assert cli.run(["dump-features", "--checkpoint", str(ckpt),
                    "--image", str(tmp_path / "img.pgm"),
                    "--stage", "logits", "--out", str(tmp_path / "f")]) == 2
    assert "block4" in capsys.readouterr().err  # error lists the valid stages


def test_readme_lists_exactly_the_dump_features_stages():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = [line for line in readme.splitlines() if line.startswith("Stages:")]
    assert len(lines) == 1, lines
    listed = re.findall(r"`([^`]+)`", lines[0])
    # ... and they are the model's stages that dump_feature_maps accepts
    model = zhunet.build_model(zhunet.ModelConfig())
    image = Tensor(np.zeros((1, 1, 25, 25), dtype=np.float32))
    accepted = []
    for name, _ in model.stages:
        try:
            model.dump_feature_maps(image, name)
        except SpecError:
            continue
        accepted.append(name)
    assert listed == accepted


# ---------------------------------------------------------------------------
# global flags and exit codes
# ---------------------------------------------------------------------------

def test_help_exits_zero_and_names_all_subcommands():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for sub in ("embed", "train", "eval", "infer", "gradcheck", "dump-features"):
        assert sub in proc.stdout


def test_running_the_cli_module_runs_the_cli():
    import subprocess
    import sys

    def run_module(*args):
        return subprocess.run([sys.executable, "-m", "stegnet.cli", *args],
                              capture_output=True, text=True, env=dict(os.environ))

    proc = run_module("--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ") and "gradcheck" in proc.stdout
    proc = run_module("frobnicate")
    assert proc.returncode == 1
    assert "invalid choice" in proc.stderr


def test_unknown_subcommand_and_missing_flags_exit_1():
    assert run_cli("frobnicate").returncode == 1
    assert run_cli("train").returncode == 1  # --config is required
    assert run_cli("embed", "--in", "x").returncode == 1


def test_importing_the_package_and_the_cli_loads_no_numpy():
    # the --threads cap sets the BLAS variables, which only numpy's first
    # import reads
    import subprocess
    import sys

    code = ("import sys, stegnet, stegnet.cli; "
            "assert 'numpy' not in sys.modules, 'numpy was imported'")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ))
    assert proc.returncode == 0, proc.stderr


def test_thread_cap_usage_errors_exit_1():
    assert cli.run(["--threads", "0", "gradcheck"]) == 1
    proc = run_cli("--threads", "-3", "gradcheck")
    assert proc.returncode == 1
