"""Command-line interface tests: exit codes, reproducibility, config echo."""
import hashlib
import importlib
import json
import os
import pkgutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcseis
from qcseis import cli, models, qsim, seisdata, trainer
from qcseis.selftest import run_selftest


def sha_tree(root: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.iterdir()) if p.is_file()}


def run_cli(args):
    return cli.main(args)


def run_python(args):
    """A fresh interpreter that imports this qcseis, with its stdout and stderr captured."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=300)


def run_module(args):
    """`python -m qcseis.cli` in a subprocess, so that a traceback shows on its stderr."""
    return run_python(["-m", "qcseis.cli", *args])


def assert_exit(proc, code):
    """The process ended in `code` after one ERROR line and no traceback."""
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("ERROR")]
    assert len(errors) == 1, proc.stderr


class TestGenData:
    def test_split_counts(self, tmp_path, capsys):
        code = run_cli(["gen-data", "--task", "denoise", "--out", str(tmp_path / "d"),
                        "--n", "100", "--height", "32", "--width", "32", "--seed", "5"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["counts"] == {"train": 80, "val": 10, "test": 10}

    def test_same_seed_identical_sha(self, tmp_path, capsys):
        for sub in ("a", "b"):
            assert run_cli(["gen-data", "--task", "interpolation_regular",
                            "--out", str(tmp_path / sub), "--n", "10",
                            "--height", "32", "--width", "32", "--seed", "9"]) == 0
        assert sha_tree(tmp_path / "a") == sha_tree(tmp_path / "b")

    def test_small_dims_rejected(self, tmp_path):
        assert run_cli(["gen-data", "--task", "denoise", "--out", str(tmp_path / "x"),
                        "--n", "10", "--height", "7", "--width", "32"]) == cli.EXIT_CONFIG

    def test_negative_dx_rejected(self, tmp_path):
        assert run_cli(["gen-data", "--task", "denoise", "--out", str(tmp_path / "x"),
                        "--n", "10", "--height", "32", "--width", "32", "--dx", "-25"]) == cli.EXIT_CONFIG
        assert not list((tmp_path / "x").glob("*.seis"))

    def test_no_scipy_in_process(self, tmp_path):
        """A fresh qcseis process that generates every task never loads scipy."""
        runs = "\n".join(
            f"assert cli.main(['gen-data', '--task', {task!r}, '--out', {str(tmp_path / task)!r}, "
            f"'--n', '10', '--height', '16', '--width', '16']) == 0"
            for task in seisdata.TASKS)
        code = ("import sys\nfrom qcseis import cli\n" + runs +
                "\nprint(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
        proc = run_python(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    @pytest.mark.parametrize("task", ["interpolation_random", "denoise"])
    def test_non_finite_noise_sigma_rejected(self, tmp_path, task, sigma):
        assert run_cli(["gen-data", "--task", task, "--out", str(tmp_path / "x"), "--n", "10",
                        "--height", "32", "--width", "32", "--noise-sigma", sigma]) == cli.EXIT_CONFIG
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("seed_flag, env_seed, value", [(["--seed", "-3"], None, "-3"), ([], "-2", "-2")],
                             ids=["flag", "QCSEIS_SEED"])
    def test_negative_seed_named(self, tmp_path, monkeypatch, seed_flag, env_seed, value):
        if env_seed is None:
            monkeypatch.delenv("QCSEIS_SEED", raising=False)
        else:
            monkeypatch.setenv("QCSEIS_SEED", env_seed)
        proc = run_module(["gen-data", "--task", "denoise", "--out", str(tmp_path / "d"),
                           "--n", "10", "--height", "8", "--width", "8", *seed_flag])
        assert_exit(proc, cli.EXIT_CONFIG)
        assert f"seed must be >= 0, got {value}" in proc.stderr
        assert not (tmp_path / "d").exists()

    def test_lone_f0_bound_keeps_the_other_default(self, tmp_path):
        assert run_cli(["gen-data", "--task", "denoise", "--out", str(tmp_path / "d"),
                        "--n", "10", "--height", "8", "--width", "8", "--f0-lo", "30"]) == 0
        assert json.loads((tmp_path / "d" / "dataset.json").read_text())["f0_range"] == [30.0, 45.0]

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QCSEIS_SEED", "77")
        run_cli(["gen-data", "--task", "denoise", "--out", str(tmp_path / "a"),
                 "--n", "10", "--height", "32", "--width", "32", "--seed", "1"])
        monkeypatch.setenv("QCSEIS_SEED", "77")
        run_cli(["gen-data", "--task", "denoise", "--out", str(tmp_path / "b"),
                 "--n", "10", "--height", "32", "--width", "32", "--seed", "2"])
        assert sha_tree(tmp_path / "a") == sha_tree(tmp_path / "b")


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    assert cli.main(["gen-data", "--task", "interpolation_random", "--out", str(root),
                     "--n", "20", "--height", "32", "--width", "32", "--seed", "3"]) == 0
    return root


def train_config(data_dir, out_dir, epochs=2, quantum=True):
    return {
        "data": {"dir": str(data_dir), "task": "interpolation_random"},
        "model": {"family": "qcgan", "quantum": quantum, "blocks": 2, "base_channels": 8},
        "train": {"epochs": epochs, "batch_size": 8, "lr": 1e-4, "seed": 1,
                  "checkpoint_every": 1, "out_dir": str(out_dir)},
    }


@pytest.fixture(scope="module")
def lfe_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_lfe")
    assert cli.main(["gen-data", "--task", "lfe", "--out", str(root),
                     "--n", "10", "--height", "32", "--width", "32", "--seed", "1"]) == 0
    return root


class TestConfigSchema:
    def test_minimal_config_materializes_every_key(self, tmp_path, monkeypatch):
        monkeypatch.delenv("QCSEIS_SEED", raising=False)
        resolved = cli.resolve_config({"data": {"dir": "d"}, "model": {"family": "qcgan"},
                                       "train": {"out_dir": "o"}})
        assert resolved["model"] == {
            "family": "qcgan", "init_seed": 0, "blocks": 4, "base_channels": 32,
            "quantum_fraction": 0.25, "quantum": True, "n_qubits": 4, "n_circuits": 4,
            "circuit_depth": 2, "circuit_seed": 7, "input_scale": 1.0,
        }
        assert resolved["train"] == {
            "epochs": 100, "batch_size": 16, "lr": None, "lambda_rec": 100.0, "lambda_com": 1.0,
            "com_in_discriminator": True, "seed": 0, "checkpoint_every": 5, "grad_clip": 5.0,
            "out_dir": "o",
        }

    MALFORMED = [
        ("unet", "model", "base_channels", 0),
        ("qcgan", "model", "base_channels", "8"),
        ("qcgan", "model", "circuit_depth", "2"),
        ("qcgan", "train", "epochs", "2"),
        ("qcgan", "model", "n_qubits", 2.5),
        ("qcgan", "train", "batch_size", 4.5),
        ("qcgan", "train", "lambda_com", "x"),
        ("qcgan", "train", "grad_clip", None),
        ("qcgan", "train", "checkpoint_every", 0),
        ("qcgan", "train", "epochs", 0),
        ("qcgan", "train", "lr", "1e-3"),
        ("qcgan", "model", "quantum", 1),
        ("qcgan", "train", "seed", True),
        ("qcgan", "train", "grad_clip", -1.0),
        ("qcgan", "train", "seed", -1),
        # values only the network constructors reject
        ("qcgan", "model", "n_qubits", 0),
        ("qcgan", "model", "circuit_depth", -1),
        ("qcgan", "model", "blocks", 6),  # 32x32 patches cannot be pooled 5 times
        ("qcgan", "model", "quantum_fraction", float("nan")),
        ("qcgan", "model", "quantum_fraction", 0.0),
        ("qcgan", "model", "quantum_fraction", 1.5),
        ("qcgan", "model", "input_scale", float("inf")),
    ]

    @staticmethod
    def base_doc(family, data, out_dir):
        """A config that trains; each MALFORMED row breaks it in one value."""
        return {"data": {"dir": str(data)},
                "model": {"family": family, "base_channels": 4, "blocks": 2},
                "train": {"epochs": 1, "batch_size": 8, "out_dir": str(out_dir)}}

    @pytest.mark.parametrize("family", ["qcgan", "unet"])
    def test_base_config_trains(self, small_dataset, lfe_dataset, tmp_path, family):
        doc = self.base_doc(family, lfe_dataset if family == "unet" else small_dataset, tmp_path / "out")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        assert run_cli(["train", "--config", str(config)]) == cli.EXIT_OK

    @pytest.mark.parametrize("family, section, key, value", MALFORMED,
                             ids=[f"{f}-{k}={json.dumps(v)}" for f, _, k, v in MALFORMED])
    def test_malformed_value_exits_config(self, small_dataset, lfe_dataset, tmp_path,
                                          family, section, key, value):
        doc = self.base_doc(family, lfe_dataset if family == "unet" else small_dataset, tmp_path / "out")
        doc[section][key] = value
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "qcseis.cli", "train", "--config", str(config)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()  # rejected before the run directory is made


    def test_unet_warns_about_each_gan_only_key(self, lfe_dataset, tmp_path):
        # the UNet reads none of these; the run trains as it would without them
        plain = unet_config(lfe_dataset, tmp_path / "plain")
        gan_keys = unet_config(lfe_dataset, tmp_path / "gan_keys")
        gan_keys["model"]["blocks"] = 9
        gan_keys["train"].update(lambda_rec=0.0, com_in_discriminator=False)
        procs = []
        for doc in (plain, gan_keys):
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps(doc))
            procs.append(run_module(["train", "--config", str(config)]))
            assert procs[-1].returncode == cli.EXIT_OK, procs[-1].stderr
        warnings = [[line for line in proc.stderr.splitlines() if line.startswith("WARNING")] for proc in procs]
        assert warnings == [[], [f"WARNING qcseis.cli: {key} is a qcgan setting; the unet run ignores it"
                                 for key in ("model.blocks", "train.lambda_rec", "train.com_in_discriminator")]]
        assert ((tmp_path / "plain" / "history.csv").read_bytes()
                == (tmp_path / "gan_keys" / "history.csv").read_bytes())
        resolved = json.loads((tmp_path / "gan_keys" / "resolved_config.json").read_text())
        assert (resolved["model"]["blocks"], resolved["train"]["lambda_rec"]) == (9, 0.0)

    def test_negative_init_seed_named(self, small_dataset, tmp_path):
        doc = self.base_doc("qcgan", small_dataset, tmp_path / "out")
        doc["model"]["init_seed"] = -1
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        proc = run_module(["train", "--config", str(config)])
        assert_exit(proc, cli.EXIT_CONFIG)
        assert "model.init_seed must be >= 0, got -1" in proc.stderr
        assert not (tmp_path / "out").exists()

    # 36 traces do not divide by 8; 24 leave 3 traces at the bottleneck, too few for 4 qubits
    @pytest.mark.parametrize("width, error", [
        (36, "unet needs patch dims divisible by 8, got 64x36"),
        (24, "unet trace axis 24 too short for the quantum window at 1/8"),
    ], ids=["64x36", "64x24"])
    def test_unet_patch_rejected_before_out_dir(self, tmp_path, width, error):
        data = tmp_path / "lfe"
        assert cli.main(["gen-data", "--task", "lfe", "--out", str(data), "--n", "10",
                         "--height", "64", "--width", str(width), "--seed", "1"]) == 0
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(self.base_doc("unet", data, tmp_path / "out")))
        proc = run_module(["train", "--config", str(config)])
        assert_exit(proc, cli.EXIT_CONFIG)
        assert error in proc.stderr, proc.stderr
        assert not (tmp_path / "out").exists()


class TestTrainCommand:
    def test_smoke_run_emits_artifacts(self, small_dataset, tmp_path, capsys):
        config = tmp_path / "run.json"
        out_dir = tmp_path / "run"
        config.write_text(json.dumps(train_config(small_dataset, out_dir)))
        assert run_cli(["train", "--config", str(config), "--workers", "1"]) == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert Path(summary["history"]).exists()
        assert Path(summary["last_checkpoint"]).exists()
        resolved = json.loads((out_dir / "resolved_config.json").read_text())
        assert resolved["train"]["epochs"] == 2
        assert resolved["model"]["quantum_fraction"] == 0.25  # defaults materialized
        history = (out_dir / "history.csv").read_text().splitlines()
        assert len(history) == 1 + 2 * 2  # header + (train, val) per epoch

    def test_unknown_config_key_rejected(self, small_dataset, tmp_path):
        doc = train_config(small_dataset, tmp_path / "o")
        doc["train"]["learning_rate"] = 1e-3
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(doc))
        assert run_cli(["train", "--config", str(config)]) == cli.EXIT_CONFIG

    def test_eval_section_rejected(self, small_dataset, tmp_path):
        doc = train_config(small_dataset, tmp_path / "o")
        doc["eval"] = {"report": str(tmp_path / "r.csv")}
        config = tmp_path / "eval_section.json"
        config.write_text(json.dumps(doc))
        assert run_cli(["train", "--config", str(config)]) == cli.EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    def test_missing_dataset_rejected(self, tmp_path):
        config = tmp_path / "no_data.json"
        config.write_text(json.dumps(train_config(tmp_path / "nowhere", tmp_path / "o")))
        assert run_cli(["train", "--config", str(config)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")], ids=json.dumps)
    def test_non_finite_lr_rejected(self, small_dataset, tmp_path, lr):
        doc = train_config(small_dataset, tmp_path / "o")
        doc["train"]["lr"] = lr  # written as NaN or Infinity, which Python's json reads back
        config = tmp_path / "lr.json"
        config.write_text(json.dumps(doc))
        assert run_cli(["train", "--config", str(config)]) == cli.EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    def test_resume_continues_epochs(self, small_dataset, tmp_path, capsys):
        config = tmp_path / "short.json"
        out_dir = tmp_path / "short"
        config.write_text(json.dumps(train_config(small_dataset, out_dir, epochs=1)))
        assert run_cli(["train", "--config", str(config), "--workers", "1"]) == 0
        capsys.readouterr()
        config2 = tmp_path / "longer.json"
        config2.write_text(json.dumps(train_config(small_dataset, out_dir, epochs=2)))
        assert run_cli(["train", "--config", str(config2), "--workers", "1",
                        "--resume", str(out_dir / "last.qckp")]) == 0
        capsys.readouterr()
        history = (out_dir / "history.csv").read_text().splitlines()
        epochs_logged = {row.split(",")[0] for row in history[1:]}
        assert epochs_logged == {"1", "2"}

    def test_resume_of_a_finished_run_exits_config(self, trained, small_dataset, tmp_path):
        # `trained` ran its 1 epoch; resuming it for 1 epoch would write nothing but name its files
        config = tmp_path / "again.json"
        config.write_text(json.dumps(train_config(small_dataset, tmp_path / "out", epochs=1)))
        proc = run_module(["train", "--config", str(config), "--resume", str(trained)])
        assert_exit(proc, cli.EXIT_CONFIG)
        assert "checkpoint is at epoch 1, at or past train.epochs = 1" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_quantum_twin_configs_differ_by_one_flag(self, small_dataset, tmp_path, capsys):
        for quantum in (True, False):
            config = tmp_path / f"twin_{quantum}.json"
            config.write_text(json.dumps(
                train_config(small_dataset, tmp_path / f"twin_{quantum}",
                             epochs=1, quantum=quantum)))
            assert run_cli(["train", "--config", str(config), "--workers", "1"]) == 0
            capsys.readouterr()

    def test_quantum_checkpoint_rejected_for_classical_resume(self, small_dataset, tmp_path, capsys):
        quantum_out = tmp_path / "twin_True"
        if not (quantum_out / "last.qckp").exists():
            config = tmp_path / "q.json"
            config.write_text(json.dumps(train_config(small_dataset, quantum_out, epochs=1)))
            assert run_cli(["train", "--config", str(config), "--workers", "1"]) == 0
            capsys.readouterr()
        config = tmp_path / "c.json"
        config.write_text(json.dumps(
            train_config(small_dataset, tmp_path / "c_out", epochs=1, quantum=False)))
        code = run_cli(["train", "--config", str(config), "--workers", "1",
                        "--resume", str(quantum_out / "last.qckp")])
        assert code == cli.EXIT_MISMATCH


def replace_blob(raw: bytes, edit) -> bytes:
    """A QCKP file with its config blob (after magic, version, length) replaced by edit(blob)."""
    (n,) = struct.unpack_from("<I", raw, 8)
    blob = edit(raw[12:12 + n])
    return raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + n:]


def drop_key(key):
    def edit(blob):
        config = json.loads(blob)
        del config[key]
        return json.dumps(config).encode()
    return edit


def set_config(path, value):
    """A blob edit that sets the config entry at `path` (a key tuple), or deletes it for value None."""
    def edit(blob):
        config = json.loads(blob)
        *parents, key = path
        node = config
        for parent in parents:
            node = node[parent]
        if value is None:
            del node[key]
        else:
            node[key] = value
        return json.dumps(config).encode()
    return edit


def in_blob(edit):
    return lambda raw: replace_blob(raw, edit)


def rename_entry(name, new):
    assert len(new) == len(name)
    return lambda raw: raw.replace(name.encode(), new.encode(), 1)


def first_entry_rank_at(raw: bytes) -> int:
    """Offset of the first entry's rank byte, which its dims and dtype tag follow."""
    (n,) = struct.unpack_from("<I", raw, 8)
    at = 12 + n + 4  # past the header, the config blob and the entry count
    return at + 2 + struct.unpack_from("<H", raw, at)[0]  # past the name


def first_entry_dims(dims):
    """Give the checkpoint's first entry these dims, keeping its dtype tag and data."""
    def edit(raw):
        at = first_entry_rank_at(raw)
        return raw[:at] + struct.pack(f"<B{len(dims)}Q", len(dims), *dims) + raw[at + 1 + 8 * raw[at]:]
    return edit


def entry_dims(name, dims):
    """Give the named entry these dims, keeping its dtype tag and data."""
    def edit(raw):
        at = raw.index(name.encode()) + len(name)
        return raw[:at] + struct.pack(f"<B{len(dims)}Q", len(dims), *dims) + raw[at + 1 + 8 * raw[at]:]
    return edit


def first_entry_tag(tag):
    """Give the checkpoint's first entry this dtype tag, keeping its dims and data."""
    def edit(raw):
        at = first_entry_rank_at(raw)
        at += 1 + 8 * raw[at]  # past the rank and the dims
        return raw[:at] + bytes([tag]) + raw[at + 1:]
    return edit


def nan_count(name):
    def edit(raw):
        at = raw.index(name.encode()) + len(name) + 2  # rank 0, then the f64 dtype tag
        return raw[:at] + struct.pack("<d", float("nan")) + raw[at + 8:]
    return edit


@pytest.fixture(scope="module")
def trained(small_dataset, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("trained")
    config = out_dir / "cfg.json"
    config.write_text(json.dumps(train_config(small_dataset, out_dir / "run", epochs=1)))
    assert cli.main(["train", "--config", str(config), "--workers", "1"]) == 0
    return out_dir / "run" / "last.qckp"


class TestEvalCommand:
    def test_report_rows(self, trained, small_dataset, tmp_path, capsys):
        report = tmp_path / "report.csv"
        code = run_cli(["eval", "--checkpoint", str(trained), "--data", str(small_dataset),
                        "--report", str(report)])
        assert code == 0
        lines = report.read_text().strip().splitlines()
        n_test = len(seisdata.load_split(small_dataset, "test"))
        assert lines[0] == "sample_id,mae,rmse,psnr_db,ssim"
        assert len(lines) == 1 + n_test + 1

    def test_spectra_dumps(self, trained, small_dataset, tmp_path, capsys):
        report = tmp_path / "report2.csv"
        spectra = tmp_path / "spectra"
        code = run_cli(["eval", "--checkpoint", str(trained), "--data", str(small_dataset),
                        "--report", str(report), "--spectra-dir", str(spectra)])
        assert code == 0
        n_test = len(seisdata.load_split(small_dataset, "test"))
        assert len(list(spectra.glob("amp_spectrum_*.csv"))) == n_test
        assert len(list(spectra.glob("fk_pred_*.csv"))) == n_test

    def test_task_mismatch_exit_code(self, trained, tmp_path, capsys):
        other = tmp_path / "lfe_data"
        assert cli.main(["gen-data", "--task", "lfe", "--out", str(other), "--n", "10",
                         "--height", "32", "--width", "32", "--seed", "1"]) == 0
        capsys.readouterr()
        code = run_cli(["eval", "--checkpoint", str(trained), "--data", str(other),
                        "--report", str(tmp_path / "r.csv")])
        assert code == cli.EXIT_MISMATCH


    def test_flipped_config_bytes_are_checkpoint_errors(self, trained, small_dataset, tmp_path):
        raw = trained.read_bytes()
        (n,) = struct.unpack_from("<I", raw, 8)
        path = tmp_path / "flipped.qckp"
        for i in range(12, 12 + n):
            # header and blob only: a blob that decoded would fail as truncated instead
            bad = bytearray(raw[:12 + n])
            bad[i] ^= 0xFF
            path.write_bytes(bytes(bad))
            with pytest.raises(trainer.CheckpointError, match="config blob"):
                trainer.load_checkpoint(path)
        name_at = 12 + n + 4 + 2  # entry count, then the first entry's name length
        bad = bytearray(raw)
        bad[name_at] ^= 0xFF
        path.write_bytes(bytes(bad))
        with pytest.raises(trainer.CheckpointError, match="name is not UTF-8"):
            trainer.load_checkpoint(path)
        bad = bytearray(raw)
        bad[12] ^= 0xFF
        path.write_bytes(bytes(bad))
        code = run_cli(["eval", "--checkpoint", str(path), "--data", str(small_dataset),
                        "--report", str(tmp_path / "r.csv")])
        assert code == cli.EXIT_MISMATCH

    def test_truncated_checkpoint_exit_code(self, trained, small_dataset, tmp_path):
        raw = trained.read_bytes()
        path = tmp_path / "truncated.qckp"
        path.write_bytes(raw[: len(raw) // 2])
        code = run_cli(["eval", "--checkpoint", str(path), "--data", str(small_dataset),
                        "--report", str(tmp_path / "r.csv")])
        assert code == cli.EXIT_MISMATCH

    # the first two sizes wrap around to 0 in int64; the third is empty, with
    # a dim numpy cannot hold
    @pytest.mark.parametrize("dims", [(2**32, 2**32), (2**62, 4), (0, 2**63)], ids=str)
    def test_huge_entry_dims_are_checkpoint_errors(self, trained, small_dataset, tmp_path, dims):
        path = tmp_path / "huge.qckp"
        path.write_bytes(first_entry_dims(dims)(trained.read_bytes()))
        with pytest.raises(trainer.CheckpointError, match="entry"):
            trainer.load_checkpoint(path)
        code = run_cli(["eval", "--checkpoint", str(path), "--data", str(small_dataset),
                        "--report", str(tmp_path / "r.csv")])
        assert code == cli.EXIT_MISMATCH

    @pytest.mark.parametrize("edit, named", [
        (lambda raw: raw[:4] + struct.pack("<I", 2) + raw[8:], "unsupported checkpoint version 2"),
        (first_entry_tag(7), "has unknown dtype tag 7"),
    ], ids=["version_2", "dtype_tag_7"])
    def test_unreadable_header_value_named(self, trained, small_dataset, tmp_path, edit, named):
        path = tmp_path / "bad.qckp"
        path.write_bytes(edit(trained.read_bytes()))
        with pytest.raises(trainer.CheckpointError, match=named):
            trainer.load_checkpoint(path)
        proc = run_module(["eval", "--checkpoint", str(path), "--data", str(small_dataset),
                           "--report", str(tmp_path / "r.csv")])
        assert_exit(proc, cli.EXIT_MISMATCH)
        assert named in proc.stderr
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("edit", [lambda blob: b"{" + blob, lambda blob: b"[]",
                                      drop_key("arch"), drop_key("task"),
                                      set_config(("arch", "generator"), {"family": "generator"}),
                                      set_config(("arch",), ["generator"])],
                             ids=["not_json", "not_object", "no_arch", "no_task", "bad_arch",
                                  "arch_not_object"])
    def test_malformed_config_exit_code(self, trained, small_dataset, tmp_path, edit):
        path = tmp_path / "malformed.qckp"
        path.write_bytes(replace_blob(trained.read_bytes(), edit))
        code = run_cli(["eval", "--checkpoint", str(path), "--data", str(small_dataset),
                        "--report", str(tmp_path / "r.csv")])
        assert code == cli.EXIT_MISMATCH


class TestResumeErrors:
    # a malformed runtime, parameter or Adam entry is found with the checkpoint's task and arch,
    # before out_dir is made
    @pytest.mark.parametrize("edit", [
        in_blob(drop_key("runtime")),
        in_blob(set_config(("runtime",), [])),
        in_blob(set_config(("runtime", "epoch"), None)),
        in_blob(set_config(("runtime", "epoch"), "x")),
        in_blob(set_config(("runtime", "rng_state"), None)),
        in_blob(set_config(("runtime", "rng_state"), {"bit_generator": "MT19937"})),
        in_blob(set_config(("runtime", "history"), 3)),
        in_blob(set_config(("runtime", "history"), [["1", "train"]])),
        in_blob(set_config(("runtime", "best_val_mae"), None)),
        in_blob(set_config(("runtime", "best_val_mae"), "x")),
        rename_entry("adam.generator.step", "adam.generator.stXp"),
        nan_count("adam.discriminator.skipped"),
        rename_entry("discriminator.head.bias", "discriminator.head.biXs"),
        first_entry_dims((8, 9)),
        rename_entry("adam.generator.m.stem.weight", "adam.generator.m.stem.weiXht"),
        entry_dims("adam.discriminator.v.head.weight", (640, 1)),
    ], ids=["no_runtime", "runtime_not_object", "no_epoch", "epoch_not_int", "no_rng_state",
            "foreign_rng_state", "history_not_list", "short_history_row", "no_best_val_mae",
            "best_val_mae_not_number", "no_adam_step", "nan_adam_skipped", "no_parameter",
            "misshapen_parameter", "no_adam_moment", "misshapen_adam_moment"])
    def test_malformed_resume_exit_code(self, trained, small_dataset, tmp_path, edit):
        path = tmp_path / "malformed.qckp"
        path.write_bytes(edit(trained.read_bytes()))
        config = tmp_path / "resume.json"
        config.write_text(json.dumps(train_config(small_dataset, tmp_path / "out", epochs=2)))
        code = run_cli(["train", "--config", str(config), "--workers", "1", "--resume", str(path)])
        assert code == cli.EXIT_MISMATCH
        assert not (tmp_path / "out").exists()

    def test_checkpoint_of_another_task(self, trained, tmp_path):
        # `trained` learned interpolation_random; the same arch fits this denoise dataset
        data = tmp_path / "denoise"
        assert cli.main(["gen-data", "--task", "denoise", "--out", str(data), "--n", "20",
                         "--height", "32", "--width", "32", "--seed", "3"]) == 0
        doc = train_config(data, tmp_path / "out", epochs=2)
        doc["data"]["task"] = "denoise"
        config = tmp_path / "resume.json"
        config.write_text(json.dumps(doc))
        proc = run_module(["train", "--config", str(config), "--resume", str(trained)])
        assert_exit(proc, cli.EXIT_MISMATCH)
        assert "trained on task 'interpolation_random' but dataset is 'denoise'" in proc.stderr
        assert not (tmp_path / "out").exists()


def unet_config(data_dir, out_dir, epochs=1):
    return {
        "data": {"dir": str(data_dir), "task": "lfe"},
        "model": {"family": "unet", "base_channels": 4},
        "train": {"epochs": epochs, "batch_size": 8, "seed": 1, "checkpoint_every": 1,
                  "out_dir": str(out_dir)},
    }


@pytest.fixture(scope="module")
def unet_trained(lfe_dataset, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("unet_trained")
    config = out_dir / "cfg.json"
    config.write_text(json.dumps(unet_config(lfe_dataset, out_dir / "run")))
    assert cli.main(["train", "--config", str(config)]) == 0
    return out_dir / "run" / "last.qckp"


# the one-value config fields that checkpoints of older versions still record
RETIRED = {"generator": {"upsample_factor": 2}, "unet": {"levels": 3}}


def old_layouts(arch) -> list:
    """The `layouts` of one role as older versions recorded them: per quantum layer,
    per circuit layer, the CNOT pairs [q, q + 1] of the chain."""
    chain = [[q, q + 1] for q in range(arch["config"]["n_qubits"] - 1)]
    stack, layouts = [models.build_model(arch)], []
    while stack:
        node = stack.pop()
        if isinstance(node, models.QuantumConv):
            layouts.append([chain] * arch["config"]["circuit_depth"])
        stack.extend(node._modules.values())
    return layouts


def with_retired_fields(blob):
    config = json.loads(blob)
    config["layouts"] = {role: old_layouts(arch) for role, arch in config["arch"].items()}
    for arch in config["arch"].values():
        arch["config"].update(RETIRED.get(arch["family"], {}))
    return json.dumps(config, sort_keys=True).encode()


def resume(config_doc, checkpoint, tmp_path) -> int:
    config = tmp_path / f"resume_{Path(config_doc['train']['out_dir']).name}.json"
    config.write_text(json.dumps(config_doc))
    return run_cli(["train", "--config", str(config), "--resume", str(checkpoint)])


class TestArchCompatibility:
    """A checkpoint is checked only on the settings its families read, in their current names."""

    def test_unet_resumes_on_another_patch_size(self, unet_trained, tmp_path, capsys):
        data = tmp_path / "lfe40"
        assert cli.main(["gen-data", "--task", "lfe", "--out", str(data), "--n", "10",
                         "--height", "40", "--width", "40", "--seed", "2"]) == 0
        assert resume(unet_config(data, tmp_path / "out", epochs=2), unet_trained, tmp_path) == 0
        history = (tmp_path / "out" / "history.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in history] == ["epoch", "1", "1", "2", "2"]

    def test_qcgan_refuses_another_patch_size(self, trained, tmp_path, capsys):
        # the discriminator's fully connected head is sized by the patch
        data = tmp_path / "interp40"
        assert cli.main(["gen-data", "--task", "interpolation_random", "--out", str(data), "--n", "20",
                         "--height", "40", "--width", "40", "--seed", "3"]) == 0
        doc = train_config(data, tmp_path / "out", epochs=2)
        assert resume(doc, trained, tmp_path) == cli.EXIT_MISMATCH
        assert not (tmp_path / "out").exists()  # refused before the run directory is made

    def test_unet_refuses_another_base_channels(self, unet_trained, lfe_dataset, tmp_path):
        doc = unet_config(lfe_dataset, tmp_path / "out", epochs=2)
        doc["model"]["base_channels"] = 8
        assert resume(doc, unet_trained, tmp_path) == cli.EXIT_MISMATCH
        assert not (tmp_path / "out").exists()

    def test_qcgan_patch_mismatch_names_the_fields(self, trained, tmp_path):
        data = tmp_path / "interp40"
        assert cli.main(["gen-data", "--task", "interpolation_random", "--out", str(data), "--n", "20",
                         "--height", "40", "--width", "40", "--seed", "3"]) == 0
        config = tmp_path / "resume40.json"
        config.write_text(json.dumps(train_config(data, tmp_path / "out", epochs=2)))
        proc = run_module(["train", "--config", str(config), "--resume", str(trained)])
        assert_exit(proc, cli.EXIT_MISMATCH)
        error = next(line for line in proc.stderr.splitlines() if line.startswith("ERROR"))
        assert error.endswith("does not match the requested model: "
                              "discriminator.patch_height: stored 32, requested 40; "
                              "discriminator.patch_width: stored 32, requested 40"), error

    @pytest.mark.parametrize("family", ["qcgan", "unet"])
    def test_retired_fields_evaluate_and_resume_alike(self, family, trained, unet_trained,
                                                      small_dataset, lfe_dataset, tmp_path, capsys):
        current, data = (trained, small_dataset) if family == "qcgan" else (unet_trained, lfe_dataset)
        older = tmp_path / "older.qckp"
        older.write_bytes(replace_blob(current.read_bytes(), with_retired_fields))
        config = trainer.load_checkpoint(older).config
        stored = config["arch"]["generator" if family == "qcgan" else "model"]
        assert RETIRED[stored["family"]].items() <= stored["config"].items()
        assert all(config["layouts"].values())  # a chain for every quantum layer of every role
        outputs = []
        for name, ckpt in (("current", current), ("older", older)):
            report = tmp_path / f"{name}.csv"
            assert run_cli(["eval", "--checkpoint", str(ckpt), "--data", str(data), "--report", str(report)]) == 0
            doc = (train_config(data, tmp_path / name, epochs=2) if family == "qcgan"
                   else unet_config(data, tmp_path / name, epochs=2))
            assert resume(doc, ckpt, tmp_path) == 0
            outputs.append((report.read_bytes(), (tmp_path / name / "history.csv").read_bytes(),
                            trainer.load_checkpoint(tmp_path / name / "last.qckp").entries))
        (report_a, history_a, entries_a), (report_b, history_b, entries_b) = outputs
        assert report_a == report_b and history_a == history_b
        assert entries_a.keys() == entries_b.keys()
        assert all(np.array_equal(entries_a[k], entries_b[k]) for k in entries_a)

    def test_retired_field_at_another_value_is_a_mismatch(self, trained, small_dataset, tmp_path):
        path = tmp_path / "upsample3.qckp"
        path.write_bytes(replace_blob(trained.read_bytes(),
                                      set_config(("arch", "generator", "config", "upsample_factor"), 3)))
        proc = run_module(["eval", "--checkpoint", str(path), "--data", str(small_dataset),
                           "--report", str(tmp_path / "r.csv")])
        assert_exit(proc, cli.EXIT_MISMATCH)
        doc = train_config(small_dataset, tmp_path / "out", epochs=2)
        assert resume(doc, path, tmp_path) == cli.EXIT_MISMATCH


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(qcseis.__path__)))
def test_public_names_exist(name):
    module = importlib.import_module(f"qcseis.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def seis_value(offset, fmt, value):
    """An edit of a 32x32 .seis file that packs `value` at byte `offset`."""
    def edit(raw):
        raw = bytearray(raw)
        struct.pack_into(fmt, raw, offset, value)
        return bytes(raw)
    return edit


def seis_sign_flip(offset):
    def edit(raw):
        raw = bytearray(raw)
        raw[offset] ^= 0x80
        return bytes(raw)
    return edit


# header: 41 bytes with dt at 24 and dx at 32; then target, degraded, mask per patch
BAD_SEIS_EDITS = {
    "dt_sign_flipped": seis_sign_flip(31),
    "dx_sign_flipped": seis_sign_flip(39),
    "nan_sample": seis_value(41 + 4 * 7, "<f", float("nan")),
    "mask_two": seis_value(41 + 8 * 32 * 32, "<B", 2),
}


class TestBadDataValues:
    """A data file with bad values ends in the documented exit code, not a traceback."""

    @staticmethod
    def corrupt_copy(small_dataset, tmp_path, split, name):
        data = tmp_path / "data"
        data.mkdir()
        for p in small_dataset.glob("*.seis"):
            (data / p.name).write_bytes(p.read_bytes())
        target = data / f"{split}.seis"
        before = target.read_bytes()
        target.write_bytes(BAD_SEIS_EDITS[name](before))
        assert target.read_bytes() != before
        return data

    @pytest.mark.parametrize("name", sorted(BAD_SEIS_EDITS))
    def test_train(self, small_dataset, tmp_path, name):
        data = self.corrupt_copy(small_dataset, tmp_path, "train", name)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(train_config(data, tmp_path / "out", epochs=1)))
        assert run_cli(["train", "--config", str(config)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("name", sorted(BAD_SEIS_EDITS))
    def test_eval(self, trained, small_dataset, tmp_path, name):
        data = self.corrupt_copy(small_dataset, tmp_path, "test", name)
        code = run_cli(["eval", "--checkpoint", str(trained), "--data", str(data),
                        "--report", str(tmp_path / "r.csv")])
        assert code == cli.EXIT_CONFIG

    def test_eval_missing_dir(self, trained, tmp_path):
        code = run_cli(["eval", "--checkpoint", str(trained), "--data", str(tmp_path / "nowhere"),
                        "--report", str(tmp_path / "r.csv")])
        assert code == cli.EXIT_CONFIG


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    """The smallest dataset gen-data writes: one 8x8 patch in test.seis, 561 bytes."""
    root = tmp_path_factory.mktemp("cli_tiny")
    assert cli.main(["gen-data", "--task", "denoise", "--out", str(root),
                     "--n", "10", "--height", "8", "--width", "8"]) == 0
    return root


SEIS_HEADER_BYTES = 41
# flipping every bit of a dt or dx byte below the sign byte leaves a positive finite value
LOADING_FLIPS = set(range(24, 31)) | set(range(32, 39))


def copy_dataset(src: Path, data: Path) -> Path:
    data.mkdir()
    for p in src.glob("*.seis"):
        (data / p.name).write_bytes(p.read_bytes())
    return data


def flipped(raw: bytes, offset: int) -> bytes:
    bad = bytearray(raw)
    bad[offset] ^= 0xFF
    return bytes(bad)


class TestSeisSweep:
    """Every header byte flipped and every truncation of a small .seis file."""

    def test_load_seis_loads_or_raises_value_error(self, tiny_dataset, tmp_path):
        raw = (tiny_dataset / "test.seis").read_bytes()
        assert len(raw) == 561
        path = tmp_path / "test.seis"
        loaded = set()
        for offset in range(SEIS_HEADER_BYTES):
            path.write_bytes(flipped(raw, offset))
            try:
                seisdata.load_seis(path)
            except ValueError:
                continue
            loaded.add(offset)
        assert loaded == LOADING_FLIPS
        for size in range(len(raw)):
            path.write_bytes(raw[:size])
            with pytest.raises(ValueError):
                seisdata.load_seis(path)

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_exit_config(self, tiny_dataset, trained, tmp_path, command):
        raw = (tiny_dataset / "test.seis").read_bytes()
        cases = [flipped(raw, offset) for offset in range(SEIS_HEADER_BYTES)
                 if offset not in LOADING_FLIPS]
        cases += [raw[:size] for size in [*range(0, len(raw), 40), SEIS_HEADER_BYTES]]
        data = copy_dataset(tiny_dataset, tmp_path / "data")
        if command == "train":
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps(train_config(data, tmp_path / "out", epochs=1)))
            argv, split = ["train", "--config", str(config)], "train"
        else:
            argv = ["eval", "--checkpoint", str(trained), "--data", str(data),
                    "--report", str(tmp_path / "r.csv")]
            split = "test"
        for bad in cases:
            (data / f"{split}.seis").write_bytes(bad)
            assert run_cli(argv) == cli.EXIT_CONFIG
        assert not (tmp_path / "out").exists() and not (tmp_path / "r.csv").exists()


class TestNoTraceback:
    """Faults that once ended in a traceback end in their documented code."""

    def test_config_not_utf8(self, small_dataset, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_bytes(b"\xff\xfe" + json.dumps(train_config(small_dataset, tmp_path / "o")).encode())
        assert_exit(run_module(["train", "--config", str(config)]), cli.EXIT_CONFIG)

    def test_os_error_during_training(self, small_dataset, tmp_path):
        out_dir = tmp_path / "out"
        (out_dir / "history.csv").mkdir(parents=True)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(train_config(small_dataset, out_dir, epochs=1)))
        assert_exit(run_module(["train", "--config", str(config)]), cli.EXIT_IO)

    def test_eval_flat_target_patch(self, trained, small_dataset, tmp_path):
        data = copy_dataset(small_dataset, tmp_path / "data")
        test = seisdata.load_split(data, "test")
        targets = test.targets.copy()
        targets[0] = 0.0
        seisdata.save_seis(data / "test.seis", seisdata.SeismicDataset(
            targets, test.degraded, test.masks, test.dt, test.dx, test.task))
        proc = run_module(["eval", "--checkpoint", str(trained), "--data", str(data),
                           "--report", str(tmp_path / "r.csv")])
        assert_exit(proc, cli.EXIT_CONFIG)

    def test_eval_empty_test_split(self, trained, small_dataset, tmp_path, monkeypatch):
        # nothing to score: the checkpoint's model is never restored
        data = copy_dataset(small_dataset, tmp_path / "data")
        test = seisdata.load_split(data, "test")
        seisdata.save_seis(data / "test.seis", seisdata.SeismicDataset(
            test.targets[:0], test.degraded[:0], test.masks[:0], test.dt, test.dx, test.task))
        argv = ["eval", "--checkpoint", str(trained), "--data", str(data), "--report", str(tmp_path / "r.csv")]
        proc = run_module(argv)
        assert_exit(proc, cli.EXIT_CONFIG)
        assert "test split has no patches" in proc.stderr
        restored = []
        monkeypatch.setattr(cli, "_restore_eval_model", lambda *args: restored.append(args))
        assert run_cli(argv) == cli.EXIT_CONFIG
        assert restored == []
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("flags", [
        ["--v-lo", "0", "--v-hi", "0"],
        ["--v-lo", "-1", "--v-hi", "2000"],
        ["--dx", "nan"],
        ["--dt", "0"],
        ["--dt", "nan"],
        ["--f0-lo", "0", "--f0-hi", "0"],
        ["--f0-lo", "1e-12", "--f0-hi", "1e-12"],
        ["--f0-hi", "10"],  # the low end keeps its default, 15 Hz
        ["--n-events", "0"],
        ["--task", "lfe", "--dt", "0.5"],  # the 5-10 Hz input band is above Nyquist
        ["--noise-sigma", "1e39"],  # overflows float32: the splits hold non-finite samples
    ], ids=lambda flags: " ".join(flags))
    def test_gen_data_bad_physics(self, tmp_path, flags):
        # a later --task overrides this one
        proc = run_module(["gen-data", "--task", "denoise", "--out", str(tmp_path / "d"),
                           "--n", "10", "--height", "8", "--width", "8", *flags])
        assert_exit(proc, cli.EXIT_CONFIG)
        assert "RuntimeWarning" not in proc.stderr
        assert not (tmp_path / "d").exists()

    def test_validation_split_of_another_patch_size(self, lfe_dataset, tmp_path):
        # the UNet cannot run 36x36: the run would train an epoch, then fail validating
        data = copy_dataset(lfe_dataset, tmp_path / "data")
        val = seisdata.load_split(data, "val")
        pad = ((0, 0), (0, 4), (0, 4))
        seisdata.save_seis(data / "val.seis", seisdata.SeismicDataset(
            np.pad(val.targets, pad), np.pad(val.degraded, pad), np.pad(val.masks, pad[:2], constant_values=1),
            val.dt, val.dx, val.task))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(unet_config(data, tmp_path / "out")))
        proc = run_module(["train", "--config", str(config)])
        assert_exit(proc, cli.EXIT_CONFIG)
        assert "validation patches are (36, 36), training patches (32, 32)" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_train_split_of_one_patch(self, small_dataset, tmp_path):
        # one patch fills no batch: batch statistics need two
        data = copy_dataset(small_dataset, tmp_path / "data")
        train = seisdata.load_split(data, "train")
        seisdata.save_seis(data / "train.seis", seisdata.SeismicDataset(
            train.targets[:1], train.degraded[:1], train.masks[:1], train.dt, train.dx, train.task))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(train_config(data, tmp_path / "out", epochs=1)))
        proc = run_module(["train", "--config", str(config)])
        assert_exit(proc, cli.EXIT_CONFIG)
        assert "RuntimeWarning" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_empty_validation_split(self, small_dataset, tmp_path):
        # no patch to score: the run would log NaN and name a best checkpoint it never wrote
        data = copy_dataset(small_dataset, tmp_path / "data")
        val = seisdata.load_split(data, "val")
        seisdata.save_seis(data / "val.seis", seisdata.SeismicDataset(
            val.targets[:0], val.degraded[:0], val.masks[:0], val.dt, val.dx, val.task))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(train_config(data, tmp_path / "out", epochs=1)))
        proc = run_module(["train", "--config", str(config)])
        assert_exit(proc, cli.EXIT_CONFIG)
        assert "validation split" in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [["--dx", "1e300"], ["--v-lo", "1e-300", "--v-hi", "1e-300"]],
                             ids=lambda flags: " ".join(flags))
    def test_gen_data_travel_time_past_int64(self, tmp_path, flags):
        # the far traces' travel times overflow: the event misses them instead of wrapping
        proc = run_module(["gen-data", "--task", "denoise", "--out", str(tmp_path / "d"),
                           "--n", "10", "--height", "8", "--width", "8", *flags])
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert proc.stderr == ""
        assert len(seisdata.load_split(tmp_path / "d", "train")) == 8


class TestSelftestCommand:
    CHECKS = [
        "qsim_norm_preservation", "qsim_unitarity", "qsim_analytic_expectation",
        "parameter_shift_vs_finite_difference",
        "grad_conv2d", "grad_linear", "grad_prelu", "grad_batchnorm2d_train", "grad_batchnorm2d_eval",
        "grad_pixel_shuffle", "grad_split_concat", "grad_flatten", "grad_sigmoid", "grad_add",
        "grad_sub", "grad_mul", "grad_div", "grad_neg", "grad_scale", "grad_add_scalar",
        "grad_absval", "grad_log", "grad_sqrt", "grad_clamp", "grad_sum", "grad_mean",
        "grad_sum_axis", "grad_mean_axis", "grad_maxpool2d", "grad_avgpool2d",
        "grad_nearest_upsample",
        "qlayer_oracle_equivalence", "metric_hand_values", "psnr_convention", "selftest_runtime",
    ]

    def test_fresh_build_passes(self, capsys):
        assert run_cli(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] qsim_norm_preservation" in out
        # both readings of the quality-ratio convention are reported side by side
        assert "20*log10" in out and "10*log10" in out

    def test_result_names_pinned(self):
        # every check, once each, in the order the command prints them
        names = [r.name for r in run_selftest()]
        assert names == self.CHECKS
        assert len(set(names)) == len(names) == 35

    def test_injected_fault_detected(self, monkeypatch):
        # perturb one entry of the y-rotation matrix: the norm/unitarity
        # checks must flag it (raised or measured, either way a FAIL)
        def crooked(theta):
            half = 0.5 * float(theta)
            return float(np.cos(half)) + 1e-6, float(np.sin(half))

        monkeypatch.setattr(qsim, "_ry_entries", crooked)
        results = {r.name: r for r in run_selftest()}
        assert not results["qsim_norm_preservation"].passed

    def test_selftest_api_reports_failure(self, monkeypatch):
        def crooked(theta):
            half = 0.5 * float(theta)
            return float(np.cos(half)), float(np.sin(half)) * (1 + 2e-7)

        monkeypatch.setattr(qsim, "_ry_entries", crooked)
        results = run_selftest()
        failed = [r.name for r in results if not r.passed]
        assert failed and all(name.startswith(("qsim", "parameter_shift", "qlayer"))
                              for name in failed)
