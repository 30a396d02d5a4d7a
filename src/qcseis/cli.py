"""Command-line interface: data generation, training, evaluation, self-test.

Every command is driven by flags or a JSON config whose resolved form
(all defaults materialized) is echoed next to its outputs, so any run can
be reproduced from the echo alone. Machine-readable summaries go to
stdout; diagnostics go to stderr via logging.

The `model` and `train` config sections are read off the dataclasses:
`models.NetConfig` (plus the GAN's `blocks`), `trainer.TrainConfig` and
`objectives.LossWeights` declare every key and its default, and a value
must have the JSON type of its default.

Exit codes: 0 success, 1 self-test failure, 2 invalid flags, config or
input data, 3 I/O failure, 4 training divergence, 5 checkpoint/data
mismatch. The commands raise; `main` maps each fault to its code through
the one table `_EXIT_CODES`.
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import models as mdl
from . import seisdata, trainer
from .objectives import EvalReport, LossWeights, amplitude_spectrum, fk_spectrum
from .selftest import run_selftest

log = logging.getLogger("qcseis.cli")

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGED = 4
EXIT_MISMATCH = 5


class ConfigError(ValueError):
    pass


def _env_seed(seed: int) -> int:
    override = os.environ.get("QCSEIS_SEED")
    if override is None:
        return seed
    try:
        return int(override)
    except ValueError as exc:
        raise ConfigError(f"QCSEIS_SEED must be an integer, got {override!r}") from exc


# ---------------------------------------------------------------------------
# config schema


_DATA_DEFAULTS = {"dir": None, "task": None}
# the dataset sets the patch size, so patch_* are not config keys
_NET_KEYS = [f.name for f in fields(mdl.NetConfig) if not f.name.startswith("patch_")]
_GEN_DEFAULTS = asdict(mdl.GeneratorConfig())
_MODEL_DEFAULTS = {
    "family": None,  # "qcgan" or "unet"
    "init_seed": 0,
    **{key: _GEN_DEFAULTS[key] for key in _NET_KEYS + ["blocks"]},
}
_TRAIN_KEYS = [f.name for f in fields(trainer.TrainConfig) if f.name != "weights"]
_WEIGHT_KEYS = {"lambda_rec": "reconstruction", "lambda_com": "complementarity"}
_TC_DEFAULTS = asdict(trainer.TrainConfig())
_TRAIN_DEFAULTS = {
    **{key: _TC_DEFAULTS[key] for key in _TRAIN_KEYS},
    **{key: _TC_DEFAULTS["weights"][name] for key, name in _WEIGHT_KEYS.items()},
    "out_dir": None,
}
_SECTIONS = {"data": _DATA_DEFAULTS, "model": _MODEL_DEFAULTS, "train": _TRAIN_DEFAULTS}


def _merge_section(name: str, doc: dict, defaults: dict) -> dict:
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = set(section) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in config section {name!r}: {sorted(unknown)}")
    merged = dict(defaults)
    merged.update(section)
    return merged


# the JSON values a key takes, by the type of its default; keys that default to null by name
_ACCEPTED = {bool: ((bool,), "a boolean"), int: ((int,), "an integer"), float: ((int, float), "a number")}
_ACCEPTED_BY_KEY = {"dir": ((str,), "a string"), "out_dir": ((str,), "a string"),
                    "lr": ((int, float, type(None)), "a number or null")}


def _check_types(name: str, section: dict, defaults: dict) -> None:
    for key, default in defaults.items():
        accepted = _ACCEPTED_BY_KEY.get(key) or _ACCEPTED.get(type(default))
        if accepted and type(section[key]) not in accepted[0]:
            raise ConfigError(f"{name}.{key} must be {accepted[1]}, got {section[key]!r}")


def resolve_config(doc: dict) -> dict:
    """Materialize defaults, reject unknown keys at every level and wrongly typed values."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown top-level config sections: {sorted(unknown)}")
    resolved = {name: _merge_section(name, doc, defaults) for name, defaults in _SECTIONS.items()}
    if not resolved["data"]["dir"]:
        raise ConfigError("data.dir is required")
    if resolved["model"]["family"] not in ("qcgan", "unet"):
        raise ConfigError("model.family must be 'qcgan' or 'unet'")
    if not resolved["train"]["out_dir"]:
        raise ConfigError("train.out_dir is required")
    for name, defaults in _SECTIONS.items():
        _check_types(name, resolved[name], defaults)
    resolved["train"]["seed"] = _env_seed(resolved["train"]["seed"])
    return resolved


def _model_configs(model_cfg: dict, patch: tuple, family: str):
    common = {key: model_cfg[key] for key in _NET_KEYS}
    common.update(patch_height=patch[0], patch_width=patch[1])
    if family == "qcgan":
        gen = mdl.GeneratorConfig(blocks=model_cfg["blocks"], **common)
        disc = mdl.DiscriminatorConfig(blocks=model_cfg["blocks"], **common)
        return gen, disc
    return mdl.UNetConfig(**common)


def _train_config(train_cfg: dict) -> trainer.TrainConfig:
    weights = LossWeights(**{name: train_cfg[key] for key, name in _WEIGHT_KEYS.items()})
    return trainer.TrainConfig(weights=weights, **{key: train_cfg[key] for key in _TRAIN_KEYS})


# ---------------------------------------------------------------------------
# commands


def _load_split(data_dir, split: str) -> seisdata.SeismicDataset:
    """A split, or ConfigError: a data path that holds no loadable dataset is a bad input."""
    try:
        return seisdata.load_split(data_dir, split)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load dataset from {data_dir}: {exc}") from exc


def cmd_gen_data(args) -> int:
    if args.height < 8 or args.width < 8:
        raise ConfigError(f"patch dims must be at least 8x8, got {args.height}x{args.width}")
    if args.n < 10:
        raise ConfigError(f"need at least 10 patches, got {args.n}")
    seed = _env_seed(args.seed)
    # lfe defaults: coarser sampling and the low-frequency source wavelet
    dt = args.dt if args.dt is not None else (0.016 if args.task == "lfe" else 0.004)
    if args.f0_lo is None or args.f0_hi is None:
        f0 = (7.0, 7.0) if args.task == "lfe" else _F0_DEFAULTS
    else:
        f0 = (args.f0_lo, args.f0_hi)
    spec = seisdata.DegradationSpec(task=args.task, noise_sigma=args.noise_sigma, seed=seed)
    paths = seisdata.build_dataset(
        spec, args.n, (args.height, args.width), args.out,
        dt=dt, dx=args.dx, n_events=args.n_events,
        velocity_range=(args.v_lo, args.v_hi), f0_range=f0,
    )
    summary = {
        "task": args.task,
        "out": str(args.out),
        "counts": {k: len(seisdata.load_seis(v)) for k, v in paths.items() if k != "sidecar"},
        "bytes": {k: Path(v).stat().st_size for k, v in paths.items()},
    }
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = resolve_config(json.loads(Path(args.config).read_text()))
    tc = _train_config(cfg["train"])

    data_dir = Path(cfg["data"]["dir"])
    train_set = _load_split(data_dir, "train")
    val_set = _load_split(data_dir, "val")
    if cfg["data"]["task"] and cfg["data"]["task"] != train_set.task:
        raise ConfigError(f"config expects task {cfg['data']['task']!r} but dataset is {train_set.task!r}")

    family = cfg["model"]["family"]
    expected_family = "unet" if train_set.task == "lfe" else "qcgan"
    if family != expected_family:
        raise ConfigError(f"task {train_set.task!r} needs model family {expected_family!r}, "
                          f"config says {family!r}")

    out_dir = Path(cfg["train"]["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "resolved_config.json", "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)

    resume = trainer.load_checkpoint(args.resume) if args.resume else None
    patch = train_set.patch_shape
    init_seed = cfg["model"]["init_seed"]
    if family == "qcgan":
        gcfg, dcfg = _model_configs(cfg["model"], patch, family)
        gen = mdl.Generator(gcfg, init_seed=init_seed)
        disc = mdl.Discriminator(dcfg, init_seed=init_seed + 1)
        history = trainer.train_gan(gen, disc, train_set, val_set, tc, out_dir, resume=resume)
    else:
        ucfg = _model_configs(cfg["model"], patch, family)
        model = mdl.UNet(ucfg, init_seed=init_seed)
        history = trainer.train_unet(model, train_set, val_set, tc, out_dir, resume=resume)

    val_rows = [row for row in history if row[1] == "val"]
    summary = {
        "epochs": tc.epochs,
        "final_val_mae": float(val_rows[-1][2]) if val_rows else None,
        "history": str(out_dir / "history.csv"),
        "last_checkpoint": str(out_dir / "last.qckp"),
        "best_checkpoint": str(out_dir / "best.qckp"),
    }
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def _restore_eval_model(ckpt: trainer.Checkpoint, task: str):
    if ckpt.require("task") != task:
        raise trainer.CheckpointError(
            f"checkpoint was trained on task {ckpt.config['task']!r} but dataset is {task!r}")
    arch = ckpt.require("arch")
    if not isinstance(arch, dict) or not {"generator", "model"} & arch.keys():
        raise trainer.CheckpointError("checkpoint has no restorable model entry")
    role = "generator" if "generator" in arch else "model"
    try:
        model = mdl.build_model(arch[role])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise trainer.CheckpointError(f"checkpoint architecture for {role!r} is malformed: {exc!r}") from exc
    trainer.load_model_state(model, ckpt, role)
    model.eval()
    return model


def _dump_spectra(out_dir: Path, index: int, target, degraded, predicted, dt: float, dx: float) -> None:
    mid = target.shape[1] // 2
    freqs, mag_t = amplitude_spectrum(target[:, mid], dt)
    _, mag_d = amplitude_spectrum(degraded[:, mid], dt)
    _, mag_p = amplitude_spectrum(predicted[:, mid], dt)
    with open(out_dir / f"amp_spectrum_{index:03d}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["freq_hz", "target", "degraded", "predicted"])
        for row in zip(freqs, mag_t, mag_d, mag_p):
            writer.writerow([repr(float(v)) for v in row])
    freqs, wavenumbers, grid = fk_spectrum(predicted, dt, dx)
    # magnitudes in dB relative to the panel maximum
    peak = grid.max()
    db = 20.0 * np.log10(np.maximum(grid, 1e-12) / max(peak, 1e-12))
    with open(out_dir / f"fk_pred_{index:03d}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["freq_hz\\wavenumber_per_m"] + [repr(float(k)) for k in wavenumbers])
        for f, row in zip(freqs, db):
            writer.writerow([repr(float(f))] + [repr(float(v)) for v in row])


def cmd_eval(args) -> int:
    ckpt = trainer.load_checkpoint(args.checkpoint)
    test_set = _load_split(args.data, "test")
    model = _restore_eval_model(ckpt, test_set.task)

    report = EvalReport(task=test_set.task)
    try:
        predictions = trainer.predict(model, test_set.degraded, 8)
    except ag.ShapeError as exc:
        raise trainer.CheckpointError(f"checkpoint and dataset are incompatible: {exc}") from exc
    for i in range(len(test_set)):
        report.add_sample(test_set.targets[i], predictions[i])

    report.to_csv(args.report)
    if args.spectra_dir:
        spectra_dir = Path(args.spectra_dir)
        spectra_dir.mkdir(parents=True, exist_ok=True)
        for i in range(len(test_set)):
            _dump_spectra(spectra_dir, i, test_set.targets[i], test_set.degraded[i],
                          predictions[i], test_set.dt, test_set.dx)
    print(json.dumps({"samples": report.count, "aggregate": report.aggregate(),
                      "report": str(args.report)}, sort_keys=True))
    return EXIT_OK


def cmd_selftest(args) -> int:
    results = run_selftest()
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    if failed:
        log.error("self-test failed at check %r", failed[0].name)
        return EXIT_SELFTEST
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


_F0_DEFAULTS = (15.0, 45.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qcseis",
                                     description="quantum-classical seismic restoration toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate a synthetic degraded dataset")
    gen.add_argument("--task", required=True, choices=seisdata.TASKS)
    gen.add_argument("--out", required=True)
    gen.add_argument("--n", type=int, default=100, help="number of patches")
    gen.add_argument("--height", type=int, default=64, help="time samples per patch")
    gen.add_argument("--width", type=int, default=64, help="traces per patch")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--dt", type=float, default=None, help="seconds per sample")
    gen.add_argument("--dx", type=float, default=25.0, help="meters per trace")
    gen.add_argument("--n-events", type=int, default=4)
    gen.add_argument("--noise-sigma", type=float, default=0.1)
    gen.add_argument("--f0-lo", type=float, default=None,
                     help="wavelet frequency range low end (task-dependent default)")
    gen.add_argument("--f0-hi", type=float, default=None)
    gen.add_argument("--v-lo", type=float, default=1500.0)
    gen.add_argument("--v-hi", type=float, default=4000.0)
    gen.set_defaults(func=cmd_gen_data)

    train = sub.add_parser("train", help="train from a JSON run config")
    train.add_argument("--config", required=True)
    train.add_argument("--resume", default=None, help="checkpoint to continue from")
    train.add_argument("--workers", type=int, default=None,
                       help="accepted for older scripts; the quantum layer starts no threads")
    train.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a test split")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--report", required=True)
    ev.add_argument("--spectra-dir", default=None)
    ev.add_argument("--workers", type=int, default=None, help="accepted and ignored, as for train")
    ev.set_defaults(func=cmd_eval)

    st = sub.add_parser("selftest", help="run the built-in verification suite")
    st.add_argument("--workers", type=int, default=None, help="accepted and ignored, as for train")
    st.set_defaults(func=cmd_selftest)
    return parser


# the exit code of each fault a command raises; the first matching class wins
_EXIT_CODES = {
    trainer.TrainingDivergedError: EXIT_DIVERGED,
    trainer.CheckpointError: EXIT_MISMATCH,
    OSError: EXIT_IO,
    ValueError: EXIT_CONFIG,  # also ConfigError, JSONDecodeError and UnicodeDecodeError
}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        log.error("%s", exc)
        return next(code for fault, code in _EXIT_CODES.items() if isinstance(exc, fault))


if __name__ == "__main__":
    sys.exit(main())
