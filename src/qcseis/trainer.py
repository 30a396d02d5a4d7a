"""Adam optimization, the shared training loop, checkpoints.

`train_gan` (adversarial) and `train_unet` (supervised) each define one
training step and hand it to `_fit`, the epoch loop both families share:
resume, data order, history, validation and checkpoints live there once.
Training is deterministic for a fixed seed, at any number of lanes (the
threads conv and the quantum layer split a batch over): data order comes
from a dedicated generator whose state rides along in checkpoints, so a
resumed run continues bit-identically. Checkpoints use the QCKP
container described in `save_checkpoint`; they and `history.csv` are
written to a temporary file that then replaces the target.
"""
from __future__ import annotations

import csv
import json
import logging
import math
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import models as mdl
from .autograd import Tensor
from .objectives import (
    LossWeights,
    loss_complementarity,
    loss_discriminator,
    loss_generator,
    mae,
    rmse,
)
from .seisdata import SeismicDataset, replacing

__all__ = [
    "Adam",
    "TrainConfig",
    "TrainingDivergedError",
    "CheckpointError",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "load_model_state",
    "check_resume",
    "check_train_split",
    "predict",
    "train_gan",
    "train_unet",
    "HISTORY_COLUMNS",
]

log = logging.getLogger("qcseis.trainer")

HISTORY_COLUMNS = ("epoch", "split", "mae", "rmse", "loss_g", "loss_d", "loss_com")

_QCKP_MAGIC = b"QCKP"
_QCKP_VERSION = 1
_DTYPE_TAGS = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
_DIVERGENCE_LIMIT = 3  # consecutive steps with a non-finite loss that stop training


class TrainingDivergedError(RuntimeError):
    """Raised when losses stay non-finite for three consecutive steps."""


class CheckpointError(RuntimeError):
    """Raised when a checkpoint cannot be read or does not fit the model."""


class Adam:
    """Standard Adam update with bias correction.

    Steps with any non-finite gradient are skipped entirely (counted in
    `skipped`), leaving parameters and moments untouched.
    """

    def __init__(self, params, lr: float):
        self.params = [p for p in params if p.trainable]
        self.lr = float(lr)
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.step_count = 0
        self.skipped = 0

    def step(self) -> bool:
        grads = []
        for p in self.params:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                self.skipped += 1
                log.warning("skipping optimizer step %d: non-finite gradient in %s",
                            self.step_count + 1, p.name)
                return False
            grads.append(g)
        self.step_count += 1
        t = self.step_count
        correction1 = 1.0 - _ADAM_BETA1 ** t
        correction2 = 1.0 - _ADAM_BETA2 ** t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= _ADAM_BETA1
            m += (1.0 - _ADAM_BETA1) * g
            v *= _ADAM_BETA2
            v += (1.0 - _ADAM_BETA2) * g * g
            m_hat = m / correction1
            v_hat = v / correction2
            p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)).astype(p.dtype)
        return True


def clip_global_norm(params, max_norm: float) -> float:
    """Scale gradients in place so their global norm is at most max_norm."""
    total = 0.0
    grads = [p.grad for p in params if p.trainable and p.grad is not None]
    for g in grads:
        total += float(np.sum(g.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for g in grads:
            g *= g.dtype.type(factor)
        log.info("gradient clipping active: norm %.3f -> %.3f", norm, max_norm)
    return norm


@dataclass
class TrainConfig:
    """Optimization settings; the defaults are full-scale, smoke configs shrink them."""

    epochs: int = 100
    batch_size: int = 16
    lr: float | None = None  # resolved per family: 1e-5 adversarial, 1e-4 unet
    weights: LossWeights = field(default_factory=LossWeights)
    com_in_discriminator: bool = True
    seed: int = 0
    checkpoint_every: int = 5
    grad_clip: float = 5.0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 2:
            raise ValueError("need epochs >= 1 and batch_size >= 2")
        if self.lr is not None and not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError("learning rate must be finite and positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.checkpoint_every < 1:
            raise ValueError("need checkpoint_every >= 1")
        if not (np.isfinite(self.grad_clip) and self.grad_clip >= 0):
            raise ValueError("grad_clip must be finite and >= 0")


# ---------------------------------------------------------------------------
# QCKP checkpoints


@dataclass
class Checkpoint:
    version: int
    config: dict
    entries: dict

    def require(self, key: str):
        """The config value under `key`; a checkpoint without it is malformed."""
        if key not in self.config:
            raise CheckpointError(f"checkpoint config has no {key!r} entry")
        return self.config[key]

    def require_task(self, task: str) -> None:
        """Fail unless the checkpoint was trained on `task`."""
        if self.require("task") != task:
            raise CheckpointError(
                f"checkpoint was trained on task {self.config['task']!r} but dataset is {task!r}")

    def require_arch(self, arch: dict) -> None:
        """Fail unless the stored roles match `arch`'s, each on `models.arch_signature`.

        The error names every role and field that differs, with both values.
        """
        stored = self.require("arch")
        try:
            signatures = [{role: mdl.arch_signature(a) for role, a in side.items()} for side in (stored, arch)]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint architecture is malformed: {exc!r}") from exc
        differences = _arch_differences(*signatures)
        if differences:
            raise CheckpointError(
                "checkpoint architecture does not match the requested model: " + "; ".join(differences))


def _arch_differences(stored: dict, requested: dict) -> list:
    """'role.field: stored X, requested Y' for each field where two role -> signature maps differ."""
    differences = []
    for role in sorted(stored.keys() | requested.keys()):
        if role not in requested or role not in stored:
            differences.append(f"{role}: {'stored' if role in stored else 'requested'} only")
            continue
        a, b = ({"family": sig["family"], **sig["config"]} for sig in (stored[role], requested[role]))
        for field in sorted(a.keys() | b.keys()):
            if field not in a or field not in b or a[field] != b[field]:
                differences.append(f"{role}.{field}: stored {json.dumps(a.get(field))}, "
                                   f"requested {json.dumps(b.get(field))}")
    return differences


def _iter_state_entries(role: str, model: mdl.Module):
    for name, p in model.named_parameters():
        yield f"{role}.{name}", p.data


def _optimizer_entries(role: str, opt: Adam):
    yield f"adam.{role}.step", np.asarray(float(opt.step_count), dtype=np.float64)
    yield f"adam.{role}.skipped", np.asarray(float(opt.skipped), dtype=np.float64)
    for p, m, v in zip(opt.params, opt.m, opt.v):
        yield f"adam.{role}.m.{p.name}", m
        yield f"adam.{role}.v.{p.name}", v


def save_checkpoint(path, task: str, model_map: dict, optimizer_map: dict,
                    train_cfg: TrainConfig, runtime: dict) -> None:
    """Write the QCKP container.

    Layout (little-endian): magic "QCKP", version u32, config-JSON length
    u32 + bytes, entry count u32, then per entry: name length u16 + UTF-8
    name, rank u8, dims u64 x rank, dtype tag u8 (0 = f32, 1 = f64), raw
    data. The config JSON carries the architecture blob, training config
    and runtime state (epoch, RNG, history). An existing file at `path` is
    replaced only once the new one is complete.
    """
    arch = {role: m.arch_config() for role, m in model_map.items()}
    config = {
        "format": _QCKP_VERSION,
        "task": task,
        "arch": arch,
        "train": asdict(train_cfg),
        "runtime": runtime,
    }
    blob = json.dumps(config, sort_keys=True).encode("utf-8")

    entries = []
    for role, m in model_map.items():
        entries.extend(_iter_state_entries(role, m))
    for role, opt in optimizer_map.items():
        entries.extend(_optimizer_entries(role, opt))

    with replacing(path, "wb") as fh:
        fh.write(_QCKP_MAGIC)
        fh.write(struct.pack("<I", _QCKP_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(entries)))
        for name, arr in entries:
            tag = 0 if arr.dtype == np.float32 else 1
            raw = arr.astype(_DTYPE_TAGS[tag])
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(struct.pack("<B", tag))
            fh.write(raw.tobytes())


def load_checkpoint(path) -> Checkpoint:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    view = memoryview(raw)
    pos = 0

    def take(n, what):
        nonlocal pos
        if pos + n > len(raw):
            raise CheckpointError(f"{path}: truncated while reading {what}")
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    if bytes(take(4, "magic")) != _QCKP_MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a QCKP checkpoint")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != _QCKP_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (blob_len,) = struct.unpack("<I", take(4, "config length"))
    blob = bytes(take(blob_len, "config blob"))
    try:
        config = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt config blob: {exc}") from exc
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: config blob is not a JSON object")
    (n_entries,) = struct.unpack("<I", take(4, "entry count"))
    entries = {}
    for i in range(n_entries):
        (name_len,) = struct.unpack("<H", take(2, f"entry {i} name length"))
        raw_name = bytes(take(name_len, f"entry {i} name"))
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: entry {i} name is not UTF-8: {exc}") from exc
        (rank,) = struct.unpack("<B", take(1, f"{name}: rank"))
        dims = [struct.unpack("<Q", take(8, f"{name}: dim {d}"))[0] for d in range(rank)]
        (tag,) = struct.unpack("<B", take(1, f"{name}: dtype tag"))
        if tag not in _DTYPE_TAGS:
            raise CheckpointError(f"{path}: entry {name!r} has unknown dtype tag {tag}")
        dtype = _DTYPE_TAGS[tag]
        # sized as Python integers: np.prod wraps around on huge dims
        data = take(math.prod(dims) * dtype.itemsize, f"entry {name!r} data")
        try:
            entries[name] = np.frombuffer(data, dtype=dtype).reshape(dims).copy()
        except ValueError as exc:  # an empty entry with a dim numpy cannot hold
            raise CheckpointError(f"{path}: entry {name!r} has dims {dims}: {exc}") from exc
    return Checkpoint(version=version, config=config, entries=entries)


def _shaped_entry(ckpt: Checkpoint, key: str, shape) -> np.ndarray:
    arr = ckpt.entries.get(key)
    if arr is None:
        raise CheckpointError(f"checkpoint is missing entry {key!r}")
    if arr.shape != shape:
        raise CheckpointError(f"entry {key!r} has shape {arr.shape}, model expects {shape}")
    return arr


def load_model_state(model: mdl.Module, ckpt: Checkpoint, role: str) -> None:
    """Copy every named parameter/buffer of `model` from checkpoint entries."""
    for name, p in model.named_parameters():
        p.data = _shaped_entry(ckpt, f"{role}.{name}", p.shape).astype(p.dtype, copy=True)


def _count_entry(ckpt: Checkpoint, key: str) -> int:
    arr = ckpt.entries.get(key)
    if arr is None or arr.size != 1 or not np.isfinite(arr).all() or arr.reshape(()) < 0:
        raise CheckpointError(f"checkpoint entry {key!r} is missing or not a count")
    return int(arr.reshape(())[()])


def _load_adam_state(opt: Adam, ckpt: Checkpoint, role: str) -> None:
    """Adam's counts and moments from entries check_resume has checked."""
    opt.step_count = _count_entry(ckpt, f"adam.{role}.step")
    opt.skipped = _count_entry(ckpt, f"adam.{role}.skipped")
    for i, p in enumerate(opt.params):
        for buf, kind in ((opt.m, "m"), (opt.v, "v")):
            buf[i] = ckpt.entries[f"adam.{role}.{kind}.{p.name}"].astype(buf[i].dtype, copy=True)


# ---------------------------------------------------------------------------
# training loops


def _load_runtime(ckpt: Checkpoint):
    """(data-order RNG, history rows, next epoch, best val MAE) saved in a checkpoint."""
    run = ckpt.require("runtime")
    try:
        rng = np.random.default_rng(0)
        rng.bit_generator.state = run["rng_state"]
        history = [tuple(r) for r in run["history"]]
        epoch = run["epoch"]
        best = run["best_val_mae"]
        best_val = float("inf") if best is None else float(best)
        if type(epoch) is not int or epoch < 0 or any(len(r) != len(HISTORY_COLUMNS) for r in history):
            raise ValueError("bad epoch or history row")
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint runtime entry is malformed: {exc!r}") from exc
    return rng, history, epoch, best_val


def check_resume(ckpt: Checkpoint, task: str, models: dict, epochs: int):
    """`_load_runtime(ckpt)`, after checking that the checkpoint was trained on `task`, that its
    arch matches that of `models`, role by role, and that it holds every parameter and Adam entry
    of each role in its shape, so loading them cannot fail. Raises CheckpointError at the first
    misfit, and ValueError when the checkpoint has reached `epochs`, leaving no epoch to train."""
    ckpt.require_task(task)
    ckpt.require_arch({role: m.arch_config() for role, m in models.items()})
    for role, m in models.items():
        for name, p in m.named_parameters():  # what load_model_state and _load_adam_state read
            for key in [f"{role}.{name}"] + [f"adam.{role}.{kind}.{name}" for kind in "mv" if p.trainable]:
                _shaped_entry(ckpt, key, p.shape)
        _count_entry(ckpt, f"adam.{role}.step")
        _count_entry(ckpt, f"adam.{role}.skipped")
    rng, history, epoch, best_val = _load_runtime(ckpt)
    if epoch >= epochs:
        raise ValueError(f"checkpoint is at epoch {epoch}, at or past train.epochs = {epochs}: "
                         f"nothing is left to train")
    return rng, history, epoch, best_val


def _write_history(path, rows) -> None:
    with replacing(path, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_COLUMNS)
        for row in rows:
            writer.writerow(row)


def _batches(order: np.ndarray, batch_size: int):
    for start in range(0, len(order), batch_size):
        idx = order[start : start + batch_size]
        if len(idx) < 2:
            log.info("dropping trailing batch of size %d (batch stats need >= 2)", len(idx))
            continue
        yield idx


def _as_batch(stack: np.ndarray, idx: np.ndarray) -> Tensor:
    return Tensor(stack[idx][:, None, :, :])


def predict(model, degraded: np.ndarray, batch_size: int) -> np.ndarray:
    """The model's outputs [N, T, S] for a stack of patches, run batch by batch without a graph."""
    predictions = np.empty_like(degraded)
    with ag.no_grad():
        for start in range(0, len(degraded), batch_size):
            sl = slice(start, start + batch_size)
            predictions[sl] = model(Tensor(degraded[sl][:, None])).data[:, 0]
    return predictions


def _validate(model, data: SeismicDataset, batch_size: int):
    model.eval()
    predictions = predict(model, data.degraded, batch_size)
    model.train()
    return (float(np.mean([mae(y, p) for y, p in zip(data.targets, predictions)])),
            float(np.mean([rmse(y, p) for y, p in zip(data.targets, predictions)])))


class _DivergenceGuard:
    def __init__(self):
        self.streak = 0

    def observe(self, *values: float) -> None:
        if all(np.isfinite(v) for v in values):
            self.streak = 0
            return
        self.streak += 1
        if self.streak >= _DIVERGENCE_LIMIT:
            raise TrainingDivergedError(
                f"training diverged: loss was non-finite for {self.streak} consecutive steps"
            )


def _fmt(value) -> str:
    return repr(float(value))


def check_train_split(train_set: SeismicDataset, val_set: SeismicDataset) -> None:
    """Raise ValueError unless the training split fills one batch (batch
    statistics need 2 patches) and the validation split has a patch to
    score, of the training split's shape."""
    if len(train_set) < 2:
        raise ValueError(f"training split needs at least 2 patches, got {len(train_set)}")
    if len(val_set) == 0:
        raise ValueError("validation split has no patches")
    if val_set.patch_shape != train_set.patch_shape:
        raise ValueError(f"validation patches are {val_set.patch_shape}, training patches {train_set.patch_shape}")


def _fit(task, models: dict, opts: dict, step_fn, train_set: SeismicDataset, val_set: SeismicDataset,
         cfg: TrainConfig, out_dir, resume: Checkpoint | None, step_hook) -> list:
    """The epoch loop both families share; returns the history rows.

    `models` and `opts` map checkpoint roles to modules and their Adam
    objects; the first model is validated. `step_fn(x, target)` trains on
    one batch and returns the prediction array, its losses by history
    column and the losses the divergence guard watches: plain values, so
    the step's graph is freed when it returns. Per epoch: validation,
    history CSV rewrite, cadenced "last" and best-validation checkpoints.
    """
    check_train_split(train_set, val_set)
    order_rng = np.random.default_rng([cfg.seed, 101])
    history: list = []
    start_epoch = 0
    best_val = float("inf")
    if resume is not None:
        order_rng, history, start_epoch, best_val = check_resume(resume, task, models, cfg.epochs)
        for role, m in models.items():
            load_model_state(m, resume, role)
        for role, opt in opts.items():
            _load_adam_state(opt, resume, role)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    guard = _DivergenceGuard()
    step = 0

    def checkpoint(path):
        runtime = {
            "epoch": epoch + 1,
            "rng_state": order_rng.bit_generator.state,
            "history": [list(r) for r in history],
            "best_val_mae": None if best_val == float("inf") else best_val,
        }
        save_checkpoint(path, task, models, opts, cfg, runtime)

    for epoch in range(start_epoch, cfg.epochs):
        for m in models.values():
            m.train()
        order = order_rng.permutation(len(train_set))
        agg = {"mae": [], "rmse": []}
        for idx in _batches(order, cfg.batch_size):
            x = _as_batch(train_set.degraded, idx)
            target = _as_batch(train_set.targets, idx)
            pred, losses, watched = step_fn(x, target)
            guard.observe(*watched)
            agg["mae"].append(mae(target.data, pred))
            agg["rmse"].append(rmse(target.data, pred))
            for column, value in losses.items():
                agg.setdefault(column, []).append(value)
            step += 1
            if step_hook is not None:
                step_hook(step, models)

        history.append((epoch + 1, "train") + tuple(
            _fmt(np.mean(agg[c])) if c in agg else "" for c in HISTORY_COLUMNS[2:]))
        val_mae, val_rmse = _validate(next(iter(models.values())), val_set, cfg.batch_size)
        history.append((epoch + 1, "val", _fmt(val_mae), _fmt(val_rmse), "", "", ""))
        _write_history(out_dir / "history.csv", history)
        if val_mae < best_val:
            best_val = val_mae
            checkpoint(out_dir / "best.qckp")
        if (epoch + 1) % cfg.checkpoint_every == 0 or epoch + 1 == cfg.epochs:
            checkpoint(out_dir / "last.qckp")
    return history


def _update(model, opt: Adam, loss: Tensor, max_norm: float) -> None:
    """One optimizer step of `model` on `loss`, its kept pairs released first so backward frees the graph."""
    model.release_pairs()
    model.zero_grad()
    ag.backward(loss)
    clip_global_norm(model.trainable_parameters(), max_norm)
    opt.step()


def train_gan(
    gen: mdl.Generator,
    disc: mdl.Discriminator,
    train_set: SeismicDataset,
    val_set: SeismicDataset,
    cfg: TrainConfig,
    out_dir,
    resume: Checkpoint | None = None,
    step_hook=None,
) -> list:
    """Alternating adversarial training; returns the history rows.

    Per batch: one discriminator step on the negated two-sided objective,
    then one generator step on the adversarial + reconstruction (+ weighted
    complementarity) objective.
    """
    if train_set.task not in ("interpolation_random", "interpolation_regular", "denoise"):
        raise ValueError(f"adversarial training expects a restoration task, got {train_set.task!r}")
    lr = cfg.lr if cfg.lr is not None else 1e-5
    opt_g = Adam(gen.trainable_parameters(), lr)
    opt_d = Adam(disc.trainable_parameters(), lr)
    lam_com = cfg.weights.complementarity

    def step(x, target):
        pred = gen(x)
        gen_pairs = gen.complementarity_pairs

        d_real = disc(target)
        disc_pairs = disc.complementarity_pairs
        d_fake = disc(pred.detach())
        l_d = loss_discriminator(d_real, d_fake)
        if cfg.com_in_discriminator and lam_com > 0 and disc_pairs:
            l_d = ag.add(l_d, ag.scale(loss_complementarity(disc_pairs), lam_com))
        _update(disc, opt_d, l_d, cfg.grad_clip)

        d_score = disc(pred)
        disc.release_pairs()  # the generator objective reads no discriminator pair
        l_com = loss_complementarity(gen_pairs)
        l_g = loss_generator(pred, target, d_score, cfg.weights)
        total = ag.add(l_g, ag.scale(l_com, lam_com)) if lam_com > 0 else l_g
        _update(gen, opt_g, total, cfg.grad_clip)
        losses = {"loss_g": l_g.item(), "loss_d": l_d.item(), "loss_com": l_com.item()}
        return pred.data, losses, (losses["loss_d"], total.item())

    return _fit(train_set.task, {"generator": gen, "discriminator": disc},
                {"generator": opt_g, "discriminator": opt_d}, step,
                train_set, val_set, cfg, out_dir, resume, step_hook)


def train_unet(
    model: mdl.UNet,
    train_set: SeismicDataset,
    val_set: SeismicDataset,
    cfg: TrainConfig,
    out_dir,
    resume: Checkpoint | None = None,
    step_hook=None,
) -> list:
    """Supervised L1 training (+ weighted complementarity on the bottleneck pair)."""
    if train_set.task != "lfe":
        raise ValueError(f"unet training expects the lfe task, got {train_set.task!r}")
    lr = cfg.lr if cfg.lr is not None else 1e-4
    opt = Adam(model.trainable_parameters(), lr)
    lam_com = cfg.weights.complementarity

    def step(x, target):
        pred = model(x)
        l1 = ag.tmean(ag.absval(ag.sub(pred, target)))
        l_com = loss_complementarity(model.complementarity_pairs)
        total = ag.add(l1, ag.scale(l_com, lam_com)) if lam_com > 0 else l1
        _update(model, opt, total, cfg.grad_clip)
        return pred.data, {"loss_g": total.item(), "loss_com": l_com.item()}, (total.item(),)

    return _fit(train_set.task, {"model": model}, {"model": opt}, step,
                train_set, val_set, cfg, out_dir, resume, step_hook)
