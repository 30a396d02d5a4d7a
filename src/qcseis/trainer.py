"""Adam optimization, the shared training loop, checkpoints.

`train_gan` (adversarial) and `train_unet` (supervised) each define one
training step and hand it to `_fit`, the epoch loop both families share:
resume, data order, history, validation and checkpoints live there once.
Training is deterministic for a fixed seed and worker count: data order
comes from a dedicated generator whose state rides along in checkpoints,
so a resumed run continues bit-identically. Checkpoints use the QCKP
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


class TrainingDivergedError(RuntimeError):
    """Raised when losses stay non-finite for three consecutive steps."""


class CheckpointError(RuntimeError):
    """Raised when a checkpoint cannot be read or does not fit the model."""


class Adam:
    """Standard Adam update with bias correction.

    Steps with any non-finite gradient are skipped entirely (counted in
    `skipped`), leaving parameters and moments untouched.
    """

    def __init__(self, params, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = [p for p in params if p.trainable]
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros_like(p.tensor.data) for p in self.params]
        self.v = [np.zeros_like(p.tensor.data) for p in self.params]
        self.step_count = 0
        self.skipped = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> bool:
        grads = []
        for p in self.params:
            g = p.grad if p.grad is not None else np.zeros_like(p.tensor.data)
            if not np.all(np.isfinite(g)):
                self.skipped += 1
                log.warning("skipping optimizer step %d: non-finite gradient in %s",
                            self.step_count + 1, p.name)
                return False
            grads.append(g)
        self.step_count += 1
        t = self.step_count
        correction1 = 1.0 - self.beta1 ** t
        correction2 = 1.0 - self.beta2 ** t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / correction1
            v_hat = v / correction2
            p.tensor.data -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.tensor.data.dtype)
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
        if self.checkpoint_every < 1:
            raise ValueError("need checkpoint_every >= 1")
        if not (np.isfinite(self.grad_clip) and self.grad_clip >= 0):
            raise ValueError("grad_clip must be finite and >= 0")
        if isinstance(self.weights, dict):
            self.weights = LossWeights(**self.weights)


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
        yield f"{role}.{name}", np.asarray(p.tensor.data)


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
    data. The config JSON carries the architecture blob, training config,
    circuit layouts, and runtime state (epoch, RNG, history). An
    existing file at `path` is replaced only once the new one is complete.
    """
    arch = {role: m.arch_config() for role, m in model_map.items()}
    layouts = {role: _collect_layouts(m) for role, m in model_map.items()}
    config = {
        "format": _QCKP_VERSION,
        "task": task,
        "arch": arch,
        "train": asdict(train_cfg),
        "layouts": layouts,
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
            arr = np.asarray(arr)
            if arr.dtype == np.float32:
                tag, raw = 0, arr.astype("<f4")
            else:
                tag, raw = 1, arr.astype("<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(struct.pack("<B", tag))
            fh.write(raw.tobytes())


def _collect_layouts(model: mdl.Module) -> list:
    layouts = []
    stack = [model]
    while stack:
        node = stack.pop()
        if isinstance(node, mdl.QuantumConv):
            layouts.append([list(map(list, layer)) for layer in node.layout])
        stack.extend(node._modules.values())
    return layouts


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


def load_model_state(model: mdl.Module, ckpt: Checkpoint, role: str) -> None:
    """Copy every named parameter/buffer of `model` from checkpoint entries."""
    for name, p in model.named_parameters():
        key = f"{role}.{name}"
        if key not in ckpt.entries:
            raise CheckpointError(f"checkpoint is missing entry {key!r}")
        arr = ckpt.entries[key]
        if tuple(arr.shape) != tuple(p.tensor.shape):
            raise CheckpointError(
                f"entry {key!r} has shape {tuple(arr.shape)}, model expects {tuple(p.tensor.shape)}"
            )
        p.tensor.data = arr.astype(p.tensor.data.dtype, copy=True)


def _count_entry(ckpt: Checkpoint, key: str) -> int:
    arr = ckpt.entries.get(key)
    if arr is None or arr.size != 1 or not np.isfinite(arr).all() or arr.reshape(()) < 0:
        raise CheckpointError(f"checkpoint entry {key!r} is missing or not a count")
    return int(arr.reshape(())[()])


def _load_adam_state(opt: Adam, ckpt: Checkpoint, role: str) -> None:
    opt.step_count = _count_entry(ckpt, f"adam.{role}.step")
    opt.skipped = _count_entry(ckpt, f"adam.{role}.skipped")
    for i, p in enumerate(opt.params):
        for buf, kind in ((opt.m, "m"), (opt.v, "v")):
            key = f"adam.{role}.{kind}.{p.name}"
            arr = ckpt.entries.get(key)
            if arr is None or arr.shape != buf[i].shape:
                raise CheckpointError(f"checkpoint entry {key!r} is missing or misshapen")
            buf[i] = arr.astype(buf[i].dtype, copy=True)


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
    def __init__(self, limit: int = 3):
        self.limit = limit
        self.streak = 0

    def observe(self, *values: float) -> None:
        if all(np.isfinite(v) for v in values):
            self.streak = 0
            return
        self.streak += 1
        if self.streak >= self.limit:
            raise TrainingDivergedError(
                f"training diverged: loss was non-finite for {self.streak} consecutive steps"
            )


def _fmt(value) -> str:
    return repr(float(value))


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
    if len(train_set) == 0:
        raise ValueError("training split is empty")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    order_rng = np.random.default_rng([cfg.seed, 101])
    history: list = []
    start_epoch = 0
    best_val = float("inf")
    if resume is not None:
        resume.require_arch({role: m.arch_config() for role, m in models.items()})
        for role, m in models.items():
            load_model_state(m, resume, role)
        for role, opt in opts.items():
            _load_adam_state(opt, resume, role)
        order_rng, history, start_epoch, best_val = _load_runtime(resume)

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
        disc.zero_grad()
        ag.backward(l_d)
        clip_global_norm(disc.trainable_parameters(), cfg.grad_clip)
        opt_d.step()

        d_score = disc(pred)
        l_com = loss_complementarity(gen_pairs)
        l_g = loss_generator(pred, target, d_score, cfg.weights)
        total = ag.add(l_g, ag.scale(l_com, lam_com)) if lam_com > 0 else l_g
        gen.release_pairs()
        disc.release_pairs()
        gen.zero_grad()
        disc.zero_grad()
        ag.backward(total)
        clip_global_norm(gen.trainable_parameters(), cfg.grad_clip)
        opt_g.step()
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
        model.release_pairs()
        model.zero_grad()
        ag.backward(total)
        clip_global_norm(model.trainable_parameters(), cfg.grad_clip)
        opt.step()
        return pred.data, {"loss_g": total.item(), "loss_com": l_com.item()}, (total.item(),)

    return _fit(train_set.task, {"model": model}, {"model": opt}, step,
                train_set, val_set, cfg, out_dir, resume, step_hook)
