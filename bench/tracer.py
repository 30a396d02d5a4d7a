"""Per-layer tracing of qcseis from outside the package.

Every wrapper replaces a module or class attribute at the place where the
caller looks the name up (the models call ``ag.*`` through the module,
``quantum_conv`` reaches ``quantum_forward`` through ``qlayer``'s globals,
the trainer calls the losses through its own globals). ``Tracer.restore``
puts every original back, so an untraced run executes unmodified code.

Times and counts accumulate per phase. The benchmark switches the phase
between ``setup``, ``step`` (training steps or eval batches) and
``after`` (what follows the last step or batch: validation and checkpoint
writes, or the eval report and spectra).
"""
from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np

from qcseis import autograd as ag
from qcseis import cli, models, objectives, qlayer, seisdata, trainer

# op kinds reported per layer; every other op is still timed in backward
# (so the engine's own time can be separated) and counted for grad_useful
OP_KINDS = {
    "conv2d": "conv2d",
    "batchnorm2d": "batchnorm2d",
    "prelu": "prelu",
    "maxpool2d": "pool",
    "avgpool2d": "pool",
    "nearest_upsample": "upsample",
    "pixel_shuffle": "upsample",
}
_NOT_OPS = {"Tensor", "Parameter", "ShapeError", "DegenerateBatchError", "no_grad", "backward", "tensor"}
AUTOGRAD_OPS = tuple(name for name in ag.__all__ if name not in _NOT_OPS)


class Tracer:
    """Installs timing wrappers on qcseis's public functions; a context manager."""

    def __init__(self):
        self.phase = "setup"
        self.ms = defaultdict(float)  # (phase, key) -> milliseconds
        self.counts = defaultdict(int)  # (phase, key) -> count
        self._saved = []  # (owner, attribute, original) in install order

    # -- accumulation -----------------------------------------------------

    def _time(self, key, seconds):
        self.ms[self.phase, key] += seconds * 1e3

    def _count(self, key, n=1):
        self.counts[self.phase, key] += n

    def total_ms(self, key, phases=None):
        return sum(v for (ph, k), v in self.ms.items() if k == key and (phases is None or ph in phases))

    def total_count(self, key, phases=None):
        return sum(v for (ph, k), v in self.counts.items() if k == key and (phases is None or ph in phases))

    # -- install / restore ------------------------------------------------

    def _replace(self, owner, name, wrapper):
        original = vars(owner)[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _timed(self, key, fn, after=None):
        """Wrapper that adds fn's wall time to key; after(result, args) adds counts."""

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self._time(key, time.perf_counter() - t0)
            self._count(f"{key}.calls")
            if after is not None:
                after(out, args, kwargs)
            return out

        return wrapper

    def wrap_backward(self, out, kind):
        """Time the backward rule recorded on `out` and count the gradients it returns."""
        rule = out._backward
        if rule is None:
            return
        parents = out._parents
        key = f"autograd.{kind}.bwd"

        def timed_rule(g):
            t0 = time.perf_counter()
            grads = rule(g)
            elapsed = time.perf_counter() - t0
            self._time(key, elapsed)
            self._time("autograd.rules", elapsed)
            for parent, grad in zip(parents, grads):
                if grad is None:
                    continue
                self._count("autograd.grad_elems", np.size(grad))
                if parent.requires_grad:
                    self._count("autograd.grad_useful_elems", np.size(grad))
            return grads

        out._backward = timed_rule

    def _wrap_op(self, name, fn):
        kind = OP_KINDS.get(name, name)

        def op(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self._time(f"autograd.{kind}.fwd", time.perf_counter() - t0)
            self._count(f"autograd.{kind}.calls")
            for t in out if isinstance(out, tuple) else (out,):
                if isinstance(t, ag.Tensor):
                    self.wrap_backward(t, kind)
            return out

        return op

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")

        def count_windows(out, args, kwargs):
            x, cfg = args[0], args[2]
            b, c, t, s = np.shape(getattr(x, "data", x))
            self._count("qlayer.windows", b * c * t * (-(-s // cfg.stride)))

        self._replace(qlayer, "quantum_forward",
                      self._timed("qlayer.forward", qlayer.quantum_forward, count_windows))
        self._replace(qlayer, "quantum_input_grad",
                      self._timed("qlayer.input_grad", qlayer.quantum_input_grad))

        for name in AUTOGRAD_OPS:
            self._replace(ag, name, self._wrap_op(name, getattr(ag, name)))
        self._replace(ag, "backward", self._timed("autograd.backward", ag.backward))

        quantum_conv = models.quantum_conv

        def traced_quantum_conv(*args, **kwargs):
            out = quantum_conv(*args, **kwargs)
            self.wrap_backward(out, "quantum")
            return out

        self._replace(models, "quantum_conv", traced_quantum_conv)

        for cls, key in ((models.Generator, "models.generator.fwd"),
                         (models.Discriminator, "models.discriminator.fwd"),
                         (models.UNet, "models.unet.fwd")):
            self._replace(cls, "forward", self._timed(key, cls.forward))

        for name in ("loss_generator", "loss_discriminator", "loss_complementarity"):
            self._replace(trainer, name, self._timed("objectives.loss", getattr(trainer, name)))

        def count_skipped(applied, args, kwargs):
            if not applied:
                self._count("trainer.adam_skipped")

        def count_clipped(norm, args, kwargs):
            max_norm = args[1] if len(args) > 1 else kwargs["max_norm"]
            if max_norm > 0 and norm > max_norm:
                self._count("trainer.clipped_steps")

        def checkpoint_bytes(out, args, kwargs):
            self._count("trainer.checkpoint_bytes", os.path.getsize(args[0]))

        def split_bytes(out, args, kwargs):
            data_dir, split = args[0], args[1]
            self._count("seisdata.bytes_read", os.path.getsize(os.path.join(data_dir, f"{split}.seis")))

        self._replace(trainer.Adam, "step", self._timed("trainer.adam", trainer.Adam.step, count_skipped))
        self._replace(trainer, "clip_global_norm",
                      self._timed("trainer.clip", trainer.clip_global_norm, count_clipped))
        self._replace(trainer, "save_checkpoint",
                      self._timed("trainer.save_checkpoint", trainer.save_checkpoint, checkpoint_bytes))
        self._replace(trainer, "load_checkpoint",
                      self._timed("trainer.load_checkpoint", trainer.load_checkpoint))
        self._replace(seisdata, "load_split", self._timed("seisdata.load_split", seisdata.load_split, split_bytes))

        self._replace(objectives.EvalReport, "add_sample",
                      self._timed("objectives.metrics", objectives.EvalReport.add_sample))
        for name in ("amplitude_spectrum", "fk_spectrum"):
            self._replace(cli, name, self._timed("objectives.spectra", getattr(cli, name)))
        return self

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False
