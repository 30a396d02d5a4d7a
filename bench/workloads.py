"""The benchmark's workloads: seeded inputs, timed loops, metrics.

Each workload runs in one process as a closed loop with one caller. A run
repeats the workload's timed unit (one training epoch from freshly built
models, or one ``qcseis eval``) until its seconds are used, and reports
medians over the repetitions. With tracing on, repetitions alternate
between untraced and traced; the traced ones give the per-layer numbers,
and the two kinds together the tracing overhead.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from qcseis import cli, models, objectives, qlayer, seisdata, trainer

import checks
from tracer import Tracer

DEFINITIONS = json.loads((Path(__file__).with_name("workloads.json")).read_text())["workloads"]
EVAL_BATCH = 8  # batch size of the eval command
QSIM_RUNS_PER_CALL = 512  # scalar circuit runs per quantum call in the qsim check
GRAD_CHECK_PATCHES = 2  # patches of the checked batch whose quantum input gradient is compared
GRAD_CHECK_WINDOWS = 16  # windows compared per quantum call
# Model weights start from one fixed seed on every run: with per-seed weights
# the validation MAE of the briefly trained models spreads by about 60%
# across seeds, too wide to guard the arithmetic.
INIT_SEED = 0


def make_inputs(name: str, seed: int, work: Path) -> dict:
    """Write the workload's SEIS splits (and eval checkpoint) from the seed.

    Runs before any timing, through the public generators only; the timed
    code receives just the written files. The training split is cut down
    to the workload's epoch size, so the validation split can be large
    enough for a steady val_mae without lengthening the epoch. A workload
    with a `val_seed` takes its validation split from that fixed seed.
    """
    params = DEFINITIONS[name]["params"]
    patch = tuple(params["patch"])
    data_dir = work / "data"
    if params["task"] == "lfe":
        # the lfe defaults of `qcseis gen-data`
        extra = {"dt": 0.016, "f0_range": (7.0, 7.0)}
    else:
        extra = {}
    spec = seisdata.DegradationSpec(task=params["task"], seed=seed)
    paths = seisdata.build_dataset(spec, params["n_patches"], patch, data_dir, **extra)
    if "val_seed" in params:
        fixed = seisdata.DegradationSpec(task=params["task"], seed=params["val_seed"])
        fixed_paths = seisdata.build_dataset(fixed, params["n_patches"], patch, work / "val_data", **extra)
        shutil.copyfile(fixed_paths["val"], paths["val"])
    full = seisdata.load_seis(paths["train"])
    keep = slice(0, params["splits"]["train"])
    seisdata.save_seis(paths["train"], seisdata.SeismicDataset(
        full.targets[keep], full.degraded[keep], full.masks[keep], full.dt, full.dx, full.task))
    inputs = {"data": data_dir}
    if name == "eval_gan":
        gen, disc = build_gan(patch)
        optimizers = {"generator": trainer.Adam(gen.trainable_parameters(), 1e-5),
                      "discriminator": trainer.Adam(disc.trainable_parameters(), 1e-5)}
        runtime = {"epoch": 0, "rng_state": None, "history": [], "best_val_mae": None}
        inputs["checkpoint"] = work / "init.qckp"
        trainer.save_checkpoint(inputs["checkpoint"], params["task"],
                                {"generator": gen, "discriminator": disc}, optimizers,
                                trainer.TrainConfig(seed=seed), runtime)
    return inputs


def build_gan(patch):
    shape = {"patch_height": patch[0], "patch_width": patch[1]}
    return (models.Generator(models.GeneratorConfig(**shape), init_seed=INIT_SEED),
            models.Discriminator(models.DiscriminatorConfig(**shape), init_seed=INIT_SEED + 1))


def build_unet(patch):
    return models.UNet(models.UNetConfig(patch_height=patch[0], patch_width=patch[1]), init_seed=INIT_SEED)


def final_val_mae(history) -> float:
    return float([row for row in history if row[1] == "val"][-1][2])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat(unit, seconds: float, min_reps: int) -> list:
    """Call unit() until the next call would overrun `seconds` (at least min_reps times)."""
    reps = []
    t0 = time.perf_counter()
    while True:
        reps.append(unit())
        elapsed = time.perf_counter() - t0
        if len(reps) >= min_reps and elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


# ---------------------------------------------------------------------------
# training workloads


class TrainingWorkload:
    def __init__(self, name: str, seed: int, inputs: dict, work: Path):
        self.name = name
        self.seed = seed
        self.patch = tuple(DEFINITIONS[name]["params"]["patch"])
        self.batch = DEFINITIONS[name]["params"]["train"]["batch_size"]
        self.data_dir = inputs["data"]
        self.out_dir = work / "run"
        self.tracer = None
        self.min_reps = 2
        self.last = None  # models and training split of the latest rep, for the qsim check

    def rep(self) -> dict:
        """Set up from the files and train one epoch; returns timestamps and history."""
        self.last = None  # free the previous rep's models before building new ones
        t0 = time.perf_counter()
        train_set = seisdata.load_split(self.data_dir, "train")
        val_set = seisdata.load_split(self.data_dir, "val")
        nets = build_gan(self.patch) if self.name == "gan_quantum" else (build_unet(self.patch),)
        cfg = trainer.TrainConfig(epochs=1, batch_size=self.batch, seed=self.seed)
        # the trainer drops a trailing batch of one patch
        n_steps = len(train_set) // self.batch + (len(train_set) % self.batch >= 2)
        stamps = []
        tracer = self.tracer

        def hook(step, _models):
            stamps.append(time.perf_counter())
            if tracer is not None and step == n_steps:
                tracer.phase = "after"

        if tracer is not None:
            tracer.phase = "step"
        start = time.perf_counter()
        if self.name == "gan_quantum":
            history = trainer.train_gan(*nets, train_set, val_set, cfg, self.out_dir, step_hook=hook)
        else:
            history = trainer.train_unet(*nets, train_set, val_set, cfg, self.out_dir, step_hook=hook)
        end = time.perf_counter()
        if tracer is not None:
            tracer.phase = "setup"
        self.last = (nets, train_set)
        return {"setup_s": start - t0, "start": start, "stamps": stamps, "end": end,
                "patches": n_steps * self.batch, "history": history}

    def prepare(self):
        pass

    @staticmethod
    def step_seconds(reps, warmup: int = 1) -> list:
        """Step durations from step_hook stamps, without the first `warmup` steps."""
        out = []
        for r in reps:
            out.extend(np.diff([r["start"]] + r["stamps"]))
        return out[warmup:]

    def end_to_end(self, reps, import_s: float) -> dict:
        return {
            "setup_s": import_s + statistics.median(r["setup_s"] for r in reps),
            "step_ms": 1e3 * statistics.median(self.step_seconds(reps)),
            "patches_per_s": statistics.median(r["patches"] / (r["end"] - r["start"]) for r in reps),
            "peak_rss_mb": peak_rss_mb(),
            "val_mae": final_val_mae(reps[0]["history"]),
        }

    def failures(self, reps) -> tuple[int, int]:
        """(attempted, failed) operations: the timed steps plus the quantum-layer check.

        A rep's steps fail when a loss is not finite or its history differs
        from the first rep's; every step fails when val_mae differs from the
        baseline's for this seed. The quantum-layer check fails when the
        trained model's quantum forward or input gradient on the epoch's
        first batch strays from scalar qsim.
        """
        if not checks.matches_reference(self.name, self.seed, final_val_mae(reps[0]["history"])):
            bad = reps
        else:
            bad = [r for r in reps if not checks.finite_history(r["history"]) or r["history"] != reps[0]["history"]]
        failed = sum(len(r["stamps"]) for r in bad)
        # the first batch of the epoch, in the order the trainer draws it
        nets, train_set = self.last
        order = np.random.default_rng([self.seed, 101]).permutation(len(train_set))
        calls = checks.capture_quantum_inputs(nets[0], train_set.degraded[order[:self.batch]])
        errors = checks.qsim_window_errors(calls, QSIM_RUNS_PER_CALL, self.seed)
        errors += checks.qsim_input_grad_errors(calls, GRAD_CHECK_PATCHES, GRAD_CHECK_WINDOWS, self.seed)
        if not calls or max(errors) >= checks.QSIM_TOLERANCE:
            failed += 1
        return sum(len(r["stamps"]) for r in reps) + 1, failed

    def per_layer(self, tracer: Tracer, reps, untraced_reps) -> dict:
        steps = sum(len(r["stamps"]) for r in reps)
        step_ms = 1e3 * statistics.median(self.step_seconds(reps, warmup=0))
        out = layer_metrics(tracer, steps, ("step",))
        mean_step_ms = 1e3 * sum(r["stamps"][-1] - r["start"] for r in reps) / steps
        out["qlayer.step_share"] = (out["qlayer.forward_ms"] + out["qlayer.input_grad_ms"]) / mean_step_ms
        out["trainer.epoch_end_ms"] = 1e3 * statistics.median(r["end"] - r["stamps"][-1] for r in reps)
        untraced = 1e3 * statistics.median(self.step_seconds(untraced_reps))
        out["trace_overhead_pct"] = 100.0 * (step_ms / untraced - 1.0)
        return out


# ---------------------------------------------------------------------------
# eval workload


class _BoundaryReport(objectives.EvalReport):
    """cli.EvalReport stand-in that stamps the start and the end of the eval batches.

    The eval command builds its report right before the first batch and
    adds the first sample right after the last one. The stamps also move
    the tracer, when one is set, between its phases.
    """

    stamps = {}
    tracer = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _BoundaryReport.stamps["first_batch"] = time.perf_counter()
        if _BoundaryReport.tracer is not None:
            _BoundaryReport.tracer.phase = "step"

    def add_sample(self, target, prediction) -> None:
        if "batches_done" not in _BoundaryReport.stamps:
            _BoundaryReport.stamps["batches_done"] = time.perf_counter()
            if _BoundaryReport.tracer is not None:
                _BoundaryReport.tracer.phase = "after"
        super().add_sample(target, prediction)


class EvalWorkload:
    def __init__(self, name: str, seed: int, inputs: dict, work: Path):
        self.name = name
        self.seed = seed
        self.data_dir = inputs["data"]
        self.checkpoint = inputs["checkpoint"]
        self.report = work / "report.csv"
        self.spectra = work / "spectra"
        self.n_test = DEFINITIONS[name]["params"]["splits"]["test"]
        self.tracer = None
        self.min_reps = 3
        self.expected = None  # the report recomputed through objectives.evaluate_pairs

    def rep(self) -> dict:
        if self.spectra.exists():
            shutil.rmtree(self.spectra)
        _BoundaryReport.stamps = {}
        _BoundaryReport.tracer = self.tracer
        argv = ["eval", "--checkpoint", str(self.checkpoint), "--data", str(self.data_dir),
                "--report", str(self.report), "--spectra-dir", str(self.spectra),
                "--workers", str(qlayer.get_workers())]
        original = cli.EvalReport
        cli.EvalReport = _BoundaryReport
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = cli.main(argv)
                end = time.perf_counter()
        finally:
            cli.EvalReport = original
            _BoundaryReport.tracer = None
        if self.tracer is not None:
            self.tracer.phase = "setup"
        if code != 0:
            raise RuntimeError(f"qcseis eval exited with code {code}")
        stamps = _BoundaryReport.stamps
        return {"setup_s": stamps["first_batch"] - start, "start": stamps["first_batch"],
                "forward_end": stamps["batches_done"], "end": end,
                "failed": checks.report_failures(self.report, self.spectra, self.expected)}

    def n_batches(self) -> int:
        return -(-self.n_test // EVAL_BATCH)

    def end_to_end(self, reps, import_s: float) -> dict:
        return {
            "setup_s": import_s + statistics.median(r["setup_s"] for r in reps),
            "step_ms": 1e3 * statistics.median((r["forward_end"] - r["start"]) / self.n_batches() for r in reps),
            "patches_per_s": statistics.median(self.n_test / (r["end"] - r["start"]) for r in reps),
            "peak_rss_mb": peak_rss_mb(),
            "val_mae": self.expected.aggregate()["mae"],
        }

    def prepare(self):
        """Recompute the expected report outside the timed span, before the first rep."""
        test_set = seisdata.load_split(self.data_dir, "test")
        preds = checks.predict(checks.restore_generator(self.checkpoint), test_set.degraded, EVAL_BATCH)
        self.expected = objectives.evaluate_pairs(test_set.targets, preds, test_set.task)

    def failures(self, reps) -> tuple[int, int]:
        """(attempted, failed) eval patches; all fail when val_mae differs from the baseline's."""
        attempted = self.n_test * len(reps)
        if not checks.matches_reference(self.name, self.seed, self.expected.aggregate()["mae"]):
            return attempted, attempted
        return attempted, sum(r["failed"] for r in reps)

    def per_layer(self, tracer: Tracer, reps, untraced_reps) -> dict:
        batches = self.n_batches() * len(reps)
        out = layer_metrics(tracer, batches, ("step",))
        out["trainer.epoch_end_ms"] = 0.0  # no training epoch
        forward_ms = 1e3 * sum(r["forward_end"] - r["start"] for r in reps) / batches
        out["qlayer.step_share"] = (out["qlayer.forward_ms"] + out["qlayer.input_grad_ms"]) / forward_ms
        rate = statistics.median(self.n_test / (r["end"] - r["start"]) for r in reps)
        untraced = statistics.median(self.n_test / (r["end"] - r["start"]) for r in untraced_reps)
        out["trace_overhead_pct"] = 100.0 * (untraced / rate - 1.0)
        return out


# ---------------------------------------------------------------------------
# per-layer metrics from the tracer


def layer_metrics(tracer: Tracer, units: int, phases) -> dict:
    """Per-unit (step or eval batch) layer metrics accumulated in `phases`."""

    def ms(key):
        return tracer.total_ms(key, phases) / units

    def count(key):
        return tracer.total_count(key, phases) / units

    def per_call(key, counter=None, calls_of=None):
        """Milliseconds (or the `counter` total) per call of `calls_of` (default: key), in any phase."""
        calls = tracer.total_count(f"{calls_of or key}.calls")
        if not calls:
            return 0.0
        total = tracer.total_count(counter) if counter else tracer.total_ms(key)
        return total / calls

    out = {
        "qlayer.forward_ms": ms("qlayer.forward"),
        "qlayer.input_grad_ms": ms("qlayer.input_grad"),
        "qlayer.calls": count("qlayer.forward.calls"),
        "qlayer.windows": count("qlayer.windows"),
    }
    out["qlayer.grad_to_forward"] = (out["qlayer.input_grad_ms"] / out["qlayer.forward_ms"]
                                     if out["qlayer.forward_ms"] else 0.0)
    for kind in ("conv2d", "batchnorm2d", "prelu", "pool", "upsample"):
        out[f"autograd.{kind}.fwd_ms"] = ms(f"autograd.{kind}.fwd")
        out[f"autograd.{kind}.bwd_ms"] = ms(f"autograd.{kind}.bwd")
    out["autograd.conv2d.calls"] = count("autograd.conv2d.calls")
    out["autograd.backward_ms"] = ms("autograd.backward")
    out["autograd.backward_engine_ms"] = out["autograd.backward_ms"] - ms("autograd.rules")
    total = tracer.total_count("autograd.grad_elems", phases)
    useful = tracer.total_count("autograd.grad_useful_elems", phases)
    # an eval run returns no gradients at all, so nothing is wasted
    out["autograd.grad_useful_ratio"] = useful / total if total else 1.0
    out["autograd.grad_elems"] = total / units
    out["models.generator.fwd_ms"] = ms("models.generator.fwd")
    out["models.discriminator.fwd_ms"] = ms("models.discriminator.fwd")
    out["models.unet.fwd_ms"] = ms("models.unet.fwd")
    out["objectives.loss_ms"] = ms("objectives.loss")
    # the eval report adds one sample per patch
    out["objectives.metrics_ms"] = per_call("objectives.metrics")
    out["objectives.spectra_ms"] = per_call("objectives.spectra", calls_of="objectives.metrics")
    out["trainer.adam_ms"] = ms("trainer.adam")
    out["trainer.clip_ms"] = ms("trainer.clip")
    out["trainer.save_checkpoint_ms"] = per_call("trainer.save_checkpoint")
    out["trainer.checkpoint_bytes"] = per_call("trainer.save_checkpoint", "trainer.checkpoint_bytes")
    out["trainer.load_checkpoint_ms"] = per_call("trainer.load_checkpoint")
    out["trainer.clipped_steps"] = count("trainer.clipped_steps")
    out["trainer.adam_skipped"] = count("trainer.adam_skipped")
    out["seisdata.load_split_ms"] = per_call("seisdata.load_split")
    out["seisdata.bytes_read"] = per_call("seisdata.load_split", "seisdata.bytes_read")
    return out
