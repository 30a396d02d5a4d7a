"""Network assemblies: dual-pathway GAN generator/discriminator and UNet.

Every architecture comes in a quantum-on and a quantum-off (classical
twin) variant. In the quantum variant each fusion site splits its input
channels, runs a classical convolutional path next to the quantum feature
layer, and concatenates the two; the classical twin routes the whole
partition through the convolutional path instead. Pre-concatenation
feature pairs are kept after each forward pass for the complementarity
loss.

The three families share one design, declared once: `NetConfig` holds
the settings and defaults they have in common (width, quantum split,
circuits, patch size), and `_Network` owns the config, the kept pairs and
the architecture dict that checkpoints record. Each family adds only its
own fields, its layers and its forward pass. `arch_signature` is the part
of that dict a checkpoint is checked on: the fields the family reads.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import autograd as ag
from .autograd import Parameter, Tensor
from .qlayer import QuantumLayerConfig, quantum_conv
from .qsim import RandomCircuit

__all__ = [
    "Module",
    "ModuleList",
    "Conv2d",
    "BatchNorm2d",
    "PReLU",
    "Linear",
    "QuantumConv",
    "HybridResidualBlock",
    "NetConfig",
    "GeneratorConfig",
    "DiscriminatorConfig",
    "UNetConfig",
    "Generator",
    "Discriminator",
    "UNet",
    "count_trainable_parameters",
    "arch_signature",
    "build_model",
]


class Module:
    """Minimal layer container: tracks parameters, children, and mode."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, key, value):
        if isinstance(value, Parameter):
            self._params[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        object.__setattr__(self, key, value)

    def named_parameters(self, prefix: str = ""):
        for key, p in self._params.items():
            name = f"{prefix}{key}"
            p.name = name
            yield name, p
        for key, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{key}.")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def trainable_parameters(self):
        return [p for _, p in self.named_parameters() if p.trainable]

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True):
        object.__setattr__(self, "training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def release_pairs(self):
        """Forget the complementarity pairs of the last forward, and the graph they reach."""
        for key in ("pair", "_pairs"):
            if key in vars(self):
                object.__setattr__(self, key, None)
        for child in self._modules.values():
            child.release_pairs()

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    def __init__(self, modules):
        super().__init__()
        self._items = list(modules)
        for i, m in enumerate(self._items):
            self._modules[str(i)] = m

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]


# rectifier-gain fan-in bound (He-style uniform, slope matching the PReLU init)
_PRELU_GAIN_SQ = 2.0 / (1.0 + 0.25 ** 2)


class Conv2d(Module):
    def __init__(self, cin, cout, k, rng, stride=1, padding=0, dtype=np.float32):
        super().__init__()
        bound = np.sqrt(3.0 * _PRELU_GAIN_SQ / (cin * k * k))
        self.weight = Parameter(rng.uniform(-bound, bound, (cout, cin, k, k)), dtype=dtype)
        self.bias = Parameter(np.zeros(cout), dtype=dtype)
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return ag.conv2d(x, self.weight.tensor, self.bias.tensor, self.stride, self.padding)


class BatchNorm2d(Module):
    def __init__(self, channels, dtype=np.float32, momentum=0.1, eps=1e-5):
        super().__init__()
        self.gamma = Parameter(np.ones(channels), dtype=dtype)
        self.beta = Parameter(np.zeros(channels), dtype=dtype)
        self.running_mean = Parameter(np.zeros(channels), trainable=False, dtype=dtype)
        self.running_var = Parameter(np.ones(channels), trainable=False, dtype=dtype)
        self.momentum = momentum
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        return ag.batchnorm2d(
            x,
            self.gamma.tensor,
            self.beta.tensor,
            self.running_mean.tensor.data,
            self.running_var.tensor.data,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )


class PReLU(Module):
    def __init__(self, channels, dtype=np.float32, init=0.25):
        super().__init__()
        self.alpha = Parameter(np.full(channels, init), dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return ag.prelu(x, self.alpha.tensor)


class Linear(Module):
    def __init__(self, fin, fout, rng, dtype=np.float32):
        super().__init__()
        bound = 1.0 / np.sqrt(fin)
        self.weight = Parameter(rng.uniform(-bound, bound, (fout, fin)), dtype=dtype)
        self.bias = Parameter(np.zeros(fout), dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return ag.linear(x, self.weight.tensor, self.bias.tensor)


class QuantumConv(Module):
    """Quantum feature layer wrapper; circuit angles live in buffers.

    Circuits are rebuilt from the angle buffers on every forward, so a
    restored checkpoint never depends on the angle PRNG.
    """

    def __init__(self, cfg: QuantumLayerConfig):
        super().__init__()
        self.cfg = cfg
        for i, circuit in enumerate(cfg.make_circuits()):
            setattr(self, f"circuit{i}_angles", Parameter(circuit.angles, trainable=False, dtype=np.float64))
        self.layout = RandomCircuit.chain_layout(cfg.depth, cfg.n_qubits)

    def circuits(self):
        return [
            RandomCircuit(
                index=i,
                depth=self.cfg.depth,
                n_qubits=self.cfg.n_qubits,
                seed=self.cfg.seed,
                angles=self._params[f"circuit{i}_angles"].data,
                entangler_layout=self.layout,
            )
            for i in range(self.cfg.n_circuits)
        ]

    def forward(self, x: Tensor) -> Tensor:
        return quantum_conv(x, self.circuits(), self.cfg)


class ConvUnit(Module):
    """conv 3x3 (stride 1, padding 1) + batch norm + PReLU."""

    def __init__(self, cin, cout, rng, dtype=np.float32):
        super().__init__()
        self.conv = Conv2d(cin, cout, 3, rng, stride=1, padding=1, dtype=dtype)
        self.bn = BatchNorm2d(cout, dtype=dtype)
        self.act = PReLU(cout, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return self.act(self.bn(self.conv(x)))


class HybridResidualBlock(Module):
    """Channel-split block: residual conv path beside the quantum path.

    The classical partition goes through three conv units with an additive
    skip; the quantum partition (when enabled) goes through the quantum
    layer. The two maps are concatenated channel-wise and optionally fused
    back to the block width by a 1x1 conv. The pre-concatenation pair is
    kept on `self.pair` for the complementarity loss.
    """

    def __init__(self, channels, quantum_channels, qcfg, rng, quantum=True, fuse=True, dtype=np.float32):
        super().__init__()
        self.quantum = quantum
        if quantum:
            if not 0 < quantum_channels < channels:
                raise ValueError(
                    f"quantum partition {quantum_channels} must be inside (0, {channels})"
                )
            self.classical_channels = channels - quantum_channels
            self.qconv = QuantumConv(qcfg)
            concat_channels = self.classical_channels + qcfg.n_circuits
        else:
            self.classical_channels = channels
            concat_channels = channels
        self.unit1 = ConvUnit(self.classical_channels, self.classical_channels, rng, dtype=dtype)
        self.unit2 = ConvUnit(self.classical_channels, self.classical_channels, rng, dtype=dtype)
        self.unit3 = ConvUnit(self.classical_channels, self.classical_channels, rng, dtype=dtype)
        self.out_channels = channels if fuse else concat_channels
        if fuse:
            self.fuse = Conv2d(concat_channels, channels, 1, rng, dtype=dtype)
        else:
            self.fuse = None
        self.pair = None

    def forward(self, x: Tensor) -> Tensor:
        if self.quantum:
            xc, xq = ag.split_channels(x, self.classical_channels)
            q = self.qconv(xq)
        else:
            xc, q = x, None
        r = ag.add(xc, self.unit3(self.unit2(self.unit1(xc))))
        if self.quantum:
            self.pair = (r, q)
            out = ag.concat_channels(r, q)
        else:
            self.pair = None
            out = r
        return self.fuse(out) if self.fuse is not None else out


def _quantum_partition(channels: int, fraction: float) -> int:
    q = int(round(channels * fraction))
    return min(max(q, 1), channels - 1)


def _layer_qcfg(cfg, site_seed: int) -> QuantumLayerConfig:
    return QuantumLayerConfig(
        n_qubits=cfg.n_qubits,
        n_circuits=cfg.n_circuits,
        depth=cfg.circuit_depth,
        seed=site_seed,
        input_scale=cfg.input_scale,
    )


@dataclass
class NetConfig:
    """Settings every network family shares; the dataset sets the patch size."""

    base_channels: int = 32
    quantum_fraction: float = 0.25
    quantum: bool = True
    n_qubits: int = 4
    n_circuits: int = 4
    circuit_depth: int = 2
    circuit_seed: int = 7
    input_scale: float = 1.0
    patch_height: int = 64
    patch_width: int = 64

    def __post_init__(self):
        if self.base_channels < 1:
            raise ValueError("need at least one base channel")


@dataclass
class GeneratorConfig(NetConfig):
    blocks: int = 4

    def __post_init__(self):
        super().__post_init__()
        if self.blocks < 1 or self.base_channels < 2:
            raise ValueError("need at least one block and two base channels")


@dataclass
class DiscriminatorConfig(NetConfig):
    blocks: int = 4

    def __post_init__(self):
        super().__post_init__()
        if self.blocks < 1:
            raise ValueError("need at least one block")


@dataclass
class UNetConfig(NetConfig):
    """The UNet reads only the shared settings."""


class _Network(Module):
    """Shell every family shares: its config, the pairs its forward keeps, its arch dict."""

    family: str  # the name checkpoints record
    config_type: type
    unread = ()  # config fields the layers never read, so checkpoints are not checked on them
    retired = {}  # fields older checkpoints record, each with the one value it could take

    def __init__(self, cfg: NetConfig):
        super().__init__()
        self.cfg = cfg
        self._pairs = None

    @property
    def complementarity_pairs(self):
        if self._pairs is None:
            raise RuntimeError("complementarity pairs requested with no forward pass kept")
        return list(self._pairs)

    def arch_config(self) -> dict:
        return {"family": self.family, "config": asdict(self.cfg)}


class Generator(_Network):
    """Restoration network: strided stem, dual-path blocks, sub-pixel upsample."""

    family = "generator"
    config_type = GeneratorConfig
    unread = ("patch_height", "patch_width")
    retired = {"upsample_factor": 2}

    def __init__(self, cfg: GeneratorConfig, init_seed: int = 0, dtype=np.float32):
        super().__init__(cfg)
        rng = np.random.default_rng(init_seed)
        c0 = cfg.base_channels
        qch = _quantum_partition(c0, cfg.quantum_fraction)
        self.stem = Conv2d(1, c0, 3, rng, stride=2, padding=1, dtype=dtype)
        self.stem_act = PReLU(c0, dtype=dtype)
        self.blocks = ModuleList(
            [
                HybridResidualBlock(
                    c0, qch, _layer_qcfg(cfg, cfg.circuit_seed + l), rng,
                    quantum=cfg.quantum, fuse=True, dtype=dtype,
                )
                for l in range(cfg.blocks)
            ]
        )
        self.up_conv = Conv2d(c0, 4, 3, rng, padding=1, dtype=dtype)  # one channel per 2x2 sub-pixel
        self.out_conv = Conv2d(1, 1, 3, rng, padding=1, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != 1:
            raise ag.ShapeError(f"generator expects [B, 1, T, S], got {x.shape}")
        _, _, t, s = x.shape
        if t % 2 or s % 2:
            raise ag.ShapeError(f"generator needs even patch dims, got {t}x{s}")
        if self.cfg.quantum and s // 2 < self.cfg.n_qubits:
            raise ag.ShapeError(f"trace axis {s} too short for the quantum window after the stem")
        x0 = self.stem_act(self.stem(x))
        h = x0
        pairs = []
        for block in self.blocks:
            h = block(h)
            if block.pair is not None:
                pairs.append(block.pair)
        h = ag.add(x0, h)
        up = ag.pixel_shuffle(self.up_conv(h), 2)
        self._pairs = pairs
        return self.out_conv(up)


class Discriminator(_Network):
    """Real/fake scorer: dual-path blocks with pooling, then flatten + fc + sigmoid.

    The last block skips the 1x1 fusion so the concatenated classical and
    quantum maps feed the fully connected head directly.
    """

    family = "discriminator"
    config_type = DiscriminatorConfig

    def __init__(self, cfg: DiscriminatorConfig, init_seed: int = 0, dtype=np.float32):
        super().__init__(cfg)
        rng = np.random.default_rng(init_seed)
        c0 = cfg.base_channels
        qch = _quantum_partition(c0, cfg.quantum_fraction)
        t, s = cfg.patch_height, cfg.patch_width
        if t % 2 or s % 2:
            raise ValueError(f"patch dims must be even, got {t}x{s}")
        self.stem = Conv2d(1, c0, 3, rng, stride=2, padding=1, dtype=dtype)
        self.stem_act = PReLU(c0, dtype=dtype)
        blocks = []
        h, w = t // 2, s // 2
        for l in range(cfg.blocks):
            last = l == cfg.blocks - 1
            blocks.append(
                HybridResidualBlock(
                    c0, qch, _layer_qcfg(cfg, cfg.circuit_seed + 1000 + l), rng,
                    quantum=cfg.quantum, fuse=not last, dtype=dtype,
                )
            )
            if not last:
                if h % 2 or w % 2:
                    raise ValueError(
                        f"patch {t}x{s} cannot be pooled {cfg.blocks - 1} times after the stem"
                    )
                h, w = h // 2, w // 2
        if cfg.quantum and w < cfg.n_qubits:
            raise ValueError(f"final trace axis {w} too short for the quantum window")
        self.blocks = ModuleList(blocks)
        self.feature_dim = blocks[-1].out_channels * h * w
        self.head = Linear(self.feature_dim, 1, rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != 1:
            raise ag.ShapeError(f"discriminator expects [B, 1, T, S], got {x.shape}")
        if x.shape[2] != self.cfg.patch_height or x.shape[3] != self.cfg.patch_width:
            raise ag.ShapeError(
                f"discriminator configured for {self.cfg.patch_height}x{self.cfg.patch_width} "
                f"patches, got {x.shape[2]}x{x.shape[3]}"
            )
        h = self.stem_act(self.stem(x))
        pairs = []
        for l, block in enumerate(self.blocks):
            h = block(h)
            if block.pair is not None:
                pairs.append(block.pair)
            if l < len(self.blocks) - 1:
                h = ag.avgpool2d(h, 2)
        self._pairs = pairs
        return ag.sigmoid(self.head(ag.flatten(h)))


class DoubleConv(Module):
    def __init__(self, cin, cout, rng, dtype=np.float32):
        super().__init__()
        self.unit1 = ConvUnit(cin, cout, rng, dtype=dtype)
        self.unit2 = ConvUnit(cout, cout, rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return self.unit2(self.unit1(x))


class UNet(_Network):
    """3-level encoder/decoder with skip connections and a quantum bottleneck.

    The bottleneck feature map is split; the quantum partition goes through
    the quantum layer and is concatenated back, mirroring the dual-path
    blocks of the GAN. The quantum-off flag yields the classical UNet.
    """

    family = "unet"
    config_type = UNetConfig
    unread = ("patch_height", "patch_width")
    retired = {"levels": 3}

    def __init__(self, cfg: UNetConfig, init_seed: int = 0, dtype=np.float32):
        super().__init__(cfg)
        rng = np.random.default_rng(init_seed)
        c0 = cfg.base_channels
        cb = 8 * c0
        self.enc1 = DoubleConv(1, c0, rng, dtype=dtype)
        self.enc2 = DoubleConv(c0, 2 * c0, rng, dtype=dtype)
        self.enc3 = DoubleConv(2 * c0, 4 * c0, rng, dtype=dtype)
        self.bottleneck = DoubleConv(4 * c0, cb, rng, dtype=dtype)
        if cfg.quantum:
            self.q_channels = _quantum_partition(cb, cfg.quantum_fraction)
            self.qconv = QuantumConv(_layer_qcfg(cfg, cfg.circuit_seed + 2000))
            fuse_in = cb - self.q_channels + cfg.n_circuits
        else:
            self.q_channels = 0
            fuse_in = cb
        self.fuse = Conv2d(fuse_in, cb, 1, rng, dtype=dtype)
        self.up3 = Conv2d(cb, 4 * c0, 3, rng, padding=1, dtype=dtype)
        self.dec3 = DoubleConv(8 * c0, 4 * c0, rng, dtype=dtype)
        self.up2 = Conv2d(4 * c0, 2 * c0, 3, rng, padding=1, dtype=dtype)
        self.dec2 = DoubleConv(4 * c0, 2 * c0, rng, dtype=dtype)
        self.up1 = Conv2d(2 * c0, c0, 3, rng, padding=1, dtype=dtype)
        self.dec1 = DoubleConv(2 * c0, c0, rng, dtype=dtype)
        self.out_conv = Conv2d(c0, 1, 3, rng, padding=1, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != 1:
            raise ag.ShapeError(f"unet expects [B, 1, T, S], got {x.shape}")
        _, _, t, s = x.shape
        if t % 8 or s % 8:
            raise ag.ShapeError(f"unet needs patch dims divisible by 8, got {t}x{s}")
        if self.cfg.quantum and s // 8 < self.cfg.n_qubits:
            raise ag.ShapeError(f"trace axis {s} too short for the quantum window at the bottleneck")
        e1 = self.enc1(x)
        e2 = self.enc2(ag.maxpool2d(e1, 2))
        e3 = self.enc3(ag.maxpool2d(e2, 2))
        b = self.bottleneck(ag.maxpool2d(e3, 2))
        pairs = []
        if self.cfg.quantum:
            bc, bq = ag.split_channels(b, b.shape[1] - self.q_channels)
            q = self.qconv(bq)
            pairs.append((bc, q))
            b = ag.concat_channels(bc, q)
        b = self.fuse(b)
        d3 = self.dec3(ag.concat_channels(self.up3(ag.nearest_upsample(b, (2, 2))), e3))
        d2 = self.dec2(ag.concat_channels(self.up2(ag.nearest_upsample(d3, (2, 2))), e2))
        d1 = self.dec1(ag.concat_channels(self.up1(ag.nearest_upsample(d2, (2, 2))), e1))
        self._pairs = pairs
        return self.out_conv(d1)


def count_trainable_parameters(model: Module) -> int:
    return sum(p.tensor.size for p in model.trainable_parameters())


_FAMILIES = {cls.family: cls for cls in (Generator, Discriminator, UNet)}


def _resolve(arch: dict):
    """(family class, config fields) of an arch dict, with its retired fields checked and dropped."""
    family = arch.get("family")
    if family not in _FAMILIES:
        raise ValueError(f"unknown model family {family!r}")
    cls = _FAMILIES[family]
    config = dict(arch["config"])
    for key, value in cls.retired.items():
        if config.pop(key, value) != value:
            raise ValueError(f"{family} {key} can only be {value}, got {arch['config'][key]!r}")
    return cls, config


def arch_signature(arch: dict) -> dict:
    """What a checkpoint's arch dict must match: the family and the config fields it reads."""
    cls, config = _resolve(arch)
    return {"family": cls.family, "config": {k: v for k, v in config.items() if k not in cls.unread}}


def build_model(arch: dict, init_seed: int = 0):
    """Instantiate a model from its architecture dict (see arch_config)."""
    cls, config = _resolve(arch)
    return cls(cls.config_type(**config), init_seed=init_seed)
