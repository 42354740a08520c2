"""Feature extraction backbones and low-rank adapter machinery.

Two interchangeable backbones feed the alignment trainer:

* ``StoreBackbone``: a frozen lookup over precomputed embeddings, made
  trainable by a LoRA-adapted identity projection applied per token. The
  projection is applied in low-rank form, x + (alpha/r) * B @ (A @ x), so
  the d x d weight is never formed. At zero adapter initialization it
  reproduces the stored features exactly.
* ``ToyEncoderBackbone``: a tiny patch transformer whose q/v projections
  carry LoRA adapters, so end-to-end gradients through attention are
  exercised. Record patch grids are treated as the raw encoder input.

Every backbone exposes a plain-numpy featurization of one id (used by
evaluations and finite-difference oracles) and a graph featurization of a
list of ids as one (n, k*d) tensor over autodiff leaves (used by training,
once per step). The store backbone's two paths share `_lora_apply` and its
stored rows: CLS read as is, and patch grids pooled once per backbone, on
first use, into an (n, d) float64 mean that does not depend on the adapters.
A backbone therefore treats its store's arrays as read-only. The toy
encoder's numpy path is its graph path run on constant leaves.

LoRA rank, alpha and input dropout belong to each backbone's adapters
(`LoraAdapter`), set when the backbone is built; training reads them there.

Adapter checkpoint file: magic ``PALA``, u32 version=1, u64 count, then per
matrix u32 name_len, name bytes, u32 rows, u32 cols, rows*cols float32 LE.
"""

from __future__ import annotations

import enum
import io
import struct
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, concat, gelu, layer_norm, softmax
from .data import BoundedReader, EmbeddingStore
from .errors import DataError, FormatError

ADAPTER_MAGIC = b"PALA"
ADAPTER_VERSION = 1

LORA_A_INIT_STD = 0.02


class FeatureMode(enum.Enum):
    CLS_ONLY = "cls"
    CLS_PLUS_POOLED_PATCH = "patch"


@dataclass
class LoraAdapter:
    """Low-rank update (alpha / rank) * B @ A added to a frozen projection."""

    a: np.ndarray  # (rank, d_in)
    b: np.ndarray  # (d_out, rank)
    rank: int
    alpha: float
    dropout_p: float = 0.0

    def __post_init__(self):
        if self.rank < 1:
            raise DataError(f"rank must be >= 1, got {self.rank}")
        if not self.alpha > 0:
            raise DataError(f"alpha must be > 0, got {self.alpha}")
        if not np.isfinite(self.alpha):
            raise DataError(f"alpha must be finite, got {self.alpha}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise DataError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.a.shape[0] != self.rank or self.b.shape[1] != self.rank:
            raise DataError(
                f"adapter shapes {self.a.shape}/{self.b.shape} inconsistent with rank {self.rank}"
            )

    @classmethod
    def create(cls, d_in: int, d_out: int, rank: int, alpha: float, rng, dropout_p: float = 0.0):
        """B starts at zero so the adapted weight equals the frozen base."""
        if rank < 1:
            raise DataError(f"rank must be >= 1, got {rank}")
        return cls(
            a=rng.normal(scale=LORA_A_INIT_STD, size=(rank, d_in)),
            b=np.zeros((d_out, rank)),
            rank=rank,
            alpha=alpha,
            dropout_p=dropout_p,
        )

    @property
    def scale(self) -> float:
        return self.alpha / self.rank

    def delta(self) -> np.ndarray:
        return self.scale * (self.b @ self.a)


def lora_effective_weight(base: np.ndarray, adapter: LoraAdapter) -> np.ndarray:
    """base + (alpha / rank) * B @ A, leaving base untouched."""
    d_out, d_in = base.shape
    if adapter.a.shape != (adapter.rank, d_in) or adapter.b.shape != (d_out, adapter.rank):
        raise DataError(
            f"adapter shapes A{adapter.a.shape} B{adapter.b.shape} do not match base {base.shape}"
        )
    return base + adapter.delta()


# ---------------------------------------------------------------------------
# adapter checkpoint I/O
# ---------------------------------------------------------------------------


def save_adapters(named: dict[str, np.ndarray], path) -> int:
    buf = io.BytesIO()
    buf.write(ADAPTER_MAGIC)
    buf.write(struct.pack("<IQ", ADAPTER_VERSION, len(named)))
    for name, mat in named.items():
        if mat.ndim != 2:
            raise DataError(f"adapter matrix {name!r} must be 2-D, got shape {mat.shape}")
        nb = name.encode("utf-8")
        buf.write(struct.pack("<I", len(nb)))
        buf.write(nb)
        buf.write(struct.pack("<II", mat.shape[0], mat.shape[1]))
        buf.write(mat.astype("<f4").tobytes())
    payload = buf.getvalue()
    with open(path, "wb") as f:
        f.write(payload)
    return len(payload)


def load_adapters(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        reader = BoundedReader(f, "adapter", ADAPTER_MAGIC, ADAPTER_VERSION)
        (count,) = reader.unpack("<Q", "header")
        named: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = reader.unpack("<I", "name length")
            name = reader.text(name_len, "name")
            rows, cols = reader.unpack("<II", f"shape of {name!r}")
            data = np.frombuffer(reader.read(4 * rows * cols, f"data of {name!r}"), dtype="<f4")
            if not np.all(np.isfinite(data)):
                raise DataError(f"non-finite values in adapter matrix {name!r}")
            named[name] = data.astype(np.float64).reshape(rows, cols)
        if reader.left:
            raise FormatError("trailing bytes after final matrix")
    return named


def _dropped(x, p: float, rng, shape):
    """x times a LoRA input-dropout mask of `shape`; x itself, with nothing drawn
    from rng, when p is 0 or rng is None."""
    if p <= 0.0 or rng is None:
        return x
    return x * ((rng.random(shape) >= p) / (1.0 - p))


def _lora_apply(rows, a, b, scale: float, a_input=None):
    """Each row x of `rows` mapped to x + scale * B @ (A @ x'), without forming
    the d x d weight. x' is the matching row of `a_input` (x after LoRA input
    dropout), x itself by default. Accepts numpy arrays or autodiff tensors."""
    x = rows if a_input is None else a_input
    return rows + scale * ((x @ a.T) @ b.T)


class _Trainable:
    """Snapshot and restore of a backbone's `trainable` adapter matrices."""

    trainable: dict[str, np.ndarray]

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.trainable.items()}

    def load_trainable(self, named: dict[str, np.ndarray]) -> None:
        for key, value in self.trainable.items():
            if key not in named:
                raise DataError(f"missing adapter matrix {key!r}")
            if named[key].shape != value.shape:
                raise DataError(
                    f"adapter matrix {key!r}: shape {named[key].shape} != {value.shape}"
                )
            value[...] = named[key]


# ---------------------------------------------------------------------------
# store-backed backbone: frozen lookup + LoRA-on-identity projection
# ---------------------------------------------------------------------------


class StoreBackbone(_Trainable):
    """Precomputed embeddings with a trainable low-rank projection on top.

    The projection W = I + (alpha/rank) * B @ A is shared across the CLS
    vector and every patch token, mirroring how adapter-tuning a real
    encoder moves all tokens through the same adapted weights. W is applied
    in low-rank form by `_lora_apply` and never formed.

    The store's arrays are read, never written, and the patch pool is taken
    from them once: change a store only before building its backbone.
    """

    def __init__(
        self,
        store: EmbeddingStore,
        rank: int = 16,
        alpha: float = 0.5,
        dropout_p: float = 0.0,
        seed: int = 0,
    ):
        self.store = store
        self._pool: np.ndarray | None = None
        rng = np.random.default_rng(seed)
        self.adapter = LoraAdapter.create(
            d_in=store.dim, d_out=store.dim, rank=rank, alpha=alpha, rng=rng, dropout_p=dropout_p
        )

    @property
    def trainable(self) -> dict[str, np.ndarray]:
        return {"proj.a": self.adapter.a, "proj.b": self.adapter.b}

    def _pooled(self) -> np.ndarray:
        """(n, d) float64 patch-grid means of every record, computed on first use."""
        if self._pool is None:
            if self.store.patch is None:
                raise DataError("feature mode needs patch tokens but the record has none")
            self._pool = self.store.patch.mean(axis=(1, 2), dtype=np.float64)
        return self._pool

    def _rows(self, ids: list[str], mode: FeatureMode) -> np.ndarray:
        """(len(ids), k, d) float64 rows: CLS, and in patch mode the pooled patch."""
        rows = [self.store.row(id) for id in ids]
        cls = self.store.cls[rows].astype(np.float64)
        if mode is FeatureMode.CLS_ONLY:
            return cls[:, None]
        return np.stack([cls, self._pooled()[rows]], axis=1)

    def adapt(self, x: np.ndarray) -> np.ndarray:
        """The adapted projection applied along x's last axis; the exact
        identity while B is zero."""
        return _lora_apply(x, self.adapter.a, self.adapter.b, self.adapter.scale)

    def feature_np(self, id: str, mode: FeatureMode) -> np.ndarray:
        """The (k * d) features of one id: `feature_graph` of [id] on constant
        adapters, from its (k, d) rows read directly."""
        i = self.store.row(id)
        x = self.store.cls[i : i + 1].astype(np.float64)
        if mode is FeatureMode.CLS_PLUS_POOLED_PATCH:
            x = np.concatenate((x, self._pooled()[i : i + 1]))
        return self.adapt(x).reshape(-1)

    def feature_graph(
        self, ids: list[str], mode: FeatureMode, leaves: dict[str, Tensor], dropout_rng=None
    ) -> Tensor:
        """(len(ids), k * d) features as one graph over the adapter leaves."""
        rows = self._rows(ids, mode)
        # one dropout mask per id, shared by its CLS and pooled rows
        masked = _dropped(rows, self.adapter.dropout_p, dropout_rng, (len(ids), 1, rows.shape[2]))
        out = _lora_apply(Tensor(rows), leaves["proj.a"], leaves["proj.b"], self.adapter.scale,
                          Tensor(masked))
        return out.reshape(len(ids), -1)


# ---------------------------------------------------------------------------
# toy patch-transformer backbone
# ---------------------------------------------------------------------------


@dataclass
class ToyEncoderConfig:
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_in: int = 16  # channels of each input patch cell
    s: int = 4  # input grid side; token count is s*s + 1
    mlp_ratio: int = 2
    lora_rank: int = 16
    lora_alpha: float = 0.5

    def __post_init__(self):
        if self.d_model % self.n_heads:
            raise DataError("d_model must be divisible by n_heads")


@dataclass
class LayerWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


@dataclass
class ToyEncoderParams:
    """Frozen base weights plus the trainable adapters (q/v of each layer)."""

    config: ToyEncoderConfig
    patch_embed: np.ndarray  # (d_in, d_model)
    pos_embed: np.ndarray  # (s*s, d_model)
    cls_seed: np.ndarray  # (d_model,)
    layers: list[LayerWeights] = field(default_factory=list)
    adapters: dict[str, LoraAdapter] = field(default_factory=dict)

    @classmethod
    def random(cls, config: ToyEncoderConfig, seed: int = 0) -> "ToyEncoderParams":
        rng = np.random.default_rng(seed)
        d = config.d_model
        hidden = config.mlp_ratio * d
        layers = []
        adapters = {}
        for i in range(config.n_layers):
            layers.append(
                LayerWeights(
                    wq=rng.normal(scale=d**-0.5, size=(d, d)),
                    wk=rng.normal(scale=d**-0.5, size=(d, d)),
                    wv=rng.normal(scale=d**-0.5, size=(d, d)),
                    wo=rng.normal(scale=d**-0.5, size=(d, d)),
                    w1=rng.normal(scale=d**-0.5, size=(hidden, d)),
                    w2=rng.normal(scale=hidden**-0.5, size=(d, hidden)),
                )
            )
            for proj in ("q", "v"):
                adapters[f"layer{i}.{proj}"] = LoraAdapter.create(
                    d_in=d, d_out=d, rank=config.lora_rank, alpha=config.lora_alpha, rng=rng
                )
        return cls(
            config=config,
            patch_embed=rng.normal(scale=config.d_in**-0.5, size=(config.d_in, d)),
            pos_embed=rng.normal(scale=0.02, size=(config.s * config.s, d)),
            cls_seed=rng.normal(scale=0.02, size=d),
            layers=layers,
            adapters=adapters,
        )


class ToyEncoder:
    """Small pre-norm ViT over a batch of (s, s, d_in) input grids."""

    def __init__(self, params: ToyEncoderParams):
        self.params = params

    def forward_graph(self, xs: np.ndarray, leaves: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
        """Forward over a batch (b, s, s, d_in) with adapter matrices taken
        from `leaves`. Returns (cls (b, d), patch (b, s, s, d))."""
        p = self.params
        cfg = p.config
        b = xs.shape[0]
        if xs.shape[1:] != (cfg.s, cfg.s, cfg.d_in):
            raise DataError(f"input shape {xs.shape[1:]} != {(cfg.s, cfg.s, cfg.d_in)}")
        d, heads = cfg.d_model, cfg.n_heads
        dk = d // heads
        tokens = Tensor(xs.reshape(b, cfg.s * cfg.s, cfg.d_in)) @ Tensor(p.patch_embed)
        tokens = tokens + Tensor(p.pos_embed)
        tokens = concat([Tensor(np.broadcast_to(p.cls_seed, (b, 1, d))), tokens], axis=1)
        n = tokens.shape[1]
        for i, layer in enumerate(p.layers):
            h = layer_norm(tokens)
            wq = self._adapted_graph(layer.wq, f"layer{i}.q", leaves)
            wv = self._adapted_graph(layer.wv, f"layer{i}.v", leaves)
            q = (h @ wq.T).reshape(b, n, heads, dk).transpose((0, 2, 1, 3))
            k = (h @ Tensor(layer.wk.T)).reshape(b, n, heads, dk).transpose((0, 2, 1, 3))
            v = (h @ wv.T).reshape(b, n, heads, dk).transpose((0, 2, 1, 3))
            attn = softmax((q @ k.transpose((0, 1, 3, 2))) * dk**-0.5, axis=-1)
            mixed = (attn @ v).transpose((0, 2, 1, 3)).reshape(b, n, d)
            tokens = tokens + mixed @ Tensor(layer.wo.T)
            h2 = layer_norm(tokens)
            tokens = tokens + gelu(h2 @ Tensor(layer.w1.T)) @ Tensor(layer.w2.T)
        tokens = layer_norm(tokens)
        return tokens[:, 0], tokens[:, 1:].reshape(b, cfg.s, cfg.s, d)

    def _adapted_graph(self, base: np.ndarray, name: str, leaves: dict[str, Tensor]) -> Tensor:
        scale = self.params.adapters[name].scale
        return Tensor(base) + scale * (leaves[f"{name}.b"] @ leaves[f"{name}.a"])


class ToyEncoderBackbone(_Trainable):
    """Trainer-facing wrapper: store records are raw encoder inputs."""

    def __init__(self, store: EmbeddingStore, params: ToyEncoderParams):
        if store.patch_side != params.config.s or store.dim != params.config.d_in:
            raise DataError(
                f"store layout (d={store.dim}, s={store.patch_side}) does not match encoder "
                f"input (d_in={params.config.d_in}, s={params.config.s})"
            )
        self.store = store
        self.encoder = ToyEncoder(params)

    @property
    def params(self) -> ToyEncoderParams:
        return self.encoder.params

    @property
    def trainable(self) -> dict[str, np.ndarray]:
        out = {}
        for name, adapter in self.params.adapters.items():
            out[f"{name}.a"] = adapter.a
            out[f"{name}.b"] = adapter.b
        return out

    def _inputs(self, ids: list[str]) -> np.ndarray:
        rows = [self.store.row(id) for id in ids]
        if self.store.patch is None:
            raise DataError(f"record {ids[0]!r} has no patch grid to encode")
        return self.store.patch[rows].astype(np.float64)

    def feature_np(self, id: str, mode: FeatureMode) -> np.ndarray:
        """feature_graph of one id over the current adapters as constants."""
        leaves = {name: Tensor(arr) for name, arr in self.trainable.items()}
        return self.feature_graph([id], mode, leaves).data[0]

    def feature_graph(
        self, ids: list[str], mode: FeatureMode, leaves: dict[str, Tensor], dropout_rng=None
    ) -> Tensor:
        """(len(ids), k * d) features from one forward pass. The toy adapters
        carry no dropout, so `dropout_rng` is taken and ignored."""
        cls, patch = self.encoder.forward_graph(self._inputs(ids), leaves)
        if mode is FeatureMode.CLS_ONLY:
            return cls
        return concat([cls, patch.mean(axis=(1, 2))], axis=1)
