"""Embedding stores, triplet manifests, and synthetic dataset generation.

On-disk formats
---------------
Embedding store (binary, little-endian): magic ``PALN``, u32 version=1,
u32 d, u32 s, u64 count; then per record u32 id_len, UTF-8 id bytes,
d float32 cls values, and s*s*d float32 patch values when s > 0.

In memory an ``EmbeddingStore`` holds the same records as columns: the ids
in file order, an id -> row map, one (n, d) float32 CLS matrix and, when
s > 0, one (n, s, s, d) float32 patch array. ``load_store(path, ids)`` walks
every record's id length and id with the file's own reads, one bounds check
per record, so a truncated or lying file, an id that is not UTF-8, and an
empty or repeated id fail wherever they sit. Only the records whose id is in
`ids` (all of them when `ids` is None) have their floats read, straight from
the file into preallocated rows; the others' floats are skipped with a
relative seek. Finiteness is checked on the rows read.

Triplet manifest: CSV with header ``ref,x0,x1,y``, UTF-8, LF endings.
Label file: CSV with header ``id,label``. Both quote a field only where CSV
needs it, so any text id round-trips.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import os
import struct
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, FormatError

log = logging.getLogger(__name__)

STORE_MAGIC = b"PALN"
STORE_VERSION = 1

# ---------------------------------------------------------------------------
# core containers
# ---------------------------------------------------------------------------


class EmbeddingStore:
    """Embeddings of n images as columns: `ids` in file order, an id -> row
    map, an (n, d) float32 `cls` matrix and, when the store has patch grids,
    an (n, s, s, d) float32 `patch` array (None when s = 0).

    Built once from arrays and checked as a whole: ids non-empty and
    distinct, shapes consistent, values finite. Payloads stay float32 (the
    on-disk precision); numerical code upcasts to float64 at the point of use.
    """

    def __init__(self, ids, cls: np.ndarray, patch: np.ndarray | None = None):
        self.ids = list(ids)
        self.cls = np.ascontiguousarray(cls, dtype=np.float32)
        self.patch = None if patch is None else np.ascontiguousarray(patch, dtype=np.float32)
        self._row = {id: i for i, id in enumerate(self.ids)}
        n = len(self.ids)
        if self.cls.ndim != 2 or len(self.cls) != n:
            raise DataError(f"cls shape {self.cls.shape} != ({n}, d)")
        self.dim = self.cls.shape[1]
        if self.dim < 1:
            raise DataError(f"dim must be >= 1, got {self.dim}")
        self.patch_side = 0 if self.patch is None else self.patch.shape[1]
        expected = (n, self.patch_side, self.patch_side, self.dim)
        if self.patch is not None and (self.patch_side < 1 or self.patch.shape != expected):
            raise DataError(f"patch shape {self.patch.shape} != {expected}")
        if "" in self._row:
            raise DataError("record id must be a non-empty string")
        if len(self._row) != n:
            dup = next(id for i, id in enumerate(self.ids) if self._row[id] != i)
            raise DataError(f"duplicate record id {dup!r}")
        for name, values in (("cls", self.cls), ("patch", self.patch)):
            # min and max carry any NaN or inf, without an n-sized temporary
            if values is not None and n and not np.isfinite([values.min(), values.max()]).all():
                bad = np.flatnonzero(~np.isfinite(values.reshape(n, -1)).all(axis=1))[0]
                raise DataError(f"record {self.ids[bad]!r}: non-finite {name} values")

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, id: str) -> bool:
        return id in self._row

    def row(self, id: str) -> int:
        try:
            return self._row[id]
        except KeyError:
            raise DataError(f"unknown record id {id!r}") from None


@dataclass(frozen=True)
class TripletEntry:
    ref: str
    x0: str
    x1: str
    y: int

    def __post_init__(self):
        if self.y not in (0, 1):
            raise DataError(f"y must be 0 or 1, got {self.y!r}")
        if len({self.ref, self.x0, self.x1}) != 3:
            raise DataError(f"triplet ids must be distinct: {(self.ref, self.x0, self.x1)}")


@dataclass
class TripletManifest:
    """Similarity judgments: y names which of (x0, x1) is closer to ref."""

    entries: list[TripletEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def duplicate_row_count(self) -> int:
        """Number of rows whose (ref, x0, x1) key repeats an earlier row.

        Repeats are legal (a triplet may carry several unanimous judgments)
        and are never deduplicated, only reported.
        """
        seen: set[tuple[str, str, str]] = set()
        dupes = 0
        for e in self.entries:
            key = (e.ref, e.x0, e.x1)
            if key in seen:
                dupes += 1
            seen.add(key)
        return dupes


# ---------------------------------------------------------------------------
# binary store I/O
# ---------------------------------------------------------------------------


_U32 = struct.Struct("<I")
_STORE_WRITE_BYTES = 1 << 20  # float bytes of the records joined into one write


def save_store(store: EmbeddingStore, path) -> int:
    """Write the store; returns the number of bytes written.

    Records go out in chunks of about _STORE_WRITE_BYTES of floats (at least
    one record), each chunk joined into one write from byte views of the
    columns."""
    n, cls_len = len(store), 4 * store.dim
    patch_len = 4 * store.dim * store.patch_side**2
    chunk = max(1, _STORE_WRITE_BYTES // (cls_len + patch_len))
    # flat little-endian byte views; memoryview(...).cast("B") would refuse a
    # zero-record array
    cls = memoryview(store.cls.astype("<f4", copy=False).view(np.uint8).reshape(-1))
    patch = None
    if store.patch is not None:
        patch = memoryview(store.patch.astype("<f4", copy=False).view(np.uint8).reshape(-1))
    with open(path, "wb") as f:
        header = struct.pack("<IIIQ", STORE_VERSION, store.dim, store.patch_side, n)
        written = f.write(STORE_MAGIC + header)
        for start in range(0, n, chunk):
            parts = []
            for i in range(start, min(start + chunk, n)):
                id_bytes = store.ids[i].encode("utf-8")
                parts += (_U32.pack(len(id_bytes)), id_bytes, cls[i * cls_len : (i + 1) * cls_len])
                if patch is not None:
                    parts.append(patch[i * patch_len : (i + 1) * patch_len])
            written += f.write(b"".join(parts))
    return written


class BoundedReader:
    """Reads a binary file that opens with a magic and a u32 version.

    Each size a header declares is checked against the bytes left before it
    is read, so a lying header fails as FormatError; text must be UTF-8.
    """

    def __init__(self, f, kind: str, magic: bytes, version: int):
        got = f.read(len(magic))
        if got != magic:
            raise FormatError(f"bad magic {got!r}, expected {magic!r}")
        self.f, self.kind = f, kind
        self.left = os.fstat(f.fileno()).st_size - f.tell()
        (found,) = self.unpack("<I", "version")
        if found != version:
            raise FormatError(f"unsupported {kind} version {found}")

    def _reserve(self, n: int, what: str) -> None:
        if n > self.left:
            raise FormatError(
                f"truncated {self.kind} file while reading {what} ({n} > {self.left} bytes left)"
            )
        self.left -= n

    def read(self, n: int, what: str) -> bytes:
        self._reserve(n, what)
        return self.f.read(n)

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), what))

    def text(self, n: int, what: str) -> str:
        try:
            return self.read(n, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.kind} file: {what} is not UTF-8 ({exc})") from None


_STORE_READ_BUFFER = 1 << 16  # bytes; the small per-record reads come from memory


def load_store(path, ids=None) -> EmbeddingStore:
    """Read a store, or only the records whose id is in `ids`, into
    preallocated columns, one record's floats at a time.

    `BoundedReader` checks the magic, the version and the header. The header's
    record count is checked against the bytes left before anything is
    allocated, so a lying count fails as FormatError. The walk then reads every
    record's id length and id: each record is checked against the bytes left
    once, after its id length is read, every id must be UTF-8, and an empty or
    repeated id anywhere in the file fails with the error a whole-file load
    gives. A kept record's floats are read straight into their rows of the
    columns; any other record's floats are skipped with a relative seek. So the
    file is never held in memory a second time, and the finiteness check, made
    by `EmbeddingStore`, covers only the rows read.

    With `ids` None every record is kept. Otherwise the kept records are those
    whose id is in `ids`, in file order; an id of `ids` the file lacks is no
    error here (`store.row` raises for it).
    """
    wanted = None if ids is None else set(ids)
    keep_all = wanted is None
    with open(path, "rb", buffering=_STORE_READ_BUFFER) as f:
        reader = BoundedReader(f, "store", STORE_MAGIC, STORE_VERSION)
        dim, side, count = reader.unpack("<IIQ", "header")
        smallest = 4 + 4 * dim * (1 + side * side)  # a record with an empty id
        left = reader.left
        if count * smallest > left or smallest > sys.maxsize:
            raise FormatError(
                f"truncated store file: header declares {count} records of at least"
                f" {smallest} bytes, but {left} bytes follow"
            )
        rows = count if keep_all else min(count, len(wanted))
        kept = []
        cls = np.empty((rows, dim), dtype="<f4")
        patch = np.empty((rows, side, side, dim), dtype="<f4") if side else None
        # flat byte views of the columns; memoryview(...).cast("B") would
        # refuse a zero-record array
        cls_bytes = memoryview(cls.view(np.uint8).reshape(-1))
        patch_bytes = None if patch is None else memoryview(patch.view(np.uint8).reshape(-1))
        cls_len, patch_len = 4 * dim, 4 * dim * side * side
        # kept ids are checked by EmbeddingStore; the ids of the records not
        # read, which no kept id can equal, are checked through this set
        skipped: set[str] = set()
        repeated = False
        k = 0  # records kept so far
        read, readinto, seek, unpack = f.read, f.readinto, f.seek, _U32.unpack
        for i in range(count):
            if left < 4:
                raise FormatError(
                    f"truncated store file while reading id length (4 > {left} bytes left)"
                )
            (id_len,) = unpack(read(4))
            need = smallest + id_len
            if need > left:
                raise FormatError(
                    f"truncated store file while reading record {i}"
                    f" ({need} > {left} bytes left)"
                )
            left -= need
            try:
                id = read(id_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"store file: id is not UTF-8 ({exc})") from None
            if keep_all or id in wanted:
                if k < rows:
                    kept.append(id)
                    readinto(cls_bytes[k * cls_len : (k + 1) * cls_len])
                    if patch_bytes is not None:
                        readinto(patch_bytes[k * patch_len : (k + 1) * patch_len])
                    k += 1
                    continue
                repeated = True  # more records match than there are rows
            skipped.add(id)
            seek(cls_len + patch_len, 1)
        if left:
            raise FormatError("trailing bytes after final record")
    if repeated or "" in skipped or k + len(skipped) != count:
        # an id repeats, or one not read is empty: the store fails as a
        # whole-file load does, whose checks name the record
        return load_store(path)
    return EmbeddingStore(kept, cls[:k], None if patch is None else patch[:k])


# ---------------------------------------------------------------------------
# manifest / label CSV I/O
# ---------------------------------------------------------------------------

_MANIFEST_HEADER = ["ref", "x0", "x1", "y"]
_LABEL_HEADER = ["id", "label"]


def read_text(path) -> str:
    """The whole file as UTF-8 text, line endings untranslated; FormatError
    naming the file if it is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from None


def _csv_rows(path, kind: str, header: list[str]):
    """(line number, row) of each non-blank row of a CSV table after `header`,
    numbered by the file line the row starts on (a quoted field can span
    lines); FormatError for an empty file, another header or a row of another
    width."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        found = next(reader)
    except StopIteration:
        raise FormatError(f"empty {kind} file") from None
    if found != header:
        raise FormatError(f"{kind} header {found} != {header}")
    end = reader.line_num
    for row in reader:
        lineno, end = end + 1, reader.line_num
        if not row:
            continue
        if len(row) != len(header):
            raise FormatError(f"line {lineno}: expected {len(header)} columns, got {len(row)}")
        yield lineno, row


def load_manifest(path) -> TripletManifest:
    entries = []
    for lineno, (ref, x0, x1, y_raw) in _csv_rows(path, "manifest", _MANIFEST_HEADER):
        if y_raw not in ("0", "1"):
            raise FormatError(f"line {lineno}: y must be 0 or 1, got {y_raw!r}")
        entries.append(TripletEntry(ref=ref, x0=x0, x1=x1, y=int(y_raw)))
    manifest = TripletManifest(entries=entries)
    dupes = manifest.duplicate_row_count()
    if dupes:
        log.warning("manifest %s: %d repeated (ref,x0,x1) rows kept as-is", path, dupes)
    return manifest


def _write_csv(path, rows) -> None:
    """UTF-8 CSV lines ending in LF. A field is quoted when it holds a comma, a
    quote or a line break; csv quotes a bare CR only when the line terminator
    holds one, so each row is formatted for CRLF and ended with LF."""
    line = io.StringIO()
    writer = csv.writer(line, lineterminator="\r\n")
    with open(path, "w", encoding="utf-8", newline="") as f:
        for row in rows:
            writer.writerow(row)
            f.write(line.getvalue()[:-2] + "\n")
            line.seek(0)
            line.truncate()


def save_manifest(manifest: TripletManifest, path) -> None:
    _write_csv(path, [_MANIFEST_HEADER, *((e.ref, e.x0, e.x1, e.y) for e in manifest)])


def load_labels(path) -> dict[str, str]:
    labels: dict[str, str] = {}
    for lineno, (id, label) in _csv_rows(path, "label", _LABEL_HEADER):
        if id in labels:
            raise FormatError(f"line {lineno}: duplicate id {id!r}")
        labels[id] = label
    return labels


def save_labels(labels: dict[str, str], path) -> None:
    _write_csv(path, [_LABEL_HEADER, *labels.items()])


# ---------------------------------------------------------------------------
# manifest construction
# ---------------------------------------------------------------------------


def make_class_triplets(labels: dict[str, str], n: int, seed: int) -> TripletManifest:
    """Triplets drawn along class boundaries: ref plus one same-class and one
    other-class image, with y marking the same-class image as more similar.

    The same-class image lands at x0 or x1 uniformly at random. Deterministic
    given (labels, n, seed); ids are sorted first so dict ordering is
    irrelevant.
    """
    ids = sorted(labels)
    by_class: dict[str, list[str]] = {}
    for id in ids:
        by_class.setdefault(labels[id], []).append(id)
    if len(by_class) < 2:
        raise DataError("class triplets need at least 2 distinct classes")
    eligible_refs = [id for id in ids if len(by_class[labels[id]]) >= 2]
    if not eligible_refs:
        raise DataError("class triplets need at least one class with >= 2 members")

    rng = np.random.default_rng(seed)
    entries = []
    for _ in range(n):
        ref = eligible_refs[rng.integers(len(eligible_refs))]
        cls = labels[ref]
        same_pool = [id for id in by_class[cls] if id != ref]
        same = same_pool[rng.integers(len(same_pool))]
        other_pool = [id for id in ids if labels[id] != cls]
        other = other_pool[rng.integers(len(other_pool))]
        pos = int(rng.integers(2))
        if pos == 0:
            entries.append(TripletEntry(ref=ref, x0=same, x1=other, y=0))
        else:
            entries.append(TripletEntry(ref=ref, x0=other, x1=same, y=1))
    return TripletManifest(entries=entries)


def split_manifest(
    manifest: TripletManifest, fractions: tuple[float, float, float], seed: int
) -> tuple[TripletManifest, TripletManifest, TripletManifest]:
    """Disjoint, exhaustive train/val/test partition.

    Sizes follow largest-remainder rounding, ties resolved in
    (train, val, test) order; assignment is a seeded permutation.
    """
    if len(fractions) != 3:
        raise DataError("fractions must be a (train, val, test) triple")
    if any(f <= 0 for f in fractions):
        raise DataError(f"fractions must be positive, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise DataError(f"fractions must sum to 1, got sum={sum(fractions)!r}")

    n = len(manifest)
    exact = [f * n for f in fractions]
    sizes = [int(np.floor(e)) for e in exact]
    remainders = [e - s for e, s in zip(exact, sizes)]
    shortfall = n - sum(sizes)
    # ties broken toward the earlier split: stable sort on -remainder
    order = sorted(range(3), key=lambda i: (-remainders[i], i))
    for i in range(shortfall):
        sizes[order[i % 3]] += 1

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    picks = [perm[: sizes[0]], perm[sizes[0] : sizes[0] + sizes[1]], perm[sizes[0] + sizes[1] :]]
    return tuple(TripletManifest(entries=[manifest.entries[i] for i in idx]) for idx in picks)


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticFactorSpec:
    """Desk-scale stand-in for a mid-level similarity triplet dataset.

    Each reference gets a latent factor vector; the two variations perturb
    disjoint factor subsets with different magnitudes and the ground truth
    marks the smaller perturbation. Embeddings pass the latents through a
    fixed anisotropic linear map, so raw embedding cosine only partially
    agrees with the ground truth while a low-rank linear correction can
    recover it.

    The realizable minimum of `factor_count` is 3. With 2, each variation
    perturbs a single factor and `generate_world` gives up on nearly every
    world of more than a few triplets; `palign synth` refuses `--factors`
    below 3.
    """

    n_triplets: int
    d: int = 64
    s: int = 0
    factor_count: int = 8
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_triplets < 1:
            raise DataError("n_triplets must be >= 1")
        if self.d < 1:
            raise DataError("d must be >= 1")
        if self.s < 0:
            raise DataError("s must be >= 0")
        if self.factor_count < 1:
            raise DataError("factor_count must be >= 1")
        if not self.noise_sigma >= 0:
            raise DataError("noise_sigma must be >= 0")


# Generator constants. The warp boosts a few factor axes, so cosine
# distances in embedding space over-weigh those axes. A slice of the
# triplets is drawn "contested": the two variations land within a narrow
# relative band of each other in the warped space, so the warp's over-weighing
# decides their frozen ranking (half the time wrongly), while a small
# low-rank correction of the boost settles all of them the latent way.
# Uncontested triplets are ranked correctly by the frozen space outright.
_N_CLASSES = 10
_CLASS_PULL = 1.2  # class center weight relative to unit per-image noise
_CLASS_AXIS_GAIN = 3.0  # class centers spread extra along the warped axes
_PERT_BASE = (0.32, 0.48)  # latent perturbation radius, closer image
_PERT_RATIO = (1.05, 1.45)  # radius ratio of farther over closer image
_WARP_DIMS = 1  # factor axes whose embedding gain is boosted
_WARP_GAIN = 1.5  # largest boost factor
_CONTESTED_FRAC = 0.62  # triplets forced into the warped near-tie band
_TIE_BAND = 0.08  # relative warped-gap width that counts as a near-tie
_MAX_RESAMPLE = 2000


@dataclass
class SyntheticWorld:
    """Everything the generator knows: the public triplet data plus labeled
    held-out instances for retrieval-style evaluations."""

    store: EmbeddingStore
    manifest: TripletManifest
    y_star: np.ndarray
    class_labels: dict[str, str]  # reference id -> class name
    instance_labels: dict[str, str]  # gallery/query id -> instance name
    query_ids: list[str]
    latent_agreement: float  # fraction of triplets ranked correctly in latent space


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a float64 vector: the value np.linalg.norm(v) takes
    (it computes sqrt(v.dot(v)) for 1-D input), without its per-call cost."""
    return math.sqrt(v.dot(v))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / _norm(v)


def _cosdist(u: np.ndarray, norm_u: float, v: np.ndarray) -> float:
    """Cosine distance of u and v, given norm_u = _norm(u)."""
    return 1.0 - float(u.dot(v)) / (norm_u * _norm(v))


def _class_latent(rng, centers: np.ndarray, k: int) -> np.ndarray:
    f = centers.shape[1]
    return _unit(_CLASS_PULL * centers[k] + rng.normal(size=f))


# The samplers below fix the world bit for bit: a seed's world depends on the
# order of their draws and on the float operations that turn draws into kept
# values, so a rewrite must keep both. Each attempt makes all of its draws
# before any check, with a few draws merged into one call where the stream is
# the same: rng.uniform(lo, hi) is lo + (hi - lo) * rng.random(), and normal
# draws of sizes a and b in a row are one draw of size a + b split at a.
# A screen may skip an attempt's exact checks only where they would reject
# it, so it changes neither the draws nor the kept values (see _perturb_pair).


def _uniform(bounds: tuple[float, float], u: float) -> float:
    """The value rng.uniform(*bounds) takes when its rng.random() draw is u."""
    lo, hi = bounds
    return lo + (hi - lo) * u


def _offset(z: np.ndarray, subset: np.ndarray, draws: np.ndarray, radius: float) -> np.ndarray:
    """z + radius * unit(w) for w zero apart from `draws` at `subset`."""
    w = np.zeros(z.size)
    w[subset] = draws
    w /= _norm(w)
    w *= radius
    w += z
    return w


def _in_band(
    e_ref: np.ndarray, norm_e_ref: float, emb_map: np.ndarray, near, far, contested: bool
) -> bool:
    """The band rule on the relative gap of far's and near's warped distances
    from e_ref (norm norm_e_ref): inside the near-tie band for a contested draw,
    at least the band wide (so frozen-correct) for an uncontested one."""
    d_near = _cosdist(e_ref, norm_e_ref, emb_map @ near)
    d_far = _cosdist(e_ref, norm_e_ref, emb_map @ far)
    rel_gap = (d_far - d_near) / (0.5 * (d_far + d_near))
    return abs(rel_gap) < _TIE_BAND if contested else rel_gap >= _TIE_BAND


# A pair attempt is screened before the exact code runs. Each variation is
# z + r * w/|w| with w nonzero only on its drawn coordinates, so both of its
# cosine distances from z follow in closed form from four sums over those
# coordinates: the latent one from sum x^2 and sum z_i x, the warped one also
# from sum (Gz)_i x and sum G_ii x^2, where G = emb_map.T @ emb_map is taken as
# diagonal. The screen can only reject: an attempt it cannot settle, or does
# not reject, goes through the exact code, which alone accepts an attempt and
# builds the kept values. It rejects only by more than _SCREEN_MARGIN, and
# judges the warped gap only when both warped distances exceed _SCREEN_FLOOR;
# _perturb_pair's docstring gives the error bound these margins cover.
_SCREEN_MARGIN = 1e-6  # latent and relative-gap margin of a screen rejection
_SCREEN_FLOOR = 1e-3  # smallest warped distance whose relative gap is screened
_SCREEN_OFF_DIAGONAL = 1e-14  # largest |G_ij|, i != j, the screen runs with


def _screen_terms(z: np.ndarray, emb_map: np.ndarray):
    """Per-call terms of `_screen_rejects` for latent z: z, Gz and diag(G) as
    lists, and z'z, |z|, z'Gz, sqrt(z'Gz) as floats. None when G is not
    diagonal to within _SCREEN_OFF_DIAGONAL or z'z or z'Gz is not positive;
    every attempt then takes the exact path."""
    gram = emb_map.T @ emb_map
    diag = np.diag(gram)
    if np.abs(gram - np.diag(diag)).max() >= _SCREEN_OFF_DIAGONAL:
        return None
    gz = gram @ z
    zz, zgz = float(z.dot(z)), float(z.dot(gz))
    if not (zz > 0 and zgz > 0):
        return None
    return z.tolist(), gz.tolist(), diag.tolist(), zz, math.sqrt(zz), zgz, math.sqrt(zgz)


def _screen_rejects(
    terms, order: np.ndarray, g: np.ndarray, r_near: float, r_far: float, contested: bool
) -> bool:
    """True when a pair attempt surely fails `_perturb_pair`'s checks: the
    attempt's variations put draws g[:h] at order[:h] with radius r_near and
    g[h:] at order[h:] with radius r_far, h = f // 2. False means only that
    the screen cannot tell; the exact code then decides."""
    z, gz, gdiag, zz, norm_z, zgz, norm_ez = terms
    idx, x = order.tolist(), g.tolist()
    h = len(x) // 2
    latent, warped = [], []
    for lo, hi, r in ((0, h, r_near), (h, len(x), r_far)):
        sxx = szx = sgx = sgxx = 0.0
        for k, xi in zip(idx[lo:hi], x[lo:hi]):
            sxx += xi * xi
            szx += z[k] * xi
            sgx += gz[k] * xi
            sgxx += gdiag[k] * xi * xi
        if sxx == 0 or szx == 0 or sgx == 0 or sgxx == 0:
            return False
        t = r / math.sqrt(sxx)  # the scale of x in the variation
        radicand = zz + 2 * t * szx + r * r  # |v|^2
        warped_radicand = zgz + 2 * t * sgx + t * t * sgxx  # |emb_map v|^2
        if not (radicand > 0 and warped_radicand > 0):
            return False
        latent.append(1.0 - (zz + t * szx) / (norm_z * math.sqrt(radicand)))
        warped.append(1.0 - (zgz + t * sgx) / (norm_ez * math.sqrt(warped_radicand)))
    d_near, d_far = latent
    if d_near - d_far > _SCREEN_MARGIN:
        return True
    if not (d_far - d_near > _SCREEN_MARGIN):
        return False
    w_near, w_far = warped
    if not (w_near > _SCREEN_FLOOR and w_far > _SCREEN_FLOOR):
        return False
    rel_gap = (w_far - w_near) / (0.5 * (w_far + w_near))
    if contested:
        return abs(rel_gap) - _TIE_BAND > _SCREEN_MARGIN
    return _TIE_BAND - rel_gap > _SCREEN_MARGIN


def _perturb_pair(
    rng, z: np.ndarray, emb_map: np.ndarray, contested: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Two variations of z on disjoint factor subsets; the first is always
    the closer one under latent cosine distance (enforced by resampling).

    A contested pair additionally lands inside the warped-space near-tie
    band, so the anisotropic embedding map decides its frozen ranking.

    Each attempt makes its draws, then `_screen_rejects` may reject it; any
    attempt it does not reject runs the exact checks (`_offset`, `_cosdist`,
    `_in_band`), which alone accept an attempt and build the kept values, so
    the draws, the stream and the pair are those of the exact code alone. The
    screen runs only when G = emb_map.T @ emb_map has no off-diagonal entry of
    _SCREEN_OFF_DIAGONAL (1e-14) or more; for a QR map they are about 1e-16.

    Error bound of the screen, which rejects only past a 1e-6 margin:
    - its latent distances differ from the exact ones by round-off in a few
      f-term sums (at most 7e-16 measured over 48,000 attempts);
    - its warped distances drop G's off-diagonal terms, at most
      h * r^2 * 1e-14 in |emb_map v|^2, and miss the round-off of the exact
      path's d-term dots (about d * 1.1e-16 relative); so each is within
      delta = 1e-12 of the exact value. The relative gap moves by at most
      4 * delta / (w_near + w_far), which is 2e-9 with both warped distances
      above _SCREEN_FLOOR (1e-3) (at most 9e-14 measured, at d up to 768).
    """
    f = z.size
    h = f // 2
    norm_z = _norm(z)
    ez = emb_map @ z
    norm_ez = _norm(ez)
    terms = _screen_terms(z, emb_map)
    for _ in range(_MAX_RESAMPLE):
        order = rng.permutation(f)
        u_base, u_ratio = rng.random(2).tolist()
        g = rng.normal(size=f)
        base = _uniform(_PERT_BASE, u_base)
        r_far = base * _uniform(_PERT_RATIO, u_ratio)
        if terms is not None and _screen_rejects(terms, order, g, base, r_far, contested):
            continue
        near = _offset(z, order[:h], g[:h], base)
        far = _offset(z, order[h:], g[h:], r_far)
        if _cosdist(z, norm_z, near) >= _cosdist(z, norm_z, far):
            continue
        if _in_band(ez, norm_ez, emb_map, near, far, contested):
            return near, far
    raise DataError("could not realize a correctly-ranked perturbation pair")


# instance-retrieval construction: view perturbations are small relative to
# the query-decoy separation, so the latent space always ranks the true
# gallery mate first while contested cases sit in the warped near-tie band
_VIEW_PERT = (0.08, 0.18)  # query/gallery view perturbation radius
_DECOY_DIST = (0.85, 1.6)  # decoy offset radius relative to the view radius


def _instance_triple(
    rng, z: np.ndarray, emb_map: np.ndarray, contested: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(query, gallery mate, decoy gallery) views around instance latent z.

    The mate is always closer to the query than the decoy in latent cosine;
    contested draws land the two within the warped near-tie band so the
    embedding warp decides their frozen ranking.
    """
    f = z.size
    h = f // 2
    for _ in range(_MAX_RESAMPLE):
        order = rng.permutation(f)
        u_qry, u_mate = rng.random(2).tolist()
        g = rng.normal(size=f)
        u_center = rng.random()
        center = rng.normal(size=f)
        decoy_subset = rng.permutation(f)[:h]
        g_decoy = rng.normal(size=h)
        u_decoy = rng.random()
        r_qry, r_mate = _uniform(_VIEW_PERT, u_qry), _uniform(_VIEW_PERT, u_mate)
        qry = _offset(z, order[:h], g[:h], r_qry)
        mate = _offset(z, order[h:], g[h:], r_mate)
        # decoy center: z + max(r_qry, r_mate) * _uniform(_DECOY_DIST) * unit(center)
        center /= _norm(center)
        center *= max(r_qry, r_mate) * _uniform(_DECOY_DIST, u_center)
        center += z
        decoy = _offset(center, decoy_subset, g_decoy, _uniform(_VIEW_PERT, u_decoy))
        norm_qry = _norm(qry)
        if _cosdist(qry, norm_qry, mate) >= _cosdist(qry, norm_qry, decoy):
            continue
        eq = emb_map @ qry
        if _in_band(eq, _norm(eq), emb_map, mate, decoy, contested):
            return qry, mate, decoy
    raise DataError("could not realize a correctly-ranked instance triple")


def _embedding_map(rng, d: int, f: int) -> np.ndarray:
    """A d x f map: isometry composed with axis-aligned gain boosts.

    The boost stays aligned with the factor axes (no mixing rotation) so the
    two disjoint perturbation subsets of a triplet see different gains.
    """
    if d < f:
        raise DataError(f"synthetic generator needs d >= factor_count, got d={d} < {f}")
    u, _ = np.linalg.qr(rng.normal(size=(d, f)))
    gains = np.ones(f)
    n_warp = min(_WARP_DIMS, f)
    gains[:n_warp] = np.geomspace(_WARP_GAIN, _WARP_GAIN**0.5, n_warp)
    return u @ np.diag(gains)


def _patch_maps(rng, s: int, d: int, f: int) -> np.ndarray:
    """Per-cell orthonormal maps (s*s, d, f): clean views of the latent."""
    maps = np.empty((s * s, d, f))
    for t in range(s * s):
        q, _ = np.linalg.qr(rng.normal(size=(d, f)))
        maps[t] = q
    return maps


def generate_world(spec: SyntheticFactorSpec, n_instances: int = 200) -> SyntheticWorld:
    """Build the full synthetic world; see SyntheticFactorSpec.

    A seed's world is fixed bit for bit: the same spec and n_instances give
    the same ids, embedding bytes, manifest, labels and queries on every run
    (on one CPU and BLAS; float kernels differ across them). The order of the
    random draws is part of that contract; tests/test_generator.py pins it
    against a reference copy of the generator.
    """
    if spec.factor_count < 2:
        raise DataError("factor_count must be >= 2 so variations can use disjoint subsets")
    if n_instances < 0:
        raise DataError(f"n_instances must be >= 0, got {n_instances}")
    f = spec.factor_count
    rng = np.random.default_rng(spec.seed)
    centers = rng.normal(size=(_N_CLASSES, f))
    # classes separate mostly along the axes the embedding map boosts, so
    # class-boundary supervision has no reason to undo the warp
    centers[:, : min(_WARP_DIMS, f)] *= _CLASS_AXIS_GAIN
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    emb_map = _embedding_map(rng, spec.d, f)
    patch_maps = _patch_maps(rng, spec.s, spec.d, f) if spec.s > 0 else None

    n_rows = 3 * (spec.n_triplets + n_instances)
    ids: list[str] = []
    cls_rows = np.empty((n_rows, spec.d), dtype=np.float32)
    patch_rows = np.empty((n_rows, spec.s, spec.s, spec.d), dtype=np.float32) if spec.s else None
    sigma = spec.noise_sigma

    def embed(id: str, z: np.ndarray) -> None:
        # noise_sigma is relative to the clean signal's per-component RMS
        row = len(ids)
        ids.append(id)
        cls = emb_map @ z
        if sigma > 0:
            cls = cls + sigma * (_norm(cls) / np.sqrt(spec.d)) * rng.normal(size=spec.d)
        cls_rows[row] = cls
        if patch_maps is not None:
            patch = patch_maps @ z
            if sigma > 0:
                rms = _norm(patch.ravel()) / np.sqrt(patch.size)
                patch = patch + sigma * rms * rng.normal(size=patch.shape)
            patch_rows[row] = patch.reshape(spec.s, spec.s, spec.d)

    entries = []
    y_star = np.empty(spec.n_triplets, dtype=np.int64)
    class_labels: dict[str, str] = {}
    for i in range(spec.n_triplets):
        k = int(rng.integers(_N_CLASSES))
        z = _class_latent(rng, centers, k)
        contested = rng.random() < _CONTESTED_FRAC
        near, far = _perturb_pair(rng, z, emb_map, contested)
        y = int(rng.integers(2))  # position of the closer variation
        ref_id, x0_id, x1_id = f"trip{i:06d}_ref", f"trip{i:06d}_x0", f"trip{i:06d}_x1"
        embed(ref_id, z)
        if y == 0:
            embed(x0_id, near)
            embed(x1_id, far)
        else:
            embed(x0_id, far)
            embed(x1_id, near)
        entries.append(TripletEntry(ref=ref_id, x0=x0_id, x1=x1_id, y=y))
        y_star[i] = y
        class_labels[ref_id] = f"c{k:02d}"

    instance_labels: dict[str, str] = {}
    query_ids: list[str] = []
    for j in range(n_instances):
        k = int(rng.integers(_N_CLASSES))
        z = _class_latent(rng, centers, k)
        contested = rng.random() < _CONTESTED_FRAC
        qry, mate, decoy = _instance_triple(rng, z, emb_map, contested)
        gal_id, dcy_id, qry_id = f"inst{j:05d}_gal", f"inst{j:05d}_dcy", f"inst{j:05d}_qry"
        embed(gal_id, mate)
        embed(dcy_id, decoy)
        embed(qry_id, qry)
        instance_labels[gal_id] = f"i{j:05d}"
        instance_labels[qry_id] = f"i{j:05d}"
        instance_labels[dcy_id] = f"d{j:05d}"  # distractor: its own identity
        query_ids.append(qry_id)

    manifest = TripletManifest(entries=entries)
    return SyntheticWorld(
        store=EmbeddingStore(ids, cls_rows, patch_rows),
        manifest=manifest,
        y_star=y_star,
        class_labels=class_labels,
        instance_labels=instance_labels,
        query_ids=query_ids,
        latent_agreement=1.0,  # enforced triplet by triplet in _perturb_pair
    )


def make_synthetic_nights(
    spec: SyntheticFactorSpec,
) -> tuple[EmbeddingStore, TripletManifest, np.ndarray]:
    """Synthetic mid-level triplets: (store, manifest, ground-truth y*).

    The manifest's y equals y* (judgments are noise-free by construction);
    embedding noise enters only through spec.noise_sigma.
    """
    world = generate_world(spec, n_instances=0)
    return world.store, world.manifest, world.y_star
