"""Store/manifest round-trips, triplet construction, and the synthetic generator."""

import struct
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palign.data import (
    STORE_MAGIC,
    STORE_VERSION,
    BoundedReader,
    EmbeddingStore,
    SyntheticFactorSpec,
    TripletEntry,
    TripletManifest,
    generate_world,
    load_labels,
    load_manifest,
    load_store,
    make_class_triplets,
    make_synthetic_nights,
    save_labels,
    save_manifest,
    save_store,
    split_manifest,
)
from palign.errors import DataError, FormatError, PalignError


# any text a .paln id can hold (UTF-8: no lone surrogates), often with the
# characters CSV must quote
CSV_TEXT = st.text(
    st.one_of(st.sampled_from(',"\r\n '), st.characters(blacklist_categories=("Cs",))),
    max_size=6,
)


def small_store(d=4, s=0, n=2, seed=0):
    rng = np.random.default_rng(seed)
    cls, patch = np.empty((n, d)), np.empty((n, s, s, d))
    for i in range(n):
        if s:
            patch[i] = rng.normal(size=(s, s, d))
        cls[i] = rng.normal(size=d)
    return EmbeddingStore([f"img{i}" for i in range(n)], cls, patch if s else None)


def stores_equal(a: EmbeddingStore, b: EmbeddingStore) -> bool:
    if (a.dim, a.patch_side, a.ids) != (b.dim, b.patch_side, b.ids):
        return False
    if not np.array_equal(a.cls, b.cls):
        return False
    if (a.patch is None) != (b.patch is None):
        return False
    return a.patch is None or np.array_equal(a.patch, b.patch)


class TestStoreIO:
    def test_round_trip_identity(self, tmp_path):
        store = small_store(d=4, s=0, n=2)
        path = tmp_path / "a.paln"
        n_bytes = save_store(store, path)
        assert n_bytes == path.stat().st_size
        assert stores_equal(load_store(path), store)

    def test_round_trip_with_patches(self, tmp_path):
        store = small_store(d=3, s=2, n=5, seed=3)
        path = tmp_path / "b.paln"
        save_store(store, path)
        assert stores_equal(load_store(path), store)

    def test_header_echoes_dimensions(self, tmp_path):
        store = small_store(d=768, s=16, n=1, seed=1)
        path = tmp_path / "c.paln"
        save_store(store, path)
        raw = path.read_bytes()
        assert raw[:4] == b"PALN"
        version, d, s = np.frombuffer(raw[4:16], dtype="<u4").tolist()
        count = int(np.frombuffer(raw[16:24], dtype="<u8")[0])
        assert (version, d, s, count) == (1, 768, 16, 1)

    def test_duplicate_id_rejected(self):
        with pytest.raises(DataError, match="duplicate record id 'x'"):
            EmbeddingStore(["x", "y", "x"], np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", ["cls", "patch"])
    def test_non_finite_values_rejected(self, bad, column):
        cls, patch = np.zeros((3, 2)), np.zeros((3, 2, 2, 2))
        (cls if column == "cls" else patch)[1].flat[-1] = bad
        with pytest.raises(DataError, match=f"record 'b': non-finite {column} values"):
            EmbeddingStore(["a", "b", "c"], cls, patch)

    @pytest.mark.parametrize(
        "ids,cls,message",
        [
            (["a", ""], np.zeros((2, 2)), "non-empty"),
            (["a", "b"], np.zeros((3, 2)), "cls shape"),
            (["a"], np.zeros(2), "cls shape"),
            (["a"], np.zeros((1, 0)), "dim must be >= 1"),
        ],
    )
    def test_bad_columns_rejected(self, ids, cls, message):
        with pytest.raises(DataError, match=message):
            EmbeddingStore(ids, cls)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.paln"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(FormatError, match="magic"):
            load_store(path)

    def test_version_mismatch(self, tmp_path):
        store = small_store()
        path = tmp_path / "v.paln"
        save_store(store, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_store(path)

    def test_truncated_mid_record(self, tmp_path):
        store = small_store(d=8, n=3)
        path = tmp_path / "t.paln"
        save_store(store, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(FormatError, match="truncated"):
            load_store(path)

    def test_non_utf8_id_rejected(self, tmp_path):
        store = EmbeddingStore(["xy"], np.ones((1, 2)))
        path = tmp_path / "id.paln"
        save_store(store, path)
        raw = bytearray(path.read_bytes())
        raw[28:30] = b"\xff\xfe"  # the id bytes, after the 24-byte header and id length
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="UTF-8"):
            load_store(path)

    def test_lying_id_length_rejected(self, tmp_path):
        path = tmp_path / "len.paln"
        save_store(small_store(), path)
        raw = bytearray(path.read_bytes())
        raw[24:28] = struct.pack("<I", 0xFFFFFFFF)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="truncated"):
            load_store(path)

    def test_nan_payload_rejected(self, tmp_path):
        store = small_store(d=2, n=1)
        path = tmp_path / "n.paln"
        save_store(store, path)
        raw = bytearray(path.read_bytes())
        # last 8 bytes are the two cls floats; overwrite with NaN
        raw[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="non-finite"):
            load_store(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        store = small_store()
        path = tmp_path / "tr.paln"
        save_store(store, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError, match="trailing"):
            load_store(path)

    @settings(max_examples=25, deadline=None)
    @given(
        d=st.integers(1, 12),
        s=st.integers(0, 3),
        n=st.integers(0, 6),
        seed=st.integers(0, 2**16),
    )
    def test_round_trip_identity_property(self, d, s, n, seed, tmp_path_factory):
        store = small_store(d=d, s=s, n=n, seed=seed)
        path = tmp_path_factory.mktemp("prop") / "s.paln"
        save_store(store, path)
        assert stores_equal(load_store(path), store)

    @pytest.mark.parametrize("d,s,count", [(1, 0, 2**40), (2**32 - 1, 2**32 - 1, 0)])
    def test_lying_count_fails_before_allocating(self, tmp_path, d, s, count):
        # 2**40 one-float records cannot fit in 6 bytes, and a loader that
        # preallocated first would ask for 4 TiB; no array can hold even
        # zero records of the second layout
        path = tmp_path / "count.paln"
        path.write_bytes(b"PALN" + struct.pack("<IIIQ", 1, d, s, count) + bytes(6))
        assert path.stat().st_size == 30
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=f"header declares {count} records"):
                load_store(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), s=st.integers(0, 2), n=st.integers(0, 4))
    def test_corrupt_bytes_fail_clean(self, data, s, n, tmp_path_factory):
        # a truncated, bit-flipped or lying file loads or raises a palign error
        path = tmp_path_factory.mktemp("bad") / "s.paln"
        save_store(small_store(d=3, s=s, n=n), path)
        raw = bytearray(path.read_bytes())
        kind = data.draw(st.sampled_from(["truncate", "flip", "count", "id length"]))
        if kind == "truncate":
            del raw[data.draw(st.integers(0, len(raw) - 1)) :]
        elif kind == "flip":
            bits = st.lists(st.integers(0, 8 * len(raw) - 1), min_size=1, max_size=4)
            for bit in data.draw(bits):
                raw[bit // 8] ^= 1 << (bit % 8)
        elif kind == "count":
            raw[16:24] = struct.pack("<Q", data.draw(st.integers(0, 2**64 - 1)))
        elif n:
            # a record's id length; with 4-byte ids a record takes 8 + 12 * (1 + s * s) bytes
            record = data.draw(st.integers(0, n - 1))
            at = 24 + record * (8 + 12 * (1 + s * s))
            raw[at : at + 4] = struct.pack("<I", data.draw(st.integers(0, 2**32 - 1)))
        path.write_bytes(bytes(raw))
        try:
            store = load_store(path)
        except (FormatError, DataError):
            return
        assert len(store.ids) == len(store.cls)

    def test_patch_dim_mismatch_rejected(self):
        with pytest.raises(DataError, match="patch shape"):
            EmbeddingStore(["x"], np.zeros((1, 3)), np.zeros((1, 2, 2, 4)))


def reference_records(path):
    """(ids, cls, patch) of every record, read by the record-by-record store
    walk that `load_store` replaced: every size goes through BoundedReader's
    checks, one call per field, and nothing past the format is checked."""

    def read_into(reader, out, what):
        reader._reserve(out.nbytes, what)
        # a flat byte view: memoryview(out).cast("B") refuses a header's d = 0
        reader.f.readinto(out.view(np.uint8).reshape(-1))

    with open(path, "rb") as f:
        reader = BoundedReader(f, "store", STORE_MAGIC, STORE_VERSION)
        dim, side, count = reader.unpack("<IIQ", "header")
        smallest = 4 + 4 * dim * (1 + side * side)
        if count * smallest > reader.left or smallest > sys.maxsize:
            raise FormatError("truncated store file")
        ids = []
        cls = np.empty((count, dim), dtype="<f4")
        patch = np.empty((count, side, side, dim), dtype="<f4") if side else None
        for i in range(count):
            (id_len,) = reader.unpack("<I", "id length")
            ids.append(reader.text(id_len, "id"))
            read_into(reader, cls[i], f"cls of {ids[-1]!r}")
            if patch is not None:
                read_into(reader, patch[i], f"patch of {ids[-1]!r}")
        if reader.left:
            raise FormatError("trailing bytes after final record")
    return ids, cls, patch


def reference_load_store(path) -> EmbeddingStore:
    """The oracle of `load_store(path)`: every record, checked as a whole."""
    return EmbeddingStore(*reference_records(path))


def reference_load_subset(path, ids) -> EmbeddingStore:
    """The oracle of `load_store(path, ids)`: the format and the ids of every
    record checked, then only the records whose id is in `ids`, in file order,
    built into a store (so only their values are checked for finiteness)."""
    all_ids, cls, patch = reference_records(path)
    EmbeddingStore(all_ids, np.zeros((len(all_ids), 1)))  # empty or repeated ids
    rows = [i for i, id in enumerate(all_ids) if id in set(ids)]
    kept = [all_ids[i] for i in rows]
    return EmbeddingStore(kept, cls[rows], None if patch is None else patch[rows])


def load_or_error(load, path, *ids):
    """The store `load` reads from path (and ids), or the palign error class
    it raises."""
    try:
        return load(path, *ids)
    except PalignError as exc:
        return type(exc)


def assert_same_load(got, expected):
    """Two load_or_error results: the same error class, or equal stores byte
    for byte."""
    if isinstance(expected, type):
        assert got is expected
        return
    assert not isinstance(got, type), got
    assert got.ids == expected.ids
    assert (got.dim, got.patch_side) == (expected.dim, expected.patch_side)
    assert got.cls.tobytes() == expected.cls.tobytes()
    assert (got.patch is None) == (expected.patch is None)
    if got.patch is not None:
        assert got.patch.tobytes() == expected.patch.tobytes()


def write_raw_store(path, ids, cls, patch=None) -> None:
    """A v1 store file of these records, none of them checked: ids may be
    empty or repeat, and values need not be finite."""
    d, s = cls.shape[1], 0 if patch is None else patch.shape[1]
    with open(path, "wb") as f:
        f.write(STORE_MAGIC + struct.pack("<IIIQ", STORE_VERSION, d, s, len(ids)))
        for i, id in enumerate(ids):
            raw = id.encode()
            f.write(struct.pack("<I", len(raw)) + raw + cls[i].astype("<f4").tobytes())
            if patch is not None:
                f.write(patch[i].astype("<f4").tobytes())


# ids of 1-4 characters of 1-4 UTF-8 bytes each
STORE_IDS = st.text(st.sampled_from("aZ_/.,é中😀\x00"), min_size=1, max_size=4)


class TestStoreLoaderOracle:
    """load_store against the record-by-record reference loader, for the whole
    file and for the records of a set of ids."""

    def draw_store(self, data, d, s, n, seed):
        ids = data.draw(st.lists(STORE_IDS, min_size=n, max_size=n, unique=True))
        store = small_store(d=d, s=s, n=n, seed=seed)
        return EmbeddingStore(ids, store.cls, store.patch)

    def draw_ids(self, data, ids):
        """Some of `ids` and some drawn ids, which the file may lack, in any
        order and with repeats; sometimes none."""
        known = st.sampled_from(ids) if ids else STORE_IDS
        return data.draw(st.lists(st.one_of(known, STORE_IDS), max_size=8))

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(1, 3),
        s=st.integers(0, 3),
        n=st.integers(0, 6),
        seed=st.integers(0, 2**16),
    )
    def test_round_trip_matches_reference(self, data, d, s, n, seed, tmp_path_factory):
        store = self.draw_store(data, d, s, n, seed)
        path = tmp_path_factory.mktemp("oracle") / "s.paln"
        save_store(store, path)
        for loaded in (load_store(path), reference_load_store(path)):
            assert loaded.ids == store.ids
            assert (loaded.dim, loaded.patch_side) == (d, s)
            assert loaded.cls.tobytes() == store.cls.tobytes()
            assert (loaded.patch is None) == (s == 0)
            if s:
                assert loaded.patch.tobytes() == store.patch.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(1, 3),
        s=st.integers(0, 3),
        n=st.integers(0, 6),
        seed=st.integers(0, 2**16),
    )
    def test_subset_is_the_full_load_restricted(self, data, d, s, n, seed, tmp_path_factory):
        store = self.draw_store(data, d, s, n, seed)
        path = tmp_path_factory.mktemp("oracle") / "s.paln"
        save_store(store, path)
        ids = self.draw_ids(data, store.ids)
        got = load_store(path, ids)
        rows = [i for i, id in enumerate(store.ids) if id in ids]
        assert got.ids == [store.ids[i] for i in rows]
        assert (got.dim, got.patch_side) == (d, s)
        assert got.cls.tobytes() == store.cls[rows].tobytes()
        assert (got.patch is None) == (s == 0)
        if s:
            assert got.patch.tobytes() == store.patch[rows].tobytes()
        assert_same_load(got, reference_load_subset(path, ids))

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(1, 3),
        s=st.integers(0, 2),
        n=st.integers(0, 4),
        kind=st.sampled_from(["truncate", "flip", "count", "id length"]),
    )
    def test_corrupt_file_matches_reference(self, data, d, s, n, kind, tmp_path_factory):
        # the whole file, and the records of some ids: the same error class as
        # the reference, or the same records
        store = self.draw_store(data, d, s, n, seed=n)
        path = tmp_path_factory.mktemp("oracle") / "s.paln"
        save_store(store, path)
        raw = bytearray(path.read_bytes())
        if kind == "truncate":
            del raw[data.draw(st.integers(0, len(raw) - 1)) :]
        elif kind == "flip":
            bits = st.lists(st.integers(0, 8 * len(raw) - 1), min_size=1, max_size=4)
            for bit in data.draw(bits):
                raw[bit // 8] ^= 1 << (bit % 8)
        elif kind == "count":
            raw[16:24] = struct.pack("<Q", data.draw(st.integers(0, 2**64 - 1)))
        elif n:
            record = data.draw(st.integers(0, n - 1))
            payload = 4 * d * (1 + s * s)
            at = 24 + sum(4 + len(id.encode()) + payload for id in store.ids[:record])
            id_len = data.draw(st.one_of(st.integers(0, 24), st.integers(0, 2**32 - 1)))
            raw[at : at + 4] = struct.pack("<I", id_len)
        path.write_bytes(bytes(raw))
        full = load_or_error(reference_load_store, path)
        assert_same_load(load_or_error(load_store, path), full)
        ids = self.draw_ids(data, store.ids)
        subset = load_or_error(reference_load_subset, path, ids)
        assert_same_load(load_or_error(load_store, path, ids), subset)
        # a subset load fails only as the whole file does, and loads where the
        # whole file fails only for non-finite values in rows it does not read
        if isinstance(subset, type):
            assert subset is full
        if full is FormatError:
            assert subset is FormatError

    @pytest.mark.parametrize(
        "ids,message",
        [
            (["a", "b", "b", "a"], "duplicate record id 'a'"),
            (["a", "b", "c", "b"], "duplicate record id 'b'"),
            (["a", "", "c", "d"], "record id must be a non-empty string"),
            (["a", "a", "", "d"], "record id must be a non-empty string"),
        ],
    )
    def test_bad_ids_of_unread_records_still_fail(self, tmp_path, ids, message):
        path = tmp_path / "ids.paln"
        write_raw_store(path, ids, np.zeros((4, 2)), np.zeros((4, 1, 1, 2)))
        for wanted in (None, ["d"], [], ["zz"], ["a"], ["a", "b", "c", "d"]):
            with pytest.raises(DataError, match=f"^{message}$"):
                load_store(path, wanted)

    @pytest.mark.parametrize("column", ["cls", "patch"])
    def test_non_finite_values_fail_only_in_rows_read(self, tmp_path, column):
        cls, patch = np.zeros((3, 2)), np.zeros((3, 2, 2, 2))
        (cls if column == "cls" else patch)[1].flat[-1] = np.nan
        path = tmp_path / "nan.paln"
        write_raw_store(path, ["a", "b", "c"], cls, patch)
        for wanted in (None, ["b"], ["c", "b"]):
            with pytest.raises(DataError, match=f"^record 'b': non-finite {column} values$"):
                load_store(path, wanted)
        store = load_store(path, ["c", "a"])
        assert store.ids == ["a", "c"]
        assert store.cls.tobytes() == cls[[0, 2]].astype("<f4").tobytes()
        assert store.patch.tobytes() == patch[[0, 2]].astype("<f4").tobytes()

    @pytest.mark.parametrize("s", [0, 2])
    def test_absent_and_no_ids_give_stores_without_those_records(self, tmp_path, s):
        path = tmp_path / "s.paln"
        save_store(small_store(d=3, s=s, n=3), path)
        for wanted in ([], ["nope"], {"nope", "other"}):
            store = load_store(path, wanted)
            assert (len(store), store.dim, store.patch_side) == (0, 3, s)
            assert store.cls.shape == (0, 3)
            assert (store.patch is None) == (s == 0)
            with pytest.raises(DataError, match="unknown record id 'nope'"):
                store.row("nope")
        store = load_store(path, ["img2", "nope", "img0", "img2"])
        assert store.ids == ["img0", "img2"]
        assert [store.row(id) for id in store.ids] == [0, 1]

    def test_subset_allocates_only_the_rows_read(self, tmp_path):
        # 2,000 records of 1 KiB: a whole-file allocation would be 2 MB
        path = tmp_path / "big.paln"
        save_store(small_store(d=256, s=0, n=2000), path)
        tracemalloc.start()
        try:
            store = load_store(path, ["img7", "img1999"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert store.ids == ["img7", "img1999"]
        assert peak < 1 << 19


class TestManifestIO:
    def test_load_basic(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("ref,x0,x1,y\nr1,a1,b1,0\nr2,a2,b2,1\nr3,a3,b3,1\nr4,a4,b4,0\n")
        m = load_manifest(path)
        assert len(m) == 4
        assert m.entries[0] == TripletEntry("r1", "a1", "b1", 0)
        assert [e.y for e in m] == [0, 1, 1, 0]

    def test_bad_y_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("ref,x0,x1,y\nr,a,b,2\n")
        with pytest.raises(FormatError, match="y must be"):
            load_manifest(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("ref,x0,y\nr,a,0\n")
        with pytest.raises(FormatError, match="header"):
            load_manifest(path)

    def test_duplicate_rows_kept_and_reported(self, tmp_path, caplog):
        path = tmp_path / "m.csv"
        path.write_text("ref,x0,x1,y\nr,a,b,0\nr,a,b,0\nr,a,b,1\n")
        with caplog.at_level("WARNING"):
            m = load_manifest(path)
        assert len(m) == 3
        assert m.duplicate_row_count() == 2
        assert any("repeated" in r.message for r in caplog.records)

    def test_nights_scale_manifest(self, tmp_path):
        # 13,900 training triplets load without complaint
        path = tmp_path / "big.csv"
        rows = ["ref,x0,x1,y"]
        rows += [f"r{i},a{i},b{i},{i % 2}" for i in range(13_900)]
        path.write_text("\n".join(rows) + "\n")
        assert len(load_manifest(path)) == 13_900

    def test_round_trip(self, tmp_path):
        m = TripletManifest(
            entries=[TripletEntry("r", "a", "b", 0), TripletEntry("r2", "a2", "b2", 1)]
        )
        path = tmp_path / "w.csv"
        save_manifest(m, path)
        m2 = load_manifest(path)
        assert m2.entries == m.entries

    def test_non_distinct_ids_rejected(self):
        with pytest.raises(DataError, match="distinct"):
            TripletEntry("r", "r", "b", 0)

    def test_manifest_error_names_the_file_line_after_a_multiline_field(self, tmp_path):
        # the quoted id spans lines 2-3, so the bad row is record 4 but line 5
        path = tmp_path / "m.csv"
        path.write_text('ref,x0,x1,y\n"a\nb",c,d,1\ne,f,g,0\nh,i,j,2\n')
        with pytest.raises(FormatError, match="^line 5: y must be 0 or 1, got '2'$"):
            load_manifest(path)

    def test_labels_error_names_the_file_line_after_a_multiline_field(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text('id,label\n"a\nb",x\nc,y\n\nc,z\n')
        with pytest.raises(FormatError, match="^line 6: duplicate id 'c'$"):
            load_labels(path)

    def test_labels_round_trip(self, tmp_path):
        labels = {"a": "cat", "b": "dog"}
        path = tmp_path / "l.csv"
        save_labels(labels, path)
        assert load_labels(path) == labels

    @settings(max_examples=100, deadline=None)
    @given(
        triples=st.lists(st.lists(CSV_TEXT, min_size=3, max_size=3, unique=True), max_size=4),
        ys=st.lists(st.integers(0, 1), min_size=4, max_size=4),
        labels=st.dictionaries(CSV_TEXT, CSV_TEXT, max_size=4),
    )
    def test_text_ids_round_trip(self, triples, ys, labels, tmp_path_factory):
        manifest = TripletManifest([TripletEntry(*ids, y) for ids, y in zip(triples, ys)])
        path = tmp_path_factory.mktemp("csv")
        save_manifest(manifest, path / "m.csv")
        save_labels(labels, path / "l.csv")
        assert load_manifest(path / "m.csv").entries == manifest.entries
        assert load_labels(path / "l.csv") == labels


class TestClassTriplets:
    def test_forced_single_option(self):
        labels = {"a": "1", "b": "1", "c": "2"}
        m = make_class_triplets(labels, n=1, seed=0)
        e = m.entries[0]
        same = e.x0 if e.y == 0 else e.x1
        other = e.x1 if e.y == 0 else e.x0
        assert {e.ref, same} == {"a", "b"}
        assert other == "c"

    def test_same_class_marked_more_similar(self):
        rng = np.random.default_rng(5)
        labels = {f"id{i}": f"c{rng.integers(4)}" for i in range(40)}
        m = make_class_triplets(labels, n=200, seed=1)
        for e in m:
            chosen = e.x0 if e.y == 0 else e.x1
            other = e.x1 if e.y == 0 else e.x0
            assert labels[e.ref] == labels[chosen] != labels[other]

    def test_deterministic(self):
        labels = {f"id{i}": f"c{i % 3}" for i in range(30)}
        m1 = make_class_triplets(labels, n=50, seed=9)
        m2 = make_class_triplets(labels, n=50, seed=9)
        assert m1.entries == m2.entries

    def test_position_balance(self):
        # oracle: count y over the generated manifest
        labels = {f"id{i}": f"c{i % 10}" for i in range(1000)}
        m = make_class_triplets(labels, n=10_000, seed=3)
        p_y0 = sum(1 for e in m if e.y == 0) / len(m)
        assert abs(p_y0 - 0.5) <= 0.02

    def test_insufficient_classes(self):
        with pytest.raises(DataError):
            make_class_triplets({"a": "1", "b": "1"}, n=1, seed=0)


class TestSplit:
    def make(self, n):
        return TripletManifest(
            entries=[TripletEntry(f"r{i}", f"a{i}", f"b{i}", i % 2) for i in range(n)]
        )

    def test_rounding(self):
        tr, va, te = split_manifest(self.make(10), (0.8, 0.1, 0.1), seed=0)
        assert (len(tr), len(va), len(te)) == (8, 1, 1)

    def test_partition(self):
        m = self.make(23)
        parts = split_manifest(m, (0.6, 0.2, 0.2), seed=4)
        combined = sorted(
            (e.ref for p in parts for e in p), key=lambda s: int(s[1:])
        )
        assert combined == [e.ref for e in m]

    def test_seed_changes_assignment_not_sizes(self):
        m = self.make(40)
        a = split_manifest(m, (0.5, 0.25, 0.25), seed=1)
        b = split_manifest(m, (0.5, 0.25, 0.25), seed=2)
        assert [len(p) for p in a] == [len(p) for p in b]
        assert [e.ref for e in a[0]] != [e.ref for e in b[0]]

    def test_largest_remainder_tie_goes_to_earlier_split(self):
        # 0.35/0.35/0.30 of 10 -> exact (3.5, 3.5, 3.0); the extra goes to train
        tr, va, te = split_manifest(self.make(10), (0.35, 0.35, 0.30), seed=0)
        assert (len(tr), len(va), len(te)) == (4, 3, 3)

    def test_degenerate_fractions(self):
        with pytest.raises(DataError):
            split_manifest(self.make(5), (1.0, 0.0, 0.0), seed=0)
        with pytest.raises(DataError):
            split_manifest(self.make(5), (0.5, 0.3, 0.3), seed=0)


def cosine_dist(u, v):
    return 1.0 - (u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))


def raw_embedding_2afc(store, manifest):
    hits = 0.0
    cls = store.cls.astype(np.float64)
    for e in manifest:
        ref, x0, x1 = (cls[store.row(id)] for id in (e.ref, e.x0, e.x1))
        d0 = cosine_dist(ref, x0)
        d1 = cosine_dist(ref, x1)
        if d0 == d1:
            hits += 0.5
        elif (d1 < d0) == bool(e.y):
            hits += 1.0
    return hits / len(manifest)


class TestSyntheticGenerator:
    def test_noiseless_latent_agreement(self):
        spec = SyntheticFactorSpec(n_triplets=100, d=16, factor_count=6, noise_sigma=0.0, seed=2)
        world = generate_world(spec, n_instances=0)
        assert world.latent_agreement == 1.0
        assert len(world.manifest) == 100
        np.testing.assert_array_equal(world.y_star, [e.y for e in world.manifest])

    def test_deterministic(self):
        spec = SyntheticFactorSpec(n_triplets=20, d=8, s=2, factor_count=4, seed=7)
        s1, m1, y1 = make_synthetic_nights(spec)
        s2, m2, y2 = make_synthetic_nights(spec)
        assert m1.entries == m2.entries
        np.testing.assert_array_equal(y1, y2)
        assert s1.ids == s2.ids
        np.testing.assert_array_equal(s1.cls, s2.cls)
        np.testing.assert_array_equal(s1.patch, s2.patch)

    def test_noisy_embeddings_partial_agreement(self):
        # oracle: evaluate the generated set with cosine distances directly
        spec = SyntheticFactorSpec(
            n_triplets=1000, d=64, factor_count=8, noise_sigma=0.5, seed=11
        )
        store, manifest, y_star = make_synthetic_nights(spec)
        acc = raw_embedding_2afc(store, manifest)
        assert 0.5 < acc < 1.0

    def test_store_layout(self):
        spec = SyntheticFactorSpec(n_triplets=5, d=12, s=3, factor_count=4, seed=0)
        store, manifest, _ = make_synthetic_nights(spec)
        assert store.dim == 12 and store.patch_side == 3
        assert len(store) == 15  # ref + two variations per triplet
        assert store.cls.shape == (15, 12) and store.patch.shape == (15, 3, 3, 12)
        assert store.row(manifest.entries[0].ref) == 0

    def test_world_instances(self):
        spec = SyntheticFactorSpec(n_triplets=10, d=16, factor_count=6, seed=3)
        world = generate_world(spec, n_instances=25)
        assert len(world.query_ids) == 25
        # per instance: query + gallery mate + decoy gallery item
        assert len(world.instance_labels) == 75
        for qid in world.query_ids:
            assert qid in world.store
            mate = qid.replace("_qry", "_gal")
            assert world.instance_labels[mate] == world.instance_labels[qid]

    def test_negative_instances_rejected(self):
        spec = SyntheticFactorSpec(n_triplets=5, d=8, factor_count=4, seed=0)
        with pytest.raises(DataError, match=r"^n_instances must be >= 0, got -1$"):
            generate_world(spec, n_instances=-1)

    def test_factor_count_one_rejected(self):
        spec = SyntheticFactorSpec(n_triplets=5, d=8, factor_count=1, seed=0)
        with pytest.raises(PalignError):
            make_synthetic_nights(spec)

    def test_invalid_spec(self):
        with pytest.raises(DataError):
            SyntheticFactorSpec(n_triplets=5, noise_sigma=-1.0)

    def test_nan_noise_rejected(self):
        with pytest.raises(DataError, match="noise_sigma must be >= 0"):
            SyntheticFactorSpec(n_triplets=5, noise_sigma=float("nan"))
