"""The synthetic generator's draw-order contract and its samplers' guarantees.

A seed's world is fixed bit for bit. The reference below is the generator as
first written (one draw call per value, np.linalg.norm throughout); the
library's generator must give byte-identical worlds and leave the random
stream where the reference leaves it. The comparison runs against code, not
pinned digests, because BLAS kernels differ across CPUs.
"""

import itertools

import numpy as np
import pytest

from palign import data as D
from palign.data import (
    EmbeddingStore,
    SyntheticFactorSpec,
    SyntheticWorld,
    TripletEntry,
    TripletManifest,
    generate_world,
    save_labels,
    save_manifest,
    save_store,
)
from palign.errors import DataError

# ---------------------------------------------------------------------------
# reference generator
# ---------------------------------------------------------------------------


def ref_unit(v):
    return v / np.linalg.norm(v)


def ref_latent_cosdist(u, v):
    return 1.0 - float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))


def ref_class_latent(rng, centers, k):
    f = centers.shape[1]
    return ref_unit(D._CLASS_PULL * centers[k] + rng.normal(size=f))


def ref_perturb_pair(rng, z, emb_map, contested):
    f = z.size
    ez = emb_map @ z
    for _ in range(D._MAX_RESAMPLE):
        order = rng.permutation(f)
        subsets = (order[: f // 2], order[f // 2 :])
        base = rng.uniform(*D._PERT_BASE)
        radii = (base, base * rng.uniform(*D._PERT_RATIO))
        out = []
        for subset, radius in zip(subsets, radii):
            w = np.zeros(f)
            w[subset] = rng.normal(size=subset.size)
            out.append(z + radius * ref_unit(w))
        if ref_latent_cosdist(z, out[0]) >= ref_latent_cosdist(z, out[1]):
            continue
        d_near = ref_latent_cosdist(ez, emb_map @ out[0])
        d_far = ref_latent_cosdist(ez, emb_map @ out[1])
        rel_gap = (d_far - d_near) / (0.5 * (d_far + d_near))
        if contested != (abs(rel_gap) < D._TIE_BAND):
            continue
        if not contested and rel_gap < 0:
            continue
        return out[0], out[1]
    raise DataError("could not realize a correctly-ranked perturbation pair")


def ref_instance_triple(rng, z, emb_map, contested):
    f = z.size
    for _ in range(D._MAX_RESAMPLE):
        order = rng.permutation(f)
        subsets = (order[: f // 2], order[f // 2 :])
        r_qry = rng.uniform(*D._VIEW_PERT)
        r_mate = rng.uniform(*D._VIEW_PERT)
        views = []
        for subset, radius in zip(subsets, (r_qry, r_mate)):
            w = np.zeros(f)
            w[subset] = rng.normal(size=subset.size)
            views.append(z + radius * ref_unit(w))
        qry, mate = views
        decoy_center = z + max(r_qry, r_mate) * rng.uniform(*D._DECOY_DIST) * ref_unit(
            rng.normal(size=f)
        )
        w = np.zeros(f)
        subset = rng.permutation(f)[: f // 2]
        w[subset] = rng.normal(size=subset.size)
        decoy = decoy_center + rng.uniform(*D._VIEW_PERT) * ref_unit(w)
        if ref_latent_cosdist(qry, mate) >= ref_latent_cosdist(qry, decoy):
            continue
        eq = emb_map @ qry
        d_mate = ref_latent_cosdist(eq, emb_map @ mate)
        d_decoy = ref_latent_cosdist(eq, emb_map @ decoy)
        rel_gap = (d_decoy - d_mate) / (0.5 * (d_decoy + d_mate))
        if contested != (abs(rel_gap) < D._TIE_BAND):
            continue
        if not contested and rel_gap < 0:
            continue
        return qry, mate, decoy
    raise DataError("could not realize a correctly-ranked instance triple")


def ref_embedding_map(rng, d, f):
    u, _ = np.linalg.qr(rng.normal(size=(d, f)))
    gains = np.ones(f)
    n_warp = min(D._WARP_DIMS, f)
    gains[:n_warp] = np.geomspace(D._WARP_GAIN, D._WARP_GAIN**0.5, n_warp)
    return u @ np.diag(gains)


def ref_patch_maps(rng, s, d, f):
    maps = np.empty((s * s, d, f))
    for t in range(s * s):
        q, _ = np.linalg.qr(rng.normal(size=(d, f)))
        maps[t] = q
    return maps


def ref_generate_world(spec, n_instances):
    f = spec.factor_count
    rng = np.random.default_rng(spec.seed)
    centers = rng.normal(size=(D._N_CLASSES, f))
    centers[:, : min(D._WARP_DIMS, f)] *= D._CLASS_AXIS_GAIN
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    emb_map = ref_embedding_map(rng, spec.d, f)
    patch_maps = ref_patch_maps(rng, spec.s, spec.d, f) if spec.s > 0 else None

    n_rows = 3 * (spec.n_triplets + n_instances)
    ids = []
    cls_rows = np.empty((n_rows, spec.d), dtype=np.float32)
    patch_rows = np.empty((n_rows, spec.s, spec.s, spec.d), dtype=np.float32) if spec.s else None
    sigma = spec.noise_sigma

    def embed(id, z):
        row = len(ids)
        ids.append(id)
        cls = emb_map @ z
        if sigma > 0:
            cls = cls + sigma * (np.linalg.norm(cls) / np.sqrt(spec.d)) * rng.normal(size=spec.d)
        cls_rows[row] = cls
        if patch_maps is not None:
            patch = patch_maps @ z
            if sigma > 0:
                rms = np.linalg.norm(patch) / np.sqrt(patch.size)
                patch = patch + sigma * rms * rng.normal(size=patch.shape)
            patch_rows[row] = patch.reshape(spec.s, spec.s, spec.d)

    entries = []
    y_star = np.empty(spec.n_triplets, dtype=np.int64)
    class_labels = {}
    for i in range(spec.n_triplets):
        k = int(rng.integers(D._N_CLASSES))
        z = ref_class_latent(rng, centers, k)
        contested = rng.random() < D._CONTESTED_FRAC
        near, far = ref_perturb_pair(rng, z, emb_map, contested)
        y = int(rng.integers(2))
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

    instance_labels = {}
    query_ids = []
    for j in range(n_instances):
        k = int(rng.integers(D._N_CLASSES))
        z = ref_class_latent(rng, centers, k)
        contested = rng.random() < D._CONTESTED_FRAC
        qry, mate, decoy = ref_instance_triple(rng, z, emb_map, contested)
        gal_id, dcy_id, qry_id = f"inst{j:05d}_gal", f"inst{j:05d}_dcy", f"inst{j:05d}_qry"
        embed(gal_id, mate)
        embed(dcy_id, decoy)
        embed(qry_id, qry)
        instance_labels[gal_id] = f"i{j:05d}"
        instance_labels[qry_id] = f"i{j:05d}"
        instance_labels[dcy_id] = f"d{j:05d}"
        query_ids.append(qry_id)

    return SyntheticWorld(
        store=EmbeddingStore(ids, cls_rows, patch_rows),
        manifest=TripletManifest(entries=entries),
        y_star=y_star,
        class_labels=class_labels,
        instance_labels=instance_labels,
        query_ids=query_ids,
        latent_agreement=1.0,
    )


# ---------------------------------------------------------------------------
# oracle: the library's generator against the reference
# ---------------------------------------------------------------------------


def world_bytes(make_world, spec, n_instances, out):
    """Everything `palign synth` writes for a world, as bytes, plus y*;
    ("DataError", message) when the generator gives up."""
    try:
        world = make_world(spec, n_instances)
    except DataError as e:
        return ("DataError", str(e))
    out.mkdir()
    save_store(world.store, out / "store.paln")
    save_manifest(world.manifest, out / "triplets.csv")
    save_labels(world.class_labels, out / "class_labels.csv")
    save_labels(world.instance_labels, out / "instance_labels.csv")
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    files["queries.txt"] = "".join(f"{q}\n" for q in world.query_ids).encode()
    files["y_star"] = world.y_star.tobytes()
    return files


@pytest.mark.parametrize("n_instances", [0, 25])
@pytest.mark.parametrize("factor_count", [2, 5, 8])
@pytest.mark.parametrize("noise_sigma", [0.0, 0.3])
@pytest.mark.parametrize("s", [0, 2])
def test_world_matches_reference(s, noise_sigma, factor_count, n_instances, tmp_path):
    # factor_count=2 worlds often give up on a contested pair; giving up
    # after the same draws is part of the contract too
    for seed in (1, 2, 3):
        spec = SyntheticFactorSpec(
            n_triplets=4, d=12, s=s, factor_count=factor_count, noise_sigma=noise_sigma, seed=seed
        )
        want = world_bytes(ref_generate_world, spec, n_instances, tmp_path / f"ref{seed}")
        got = world_bytes(generate_world, spec, n_instances, tmp_path / f"new{seed}")
        assert got == want, f"seed {seed}"


@pytest.mark.parametrize(
    "spec, n_instances",
    [
        (SyntheticFactorSpec(n_triplets=300, d=64, seed=4), 60),
        (SyntheticFactorSpec(n_triplets=150, d=64, s=4, seed=5), 30),
        (SyntheticFactorSpec(n_triplets=200, d=48, factor_count=6, noise_sigma=0.1, seed=6), 40),
    ],
)
def test_larger_world_matches_reference(spec, n_instances, tmp_path):
    want = world_bytes(ref_generate_world, spec, n_instances, tmp_path / "ref")
    got = world_bytes(generate_world, spec, n_instances, tmp_path / "new")
    assert isinstance(want, dict)
    assert got == want


def sampler_inputs(f, d, seed):
    """A seeded embedding map and a stream of class latents around random centers."""
    rng = np.random.default_rng(seed)
    emb_map = ref_embedding_map(rng, d, f)
    centers = rng.normal(size=(D._N_CLASSES, f))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    zs = [ref_class_latent(rng, centers, k % D._N_CLASSES) for k in range(12)]
    return emb_map, zs


@pytest.mark.parametrize(
    "sampler, reference",
    [(D._perturb_pair, ref_perturb_pair), (D._instance_triple, ref_instance_triple)],
)
@pytest.mark.parametrize("f", [2, 5, 8])
def test_sampler_matches_reference_and_leaves_stream_in_step(sampler, reference, f):
    emb_map, zs = sampler_inputs(f, 16, seed=f)
    for i, (z, contested) in enumerate(itertools.product(zs, (True, False))):
        rng_ref, rng_new = np.random.default_rng([f, i]), np.random.default_rng([f, i])
        try:
            want = reference(rng_ref, z, emb_map, contested)
        except DataError as e:
            with pytest.raises(DataError, match=str(e)):
                sampler(rng_new, z, emb_map, contested)
        else:
            got = sampler(rng_new, z, emb_map, contested)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


# ---------------------------------------------------------------------------
# sampler contracts
# ---------------------------------------------------------------------------


def cosdist(u, v):
    return 1.0 - (u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))


def rel_gap(d_closer, d_farther):
    return (d_farther - d_closer) / (0.5 * (d_farther + d_closer))


N_CONTRACT_DRAWS = 300


@pytest.mark.parametrize("f, d", [(5, 16), (8, 32)])
def test_perturb_pair_contract(f, d):
    emb_map, _ = sampler_inputs(f, d, seed=20 + f)
    rng = np.random.default_rng(f)
    centers = rng.normal(size=(D._N_CLASSES, f))
    for i in range(N_CONTRACT_DRAWS):
        z = ref_class_latent(rng, centers, i % D._N_CLASSES)
        contested = i % 2 == 0
        near, far = D._perturb_pair(rng, z, emb_map, contested)
        assert cosdist(z, near) < cosdist(z, far)
        ez = emb_map @ z
        gap = rel_gap(cosdist(ez, emb_map @ near), cosdist(ez, emb_map @ far))
        if contested:
            assert abs(gap) < D._TIE_BAND
        else:
            assert gap >= D._TIE_BAND  # outside the band and frozen-correct


@pytest.mark.parametrize("f, d", [(5, 16), (8, 32)])
def test_instance_triple_contract(f, d):
    emb_map, _ = sampler_inputs(f, d, seed=30 + f)
    rng = np.random.default_rng(f)
    centers = rng.normal(size=(D._N_CLASSES, f))
    for i in range(N_CONTRACT_DRAWS):
        z = ref_class_latent(rng, centers, i % D._N_CLASSES)
        contested = i % 2 == 0
        qry, mate, decoy = D._instance_triple(rng, z, emb_map, contested)
        assert cosdist(qry, mate) < cosdist(qry, decoy)
        eq = emb_map @ qry
        gap = rel_gap(cosdist(eq, emb_map @ mate), cosdist(eq, emb_map @ decoy))
        if contested:
            assert abs(gap) < D._TIE_BAND
        else:
            assert gap >= D._TIE_BAND


@pytest.mark.parametrize(
    "sampler, message",
    [
        (D._perturb_pair, "correctly-ranked perturbation pair"),
        (D._instance_triple, "correctly-ranked instance triple"),
    ],
)
def test_sampler_gives_up_after_max_resample(sampler, message, monkeypatch):
    emb_map, zs = sampler_inputs(8, 16, seed=0)
    monkeypatch.setattr(D, "_MAX_RESAMPLE", 0)
    with pytest.raises(DataError, match=message):
        sampler(np.random.default_rng(0), zs[0], emb_map, True)
