"""Perceptual alignment of embedding spaces on similarity triplets.

Fine-tunes low-rank adapters over frozen feature backbones using a triplet
hinge on cosine distances, then evaluates the resulting spaces on instance
retrieval, kNN counting, dense linear probes, retrieval-augmented prompting,
and linear classification probes.
"""

from .alignment import (
    AdamState,
    AlignmentConfig,
    adam_step,
    alignment_loss,
    batch_loss_and_grads,
    cosine_distance,
    mean_alignment_loss,
    train_alignment,
    two_afc_accuracy,
)
from .backbone import (
    FeatureMode,
    LoraAdapter,
    StoreBackbone,
    ToyEncoder,
    ToyEncoderBackbone,
    ToyEncoderConfig,
    ToyEncoderParams,
    load_adapters,
    lora_effective_weight,
    save_adapters,
)
from .data import (
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
from .dense import (
    DenseTarget,
    DepthBinning,
    DepthHead,
    HeadHyper,
    SegHead,
    depth_decode,
    depth_encode,
    eval_depth,
    eval_seg,
    jaccard_loss,
    load_target,
    save_target,
    silog_loss,
    train_linear_head,
)
from .errors import DataError, FormatError, PalignError
from .retrieval import (
    CosineIndex,
    CountDataset,
    ProbeConfig,
    ProbeResult,
    PromptBundle,
    RecallReport,
    build_index,
    evaluate_rag,
    knn_count_eval,
    linear_probe_classify,
    majority_label_oracle,
    query_topk,
    recall_at_k,
    select_rag_examples,
)

__version__ = "0.1.0"
