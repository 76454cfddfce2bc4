"""Desk-scale self-supervised conformer training on logmel audio.

A from-scratch reverse-mode autodiff core drives a conformer encoder through
masked contrastive pretraining and a full supervised fine-tuning recipe
(jitter / time-mask / mixup augmentation, consistency regularization,
pooling heads, staged schedules), with mAP/accuracy evaluation and bit-exact
checkpointing. Everything runs on numpy at laptop scale.
"""

from .data import (
    Checkpoint,
    Manifest,
    ManifestRecord,
    generate_synthetic_dataset,
    load_checkpoint,
    read_manifest,
    read_wav,
    restore_model,
    save_checkpoint,
    write_manifest,
    write_wav,
)
from .dsp import LogmelSpectrogram, Waveform, logmel, mel_filterbank
from .errors import (
    ConfigError,
    DataError,
    GraphError,
    MelformerError,
    NumericError,
    ShapeError,
    StorageError,
)
from .finetune import (
    FinetuneConfig,
    LabeledExample,
    balance_weights,
    bce_loss,
    consistency_loss,
    evaluate_model,
    finetune_step,
    linear_softmax_pool,
    make_head,
    mixup_batch,
    run_finetuning,
    temporal_jitter,
    three_stage_lr,
    time_mask_augment,
)
from .metrics import EvalReport, accuracy, average_precision, mean_average_precision
from .model import (
    ConformerModel,
    ModelConfig,
    apply_mask,
    param_count,
    sample_mask,
    time_stack,
)
from .pretrain import (
    Adam,
    PretrainConfig,
    contrastive_loss,
    pretrain_lr,
    pretrain_step,
    run_pretraining,
    sample_distractors,
)
from .tensor import Tensor, backward, grad_check, no_grad, parameter

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "Checkpoint",
    "ConfigError",
    "ConformerModel",
    "DataError",
    "EvalReport",
    "FinetuneConfig",
    "GraphError",
    "LabeledExample",
    "LogmelSpectrogram",
    "Manifest",
    "ManifestRecord",
    "MelformerError",
    "ModelConfig",
    "NumericError",
    "PretrainConfig",
    "ShapeError",
    "StorageError",
    "Tensor",
    "Waveform",
    "accuracy",
    "apply_mask",
    "average_precision",
    "backward",
    "balance_weights",
    "bce_loss",
    "consistency_loss",
    "contrastive_loss",
    "evaluate_model",
    "finetune_step",
    "generate_synthetic_dataset",
    "grad_check",
    "linear_softmax_pool",
    "load_checkpoint",
    "logmel",
    "make_head",
    "mean_average_precision",
    "mel_filterbank",
    "mixup_batch",
    "no_grad",
    "param_count",
    "parameter",
    "pretrain_lr",
    "pretrain_step",
    "read_manifest",
    "read_wav",
    "restore_model",
    "run_finetuning",
    "run_pretraining",
    "sample_distractors",
    "sample_mask",
    "save_checkpoint",
    "temporal_jitter",
    "three_stage_lr",
    "time_mask_augment",
    "time_stack",
    "write_manifest",
    "write_wav",
]
