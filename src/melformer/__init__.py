"""Desk-scale self-supervised conformer training on logmel audio.

A from-scratch reverse-mode autodiff core drives a conformer encoder through
masked contrastive pretraining and a full supervised fine-tuning recipe
(jitter / time-mask / mixup augmentation, consistency regularization,
pooling heads, staged schedules), with mAP/accuracy evaluation and bit-exact
checkpointing. Everything runs on numpy at laptop scale.

The package root holds the names the demos import; everything else is
imported from its module (``melformer.data``, ``melformer.errors``, ...).
"""

from .data import generate_synthetic_dataset, read_wav
from .dsp import Waveform, logmel, mel_filterbank
from .finetune import (
    FinetuneConfig,
    balance_weights,
    consistency_loss,
    linear_softmax_pool,
    make_head,
    mixup_batch,
    run_finetuning,
    temporal_jitter,
    three_stage_lr,
    time_mask_augment,
)
from .model import ConformerModel, ModelConfig, apply_mask, param_count, sample_mask
from .pretrain import Adam, PretrainConfig, pretrain_lr, pretrain_step
from .tensor import Tensor, backward, grad_check, parameter

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "ConformerModel",
    "FinetuneConfig",
    "ModelConfig",
    "PretrainConfig",
    "Tensor",
    "Waveform",
    "apply_mask",
    "backward",
    "balance_weights",
    "consistency_loss",
    "generate_synthetic_dataset",
    "grad_check",
    "linear_softmax_pool",
    "logmel",
    "make_head",
    "mel_filterbank",
    "mixup_batch",
    "param_count",
    "parameter",
    "pretrain_lr",
    "pretrain_step",
    "read_wav",
    "run_finetuning",
    "sample_mask",
    "temporal_jitter",
    "three_stage_lr",
    "time_mask_augment",
]
