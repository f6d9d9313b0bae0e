"""Fine-tuning: new environments and new tasks (§3-§4).

Two axes, mirroring the paper's experiments:

* **What is trained** — ``decoder_only`` freezes the pre-trained
  embedding/aggregation/encoder and trains just the small decoder
  (Table 2's "Decoder only"); ``full`` trains everything ("Full NTT",
  also used for from-scratch runs).
* **Which task** — ``delay`` keeps the pre-training decoder family;
  ``mct`` swaps in the :class:`~repro.core.decoders.MCTDecoder`
  ("predicting message completion times"), a genuinely new task.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.evaluation import evaluate_delay, evaluate_mct
from repro.core.features import FeaturePipeline
from repro.core.model import NTTConfig, NTTForDelay, NTTForMCT
from repro.core.pretrain import TrainSettings, _delay_forward, make_delay_loaders
from repro.datasets.generation import DatasetBundle
from repro.datasets.windows import WindowDataset
from repro.nn import fastpath
from repro.nn.data import ArrayDataset, DataLoader
from repro.nn.losses import mse_loss
from repro.nn.module import freeze_parameters
from repro.nn.optim import Adam
from repro.nn.schedule import warmup_cosine
from repro.nn.trainer import Trainer, TrainingHistory
from repro.utils.rng import RngFactory

__all__ = [
    "FinetuneResult",
    "FinetuneMode",
    "finetune_delay",
    "finetune_mct",
    "mct_pipeline",
    "train_delay_from_scratch",
    "train_mct_from_scratch",
]


class FinetuneMode:
    """Which parameters fine-tuning updates."""

    DECODER_ONLY = "decoder_only"
    FULL = "full"

    ALL = (DECODER_ONLY, FULL)


@dataclass
class FinetuneResult:
    """Outcome of a fine-tuning (or from-scratch) run."""

    model: object
    history: TrainingHistory
    test_mse: float
    mode: str
    task: str

    @property
    def training_time(self) -> float:
        """Wall-clock training seconds (Table 2/3's "Training time")."""
        return self.history.wall_time

    @property
    def test_mse_scaled(self) -> float:
        """MSE in the paper's ×10⁻³ display convention."""
        return self.test_mse * 1e3


def _select_parameters(model, mode: str):
    if mode == FinetuneMode.DECODER_ONLY:
        return model.decoder.parameters()
    if mode == FinetuneMode.FULL:
        return model.parameters()
    raise ValueError(f"unknown fine-tuning mode {mode!r}; pick from {FinetuneMode.ALL}")


def _freeze_hook(model, mode: str):
    """Keep the frozen encoder's dropout off during decoder-only runs."""
    if mode != FinetuneMode.DECODER_ONLY:
        return None

    def hook():
        model.ntt.eval()

    return hook


def finetune_delay(
    model: NTTForDelay,
    pipeline: FeaturePipeline,
    bundle: DatasetBundle,
    settings: TrainSettings | None = None,
    mode: str = FinetuneMode.DECODER_ONLY,
    verbose: bool = False,
    precision: str = "float64",
) -> FinetuneResult:
    """Fine-tune a (pre-trained) delay model on a new environment.

    The encoder's knowledge transfers; the decoder adapts ("update or
    replace the decoder to adapt NTT to a new environment", §3).

    ``precision="float32"`` casts the model and runs the whole
    fine-tune in float32; the float64 default is bit-compatible with
    the pre-precision-policy behaviour.
    """
    settings = settings if settings is not None else TrainSettings()
    # Unconditional cast: the base model may arrive in either dtype (a
    # float32-pretrained model is float32 in-process but hydrates from
    # the artifact store as float64 with identical values), so pinning
    # it to the declared precision keeps the fine-tune trajectory a
    # function of the cache key alone.
    model.cast_parameters(fastpath.resolve_dtype(precision))
    train_loader, val_loader = make_delay_loaders(pipeline, bundle.train, bundle.val, settings)
    total_steps = max(len(train_loader) * settings.epochs, 2)
    trainer = Trainer(
        model,
        Adam(_select_parameters(model, mode), lr=settings.lr),
        mse_loss,
        forward_fn=_delay_forward,
        grad_clip=settings.grad_clip,
        schedule=warmup_cosine(max(1, int(total_steps * settings.warmup_fraction)), total_steps),
        on_epoch_start=_freeze_hook(model, mode),
        precision=precision,
    )
    history = _fit_with_mode(trainer, model, mode, train_loader, val_loader, settings, verbose)
    with fastpath.precision(precision):
        test_mse = evaluate_delay(model, pipeline, bundle.test)
    return FinetuneResult(model, history, test_mse, mode=mode, task="delay")


def _fit_with_mode(trainer, model, mode, train_loader, val_loader, settings, verbose):
    """Run training; decoder-only mode freezes the encoder so backward
    passes stop at the decoder (the Table 2 compute saving)."""
    if mode == FinetuneMode.DECODER_ONLY:
        with freeze_parameters(model.ntt):
            return trainer.fit(
                train_loader, val_loader, epochs=settings.epochs,
                patience=settings.patience, verbose=verbose,
            )
    return trainer.fit(
        train_loader, val_loader, epochs=settings.epochs,
        patience=settings.patience, verbose=verbose,
    )


def train_delay_from_scratch(
    config: NTTConfig,
    pipeline: FeaturePipeline,
    bundle: DatasetBundle,
    settings: TrainSettings | None = None,
    verbose: bool = False,
    precision: str = "float64",
) -> FinetuneResult:
    """The paper's "from scratch" comparison: a fresh NTT trained only
    on the fine-tuning dataset (full model, no pre-training)."""
    with fastpath.precision(precision):
        model = NTTForDelay(config)
    return finetune_delay(
        model, pipeline, bundle, settings=settings, mode=FinetuneMode.FULL,
        verbose=verbose, precision=precision,
    )


# -- MCT task ------------------------------------------------------------------


def _mct_forward(model, batch):
    features, receiver, size, target = batch
    return model(features, receiver.astype(np.int64), size), target


def make_mct_loaders(
    pipeline: FeaturePipeline,
    train: WindowDataset,
    val: WindowDataset,
    settings: TrainSettings,
) -> tuple[DataLoader, DataLoader]:
    """Loaders of ``(features, receiver, message_size, log_mct_target)``.

    Only windows with completed messages are usable for this task.
    """
    train = train.with_completed_messages_only()
    val = val.with_completed_messages_only()
    rng = RngFactory(settings.seed).derive("mct-loader")
    train_ds = ArrayDataset(
        pipeline.transform_features(train),
        train.receiver,
        pipeline.transform_message_size(train),
        pipeline.transform_mct_target(train),
    )
    val_ds = ArrayDataset(
        pipeline.transform_features(val),
        val.receiver,
        pipeline.transform_message_size(val),
        pipeline.transform_mct_target(val),
    )
    return (
        DataLoader(train_ds, settings.batch_size, shuffle=True, rng=rng, reuse_buffers=True),
        DataLoader(val_ds, max(settings.batch_size, 128), reuse_buffers=True),
    )


def mct_pipeline(pretrained: FeaturePipeline) -> FeaturePipeline:
    """A pipeline for one MCT run: the pre-training feature and
    message-size statistics plus a fresh, unfitted MCT scaler.

    The MCT runs fit that scaler on the first dataset they see, so
    sharing one pipeline across runs would make a stored model depend
    on in-process call order rather than on its cache key alone.
    """
    pipeline = FeaturePipeline()
    pipeline.feature_scaler = pretrained.feature_scaler
    pipeline.message_size_scaler = pretrained.message_size_scaler
    return pipeline


def finetune_mct(
    ntt_model,
    config: NTTConfig,
    pipeline: FeaturePipeline,
    bundle: DatasetBundle,
    settings: TrainSettings | None = None,
    mode: str = FinetuneMode.DECODER_ONLY,
    verbose: bool = False,
    precision: str = "float64",
) -> FinetuneResult:
    """Fine-tune to the *new task* of MCT prediction.

    ``ntt_model`` is either a pre-trained :class:`NTTForDelay` (its
    encoder is reused; the decoder is replaced) or a bare
    :class:`~repro.core.model.NTT`.
    """
    settings = settings if settings is not None else TrainSettings()
    encoder = ntt_model.ntt if isinstance(ntt_model, NTTForDelay) else ntt_model
    with fastpath.precision(precision):
        model = NTTForMCT(config, encoder, seed=settings.seed)
    # Unconditional cast: see finetune_delay — the encoder may arrive in
    # either dtype for the same cache key.
    model.cast_parameters(fastpath.resolve_dtype(precision))
    if not pipeline.mct_scaler.fitted:
        pipeline.fit_mct(bundle.train.with_completed_messages_only())
    train_loader, val_loader = make_mct_loaders(pipeline, bundle.train, bundle.val, settings)
    total_steps = max(len(train_loader) * settings.epochs, 2)
    trainer = Trainer(
        model,
        Adam(_select_parameters(model, mode), lr=settings.lr),
        mse_loss,
        forward_fn=_mct_forward,
        grad_clip=settings.grad_clip,
        schedule=warmup_cosine(max(1, int(total_steps * settings.warmup_fraction)), total_steps),
        on_epoch_start=_freeze_hook(model, mode),
        precision=precision,
    )
    history = _fit_with_mode(trainer, model, mode, train_loader, val_loader, settings, verbose)
    with fastpath.precision(precision):
        test_mse = evaluate_mct(model, pipeline, bundle.test)
    return FinetuneResult(model, history, test_mse, mode=mode, task="mct")


def train_mct_from_scratch(
    config: NTTConfig,
    pipeline: FeaturePipeline,
    bundle: DatasetBundle,
    settings: TrainSettings | None = None,
    verbose: bool = False,
    precision: str = "float64",
) -> FinetuneResult:
    """From-scratch MCT model: fresh encoder + MCT decoder, full training."""
    from repro.core.model import NTT

    with fastpath.precision(precision):
        encoder = NTT(config)
    return finetune_mct(
        encoder, config, pipeline, bundle, settings=settings, mode=FinetuneMode.FULL,
        verbose=verbose, precision=precision,
    )
