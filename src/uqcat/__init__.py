"""Voxelwise uncertainty-category mapping for volumetric segmentation.

Builds voxelwise uncertainty maps around a pluggable segmenter from two
stochastic sources -- repeated inference with channel dropout (model
uncertainty) and repeated inference under randomized input perturbations
(data uncertainty) -- then quantifies how stable and how diverse the
resulting maps are across 14 parameter settings: per-voxel median and
interquartile range, masked spatial-correlation matrices, and mean
non-zero entropy levels.

The package is numpy/scipy only; the built-in segmenter is a tiny
slice-context network with hand-rolled, finite-difference-verified
gradients, so the whole pipeline runs at desk scale on synthetic phantoms.
"""

from .analysis import (
    AnalysisError,
    CorrelationMatrix,
    UndefinedCorrelationError,
    correlation_matrix,
    entropy_support_mask,
    mean_correlation_matrix,
    mean_nonzero_entropy,
    spatial_correlation,
    voxelwise_median_iqr,
)
from .augment import (
    AffineParams,
    BiasFieldParams,
    GhostingParams,
    TransformError,
    TransformSample,
    apply_affine,
    apply_affine_inverse,
    apply_bias,
    apply_ghosting,
    apply_transform,
    bias_field,
    bias_monomials,
    sample_affine,
    sample_bias,
    sample_ghosting,
    sample_transform,
)
from .phantom import PhantomSpec, PlacementError, generate_cohort, generate_phantom
from .predictor import (
    Predictor,
    PredictorError,
    TinySegmenter,
    TrainConfig,
    TrainHistory,
    TrainingDivergedError,
    binary_cross_entropy,
    composite_loss,
    dice_score,
    gradient_check,
    soft_dice_loss,
    train,
)
from .seeding import derive_rng, derive_seed
from .uq import (
    CASES,
    CaseError,
    CaseSpec,
    SampleStack,
    UncertaintyMaps,
    binary_entropy_bits,
    get_case,
    parse_case_selection,
    run_case,
    uncertainty_maps,
)
from .volume import (
    Mask,
    Volume,
    VolumeError,
    VolumeFormatError,
    read_volume,
    threshold_mask,
    write_volume,
)

__version__ = "0.1.0"
