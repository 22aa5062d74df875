"""Fitted, replayable preprocessing: one-hot encoding, min-max scaling, PCA.

The step order is fixed (one-hot -> min-max -> PCA) so each step's input
domain is well-defined. A :class:`FittedPipeline` is immutable after
``fit_pipeline`` and applying it is a pure function of (pipeline, rows).
Out-of-range test values are deliberately not clipped: leaving the training
envelope is signal for anomaly detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .canonical import canonical_float, sha256_hex
from .data import NUMERIC, Dataset, FeatureDescriptor
from .errors import InvalidConfig, SchemaMismatch


@dataclass(frozen=True)
class PipelineConfig:
    use_onehot: bool = True
    use_minmax: bool = True
    use_pca: bool = False
    pca_components: int | None = None


@dataclass(frozen=True)
class FittedPipeline:
    """Fitted step parameters; see module docstring for step semantics.

    ``onehot_categories`` maps feature index -> learned category order for
    encoded features; features absent from the map contribute a single
    numeric column (numeric kind) or are dropped (categorical kind with
    one-hot disabled). ``minmax_params`` is a (2, d_enc) array of per-column
    (min, max). PCA holds the train mean, a (d_in, k) orthonormal projection,
    and per-component explained-variance ratios.
    """

    config: PipelineConfig
    input_descriptors: tuple[FeatureDescriptor, ...]
    onehot_categories: dict = field(default_factory=dict)
    minmax_params: np.ndarray | None = None
    pca_mean: np.ndarray | None = None
    pca_components_matrix: np.ndarray | None = None
    pca_variance_ratios: np.ndarray | None = None
    output_dimension: int = 0

    def parameter_digest(self) -> str:
        """Stable hash of every fitted parameter (not the config)."""
        parts = []
        for idx in sorted(self.onehot_categories):
            parts.append(f"onehot:{idx}:" + "|".join(self.onehot_categories[idx]))
        for arr, tag in ((self.minmax_params, "minmax"),
                         (self.pca_mean, "pca_mean"),
                         (self.pca_components_matrix, "pca_proj"),
                         (self.pca_variance_ratios, "pca_var")):
            if arr is not None:
                parts.append(tag + ":" + ",".join(canonical_float(float(v))
                                                  for v in np.ravel(arr)))
        return sha256_hex("\n".join(parts))

    def players(self) -> tuple[np.ndarray, np.ndarray]:
        """Per output column, its Shapley player and whether it is numeric.

        Each numeric column is one player, each one-hot block is one
        (non-numeric) player, and with PCA each component is one numeric
        player. These are ``Background``'s ``players`` and ``numeric``.
        """
        if self.pca_components_matrix is not None:
            k = self.output_dimension
            return np.arange(k), np.ones(k, dtype=bool)
        features = [(1, True) if desc.kind == NUMERIC
                    else (len(self.onehot_categories[j]), False)
                    for j, desc in enumerate(self.input_descriptors)
                    if desc.kind == NUMERIC or j in self.onehot_categories]
        widths = [width for width, _ in features]
        return (np.repeat(np.arange(len(features)), widths),
                np.repeat([kind for _, kind in features], widths).astype(bool))


def _encode(descriptors: tuple[FeatureDescriptor, ...], onehot_categories: dict,
            features: np.ndarray) -> np.ndarray:
    """Expand raw cells into the post-encoding numeric matrix. A categorical
    feature outside ``onehot_categories`` is dropped; an unseen category
    encodes as an all-zero block."""
    blocks = [np.empty((features.shape[0], 0))]
    for j, desc in enumerate(descriptors):
        if desc.kind == NUMERIC:
            blocks.append(features[:, j, None].astype(np.float64))
        elif j in onehot_categories:
            categories = np.array(onehot_categories[j], dtype=object)
            blocks.append(features[:, j, None] == categories)
    return np.hstack(blocks, dtype=np.float64)


def fit_pipeline(train: Dataset, config: PipelineConfig) -> FittedPipeline:
    """Fit all enabled steps on the training data only.

    One-hot learns categories in first-seen train order; min-max learns
    per-column (min, max) on the encoded matrix; PCA eigendecomposes the
    train covariance, sorts components by descending eigenvalue, and fixes
    each component's sign so its largest-magnitude entry is positive.
    """
    onehot_categories = {j: tuple(dict.fromkeys(train.features[:, j]))
                         for j, desc in enumerate(train.descriptors)
                         if config.use_onehot and desc.kind != NUMERIC}
    matrix = _encode(train.descriptors, onehot_categories, train.features)
    width = matrix.shape[1]
    if width == 0:
        raise InvalidConfig("no input column survives preprocessing; enable use_onehot")

    minmax_params = None
    if config.use_minmax:
        minmax_params = np.vstack([matrix.min(axis=0), matrix.max(axis=0)])
        matrix = _apply_minmax(minmax_params, matrix)

    pca_mean = pca_proj = pca_ratios = None
    out_dim = width
    if config.use_pca:
        k = config.pca_components
        if k is None or k < 1:
            raise InvalidConfig("pca_components must be >= 1 when use_pca is set")
        if k > width:
            raise InvalidConfig(
                f"pca_components={k} exceeds post-encoding dimension {width}")
        pca_mean = matrix.mean(axis=0)
        centered = matrix - pca_mean
        denom = max(matrix.shape[0] - 1, 1)
        cov = (centered.T @ centered) / denom
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(eigvals)[::-1]
        eigvals = np.clip(eigvals[order], 0.0, None)
        eigvecs = eigvecs[:, order]
        # eigenvector sign is arbitrary; pin largest-magnitude entry positive
        for c in range(eigvecs.shape[1]):
            lead = np.argmax(np.abs(eigvecs[:, c]))
            if eigvecs[lead, c] < 0:
                eigvecs[:, c] = -eigvecs[:, c]
        total = eigvals.sum()
        ratios = eigvals / total if total > 0 else np.zeros_like(eigvals)
        pca_proj = np.ascontiguousarray(eigvecs[:, :k])
        pca_ratios = ratios[:k].copy()
        out_dim = k

    return FittedPipeline(
        config=config,
        input_descriptors=train.descriptors,
        onehot_categories=onehot_categories,
        minmax_params=minmax_params,
        pca_mean=pca_mean,
        pca_components_matrix=pca_proj,
        pca_variance_ratios=pca_ratios,
        output_dimension=out_dim,
    )


def _apply_minmax(params: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    lo, hi = params[0], params[1]
    span = hi - lo
    scaled = np.zeros_like(matrix)
    nonconstant = span > 0
    scaled[:, nonconstant] = (matrix[:, nonconstant] - lo[nonconstant]) / span[nonconstant]
    # constant train features map to 0 (0/0 guarded)
    return scaled


def apply_pipeline(pipeline: FittedPipeline, ds: Dataset) -> np.ndarray:
    """Replay the fitted steps on any dataset with matching descriptors."""
    if len(ds.descriptors) != len(pipeline.input_descriptors):
        raise SchemaMismatch("feature count differs from the fitted pipeline")
    for got, want in zip(ds.descriptors, pipeline.input_descriptors):
        if got.name != want.name or got.kind != want.kind:
            raise SchemaMismatch(
                f"feature {got.name!r} ({got.kind}) does not match fitted "
                f"{want.name!r} ({want.kind})")
    matrix = _encode(pipeline.input_descriptors, pipeline.onehot_categories, ds.features)
    if pipeline.minmax_params is not None:
        matrix = _apply_minmax(pipeline.minmax_params, matrix)
    if pipeline.pca_components_matrix is not None:
        matrix = (matrix - pipeline.pca_mean) @ pipeline.pca_components_matrix
    return matrix
