"""Distances over feature views and PCA compression.

Selection operates in a fused metric: a nonnegative-weighted sum of
per-view cosine distances. With unit vectors a_v, b_v (a zero vector stays
zero) and Lambda = sum_v lam_v,

    sum_v lam_v * (1 - a_v . b_v) = Lambda - E_a . E_b,

where E concatenates the blocks sqrt(lam_v) * a_v, so ``FusedCosineMetric``
embeds records once and takes distances as one matrix product. Views can
optionally be PCA-compressed before distances are taken.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .records import InstanceRecord, ViewSpec

__all__ = [
    "cosine_distance",
    "fused_distance",
    "FusedCosineMetric",
    "fold_min_distances",
    "PcaModel",
    "pca_fit",
    "pca_transform",
    "compress_views",
]

logger = logging.getLogger(__name__)


def cosine_distance(u, v) -> float:
    """Cosine distance 1 - u.v / (|u||v|), in [0, 2].

    A zero-norm vector carries no direction; distances against it are
    defined as 1 so fused sums stay total.

    Raises:
        ValueError: on dimension mismatch.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 1.0
    sim = float(np.dot(u, v)) / (nu * nv)
    sim = max(-1.0, min(1.0, sim))
    return 1.0 - sim


def fused_distance(a: InstanceRecord, b: InstanceRecord, views: Sequence[ViewSpec]) -> float:
    """Weighted sum of per-view cosine distances between two instances.

    Raises:
        ValueError: if either record is missing one of the views.
    """
    total = 0.0
    for v in views:
        fa = a.features.get(v.name)
        fb = b.features.get(v.name)
        if fa is None or fb is None:
            missing = a.instance_id if fa is None else b.instance_id
            raise ValueError(f"instance {missing}: missing feature view {v.name!r}")
        total += v.lam * cosine_distance(fa, fb)
    return total


class FusedCosineMetric:
    """Fused-cosine distance: ``embed`` records once, then ``between``
    two embeddings is one matrix product (see the module docstring).

    Weights are used exactly as configured; a warning is logged when they
    do not sum to 1 since the reference configuration is normalized.
    """

    def __init__(self, views: Sequence[ViewSpec]):
        if not views:
            raise ValueError("metric needs at least one view")
        negative = [v.name for v in views if v.lam < 0]
        if negative:
            raise ValueError(f"view weights must be >= 0; negative for {negative}")
        self.views = tuple(views)
        self.total = sum(v.lam for v in self.views)
        if abs(self.total - 1.0) > 1e-9:
            logger.warning("view weights sum to %.12g, not 1; using them as configured", self.total)

    def embed(self, records: Sequence[InstanceRecord]) -> np.ndarray:
        """One row per record: each view's unit vector (zero stays zero)
        times sqrt(lam_v), concatenated; shape (len(records), sum of dims)."""
        blocks = []
        for v in self.views:
            X = np.array([r.features[v.name] for r in records], dtype=np.float64).reshape(len(records), v.dim)
            norms = np.linalg.norm(X, axis=1, keepdims=True)
            blocks.append(np.sqrt(v.lam) * (X / np.where(norms == 0.0, 1.0, norms)))
        return np.hstack(blocks)

    def between(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Fused distances between the rows of two embeddings, shape (len(A), len(B))."""
        D = A @ B.T
        # In place: one len(A) x len(B) matrix, not two.
        return np.subtract(self.total, D, out=D)

    def pairwise(self, xs: Sequence[InstanceRecord], zs: Sequence[InstanceRecord]) -> np.ndarray:
        """Fused distances between two record sequences, shape (len(xs), len(zs))."""
        return self.between(self.embed(xs), self.embed(zs))


# Reference rows per distance block in ``fold_min_distances``: at most
# len(E) x FOLD_BLOCK distances exist at once, whatever the reference size.
FOLD_BLOCK = 1024


def fold_min_distances(metric, E: np.ndarray, R: np.ndarray, mins: np.ndarray) -> np.ndarray:
    """Lower ``mins`` in place to each row of ``E``'s minimum distance to
    the rows of ``R`` and return it.

    ``metric.between`` is taken over ``FOLD_BLOCK`` rows of ``R`` at a
    time, so the minimum over a large reference set never needs the whole
    len(E) x len(R) matrix.
    """
    for start in range(0, len(R), FOLD_BLOCK):
        np.minimum(mins, metric.between(E, R[start : start + FOLD_BLOCK]).min(axis=1), out=mins)
    return mins


@dataclass(frozen=True)
class PcaModel:
    """Fitted principal components: row-orthonormal basis plus mean."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance_ratio: np.ndarray

    @property
    def k(self) -> int:
        return self.components.shape[0]


def pca_fit(X, var_keep: float) -> PcaModel:
    """Fit PCA keeping the smallest component count whose cumulative
    explained-variance ratio reaches ``var_keep``.

    Components follow a deterministic sign convention: the coefficient of
    largest magnitude in each component is positive.

    Raises:
        ValueError: for fewer than 2 rows, ``var_keep`` outside (0, 1],
            or data with zero variance.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    n, dim = X.shape
    if n < 2:
        raise ValueError(f"PCA needs at least 2 rows, got {n}")
    if not 0.0 < var_keep <= 1.0:
        raise ValueError(f"var_keep must be in (0, 1], got {var_keep}")

    mean = X.mean(axis=0)
    Xc = X - mean
    _, s, Vt = np.linalg.svd(Xc, full_matrices=False)

    scale = float(np.abs(X).max()) or 1.0
    tol = max(n, dim) * np.finfo(np.float64).eps * scale
    if s.size == 0 or s[0] <= tol:
        raise ValueError("zero variance: all rows are identical")

    variances = s**2
    ratio = variances / variances.sum()
    cumulative = np.cumsum(ratio)
    k = int(np.searchsorted(cumulative, var_keep - 1e-12) + 1)
    k = min(k, len(ratio))

    components = Vt[:k].copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0

    return PcaModel(mean=mean, components=components, explained_variance_ratio=ratio[:k].copy())


def pca_transform(m: PcaModel, X) -> np.ndarray:
    """Project rows of X onto the fitted components: (X - mean) @ C.T.

    Raises:
        ValueError: if X's column count differs from the fit dimension.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if X.shape[1] != m.mean.shape[0]:
        raise ValueError(f"dimension mismatch: fit dim {m.mean.shape[0]}, got {X.shape[1]}")
    return (X - m.mean) @ m.components.T


def compress_views(
    records: Sequence[InstanceRecord], views: Sequence[ViewSpec], var_keep: float
) -> list[InstanceRecord]:
    """PCA-compress each view over all given records jointly.

    Fits one model per view on the stacked feature matrix of ``records``,
    projects that matrix in one call and returns copies of the records
    carrying the compressed vectors. Distances taken afterwards live in
    the compressed space.
    """
    projected = {}
    for v in views:
        X = np.stack([r.features[v.name] for r in records])
        projected[v.name] = pca_transform(pca_fit(X, var_keep), X)
    out = []
    for i, r in enumerate(records):
        feats = dict(r.features)
        for name, Z in projected.items():
            feats[name] = Z[i]
        out.append(replace(r, features=feats))
    return out
