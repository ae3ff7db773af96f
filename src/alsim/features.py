"""Distances over feature views and PCA compression.

Selection operates in a fused metric: a nonnegative-weighted sum of
per-view cosine distances. With unit vectors a_v, b_v (a zero vector stays
zero) and Lambda = sum_v lam_v,

    sum_v lam_v * (1 - a_v . b_v) = Lambda - E_a . E_b,

where E concatenates the blocks sqrt(lam_v) * a_v, so ``FusedCosineMetric``
embeds records once and takes distances as one matrix product. Views can
optionally be PCA-compressed before they are embedded. ``Coverage`` holds
greedy k-center state over the rows of one embedding, indexed by row.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .records import InstanceRecord, ViewSpec

__all__ = [
    "cosine_distance",
    "fused_distance",
    "FusedCosineMetric",
    "fold_min_distances",
    "Coverage",
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
        refused = [v.name for v in views if not 0 <= v.lam < math.inf]
        if refused:
            raise ValueError(f"view weights must be finite and >= 0; negative or non-finite for {refused}")
        self.views = tuple(views)
        self.total = sum(v.lam for v in self.views)
        if abs(self.total - 1.0) > 1e-9:
            logger.warning("view weights sum to %.12g, not 1; using them as configured", self.total)

    def embed(self, records: Sequence[InstanceRecord]) -> np.ndarray:
        """One row per record: each view's unit vector (zero stays zero)
        times sqrt(lam_v), concatenated; shape (len(records), sum of dims)."""
        return self.embed_views(
            [np.array([r.features[v.name] for r in records], dtype=np.float64).reshape(len(records), v.dim)
             for v in self.views]
        )

    def embed_views(self, matrices: Sequence[np.ndarray]) -> np.ndarray:
        """``embed`` of one matrix per view, in ``views`` order, of any width
        (PCA). Each view's block is written in place into one ``E``, so the
        only temporaries are the row norms."""
        E = np.empty((len(matrices[0]), sum(X.shape[1] for X in matrices)))
        col = 0
        for v, X in zip(self.views, matrices, strict=True):
            block = E[:, col : col + X.shape[1]]
            col += X.shape[1]
            norms = np.linalg.norm(X, axis=1, keepdims=True)
            np.divide(X, np.where(norms == 0.0, 1.0, norms), out=block)
            block *= np.sqrt(v.lam)
        return E

    def between(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Fused distances between the rows of two embeddings, shape (len(A), len(B))."""
        D = A @ B.T
        # In place: one len(A) x len(B) matrix, not two.
        return np.subtract(self.total, D, out=D)

    def pairwise(self, xs: Sequence[InstanceRecord], zs: Sequence[InstanceRecord]) -> np.ndarray:
        """Fused distances between two record sequences, shape (len(xs), len(zs))."""
        return self.between(self.embed(xs), self.embed(zs))


# Distances per tile in ``fold_min_distances``: 2**17 float64s, 1 MiB,
# so a tile stays in a core's L2 cache between the product and the
# minimum. At most this many distances exist at once, whatever the sizes.
FOLD_CELLS = 1 << 17


def fold_min_distances(metric, E: np.ndarray, R: np.ndarray, mins: np.ndarray) -> np.ndarray:
    """Lower ``mins`` in place to each row of ``E``'s minimum distance to
    the rows of ``R`` and return it.

    ``metric.between`` is taken tile by tile, over ``cols`` rows of ``R``
    and ``FOLD_CELLS // cols`` rows of ``E``, so no call sees more than
    ``FOLD_CELLS`` distances. The tile minima of one reference block go
    into one vector, which lowers ``mins`` once per block. A one-row
    ``R`` (the greedy pick loop) is one call for up to ``FOLD_CELLS``
    rows of ``E``.
    """
    cols = max(1, min(len(R), FOLD_CELLS))
    rows = max(1, FOLD_CELLS // cols)
    best = np.empty(len(E))
    for c in range(0, len(R), cols):
        for a in range(0, len(E), rows):
            metric.between(E[a : a + rows], R[c : c + cols]).min(axis=1, out=best[a : a + rows])
        np.minimum(mins, best, out=mins)
    return mins


class Coverage:
    """Greedy k-center state over the rows of one embedding ``E``: ``mins``,
    each row's minimum distance to the ``folded`` rows (a mask; inf before
    any fold). A campaign embeds its dataset's per-view matrices, so a row
    is a dataset row, and keeps one coverage per set of views for its
    strategy and its covering-radius curve to share. A fold goes through
    ``fold_min_distances``, so it holds at most ``FOLD_CELLS`` distances at
    once, besides ``E`` and ``mins``, whatever the number of rows."""

    def __init__(self, metric, E: np.ndarray):
        self.metric = metric
        self.E = E
        self.mins = np.full(len(E), np.inf)
        self.folded = np.zeros(len(E), dtype=bool)

    def fold(self, rows) -> np.ndarray:
        """Fold the ``rows`` of ``E`` not folded yet, in order; return ``mins``."""
        rows = np.asarray(rows, dtype=np.intp)
        new = rows[~self.folded[rows]]
        self.folded[new] = True
        return fold_min_distances(self.metric, self.E, self.E[new], self.mins)

    def radius(self) -> float:
        """The k-center objective: the largest ``mins`` of an unfolded row,
        clamped at 0, so 0 once every row is folded."""
        return float(self.mins.max(initial=0.0, where=~self.folded))


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


def compress_views(matrices: Sequence[np.ndarray], var_keep: float) -> list[np.ndarray]:
    """PCA-compress each view's (instances, dim) feature matrix.

    Fits one model per matrix and returns that matrix projected, one
    (instances, k_v) matrix per view in the given order, ready for
    ``FusedCosineMetric.embed_views``. Each view keeps as many components
    as its variance cutoff needs.
    """
    return [pca_transform(pca_fit(X, var_keep), X) for X in matrices]
