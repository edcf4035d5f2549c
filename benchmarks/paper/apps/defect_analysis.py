"""Real-time defect analysis (Section 5.4 / Table 2 of the paper).

A transmission electron microscope produces images that are dispatched,
through the federated FaaS substrate, to an HPC node where a segmentation
model quantifies radiation-induced defects.  The paper's model is a
machine-learned segmenter; communication behaviour — which is what ProxyStore
changes — only depends on the ~1 MB images and the (small) segmentation
outputs, so this reproduction uses a classical blob-detection pipeline
(thresholding, smoothing, connected components) implemented with NumPy/SciPy.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy import ndimage

from repro.proxy import Proxy

__all__ = [
    'DefectAnalysisResult',
    'generate_micrograph',
    'segment_defects',
    'defect_inference_task',
]


@dataclass
class DefectAnalysisResult:
    """Summary statistics produced by the segmentation model."""

    n_defects: int
    defect_area_fraction: float
    mean_defect_area_px: float
    centroids: list[tuple[float, float]]

    def summary(self) -> dict[str, Any]:
        return {
            'n_defects': self.n_defects,
            'defect_area_fraction': self.defect_area_fraction,
            'mean_defect_area_px': self.mean_defect_area_px,
        }


def generate_micrograph(
    *,
    side: int = 1024,
    n_defects: int = 25,
    noise_level: float = 0.05,
    seed: int = 0,
) -> np.ndarray:
    """Create a synthetic micrograph with bright, blob-shaped defects.

    A ``1024 x 1024`` float32 image is ~4 MB raw and ~1 MB of information
    content, matching the 1 MB images used in the paper's test deployment
    (the benchmark uses a side of 512 to hit ~1 MB serialized).
    """
    rng = np.random.default_rng(seed)
    image = rng.normal(0.2, noise_level, size=(side, side)).astype(np.float32)
    ys = rng.integers(0, side, size=n_defects)
    xs = rng.integers(0, side, size=n_defects)
    radii = rng.integers(max(3, side // 120), max(7, side // 50), size=n_defects)
    yy, xx = np.mgrid[0:side, 0:side]
    for y, x, r in zip(ys, xs, radii):
        mask = (yy - int(y)) ** 2 + (xx - int(x)) ** 2 <= int(r) ** 2
        image[mask] += 0.8
    return np.clip(image, 0.0, 1.5)


def segment_defects(image: np.ndarray, *, threshold: float = 0.6) -> DefectAnalysisResult:
    """Identify defects: smooth, threshold, and label connected components."""
    if image.ndim != 2:
        raise ValueError('expected a 2-D micrograph')
    smoothed = ndimage.gaussian_filter(np.asarray(image, dtype=np.float32), sigma=2.0)
    binary = smoothed > threshold
    labels, n_defects = ndimage.label(binary)
    if n_defects == 0:
        return DefectAnalysisResult(0, 0.0, 0.0, [])
    areas = ndimage.sum_labels(binary, labels, index=range(1, n_defects + 1))
    centroids = ndimage.center_of_mass(binary, labels, index=range(1, n_defects + 1))
    return DefectAnalysisResult(
        n_defects=int(n_defects),
        defect_area_fraction=float(binary.mean()),
        mean_defect_area_px=float(np.mean(areas)),
        centroids=[(float(y), float(x)) for y, x in centroids],
    )


def defect_inference_task(image: Any, *, proxy_output_store: str | None = None, ctx=None) -> Any:
    """The FaaS task executed on the HPC node.

    Args:
        image: the micrograph, or a proxy of it (the whole point of Table 2).
        proxy_output_store: name of a registered store; when provided, the
            result is returned as a proxy from that store (the
            "Inputs/Outputs" rows of Table 2).  A name rather than a Store
            instance is used because task payloads are serialized and Store
            instances hold live connections.
        ctx: task context injected by the compute endpoint; used to charge the
            proxy's transfer cost to virtual time.
    """
    if ctx is not None and isinstance(image, Proxy):
        ctx.resolve_proxy(image)
    result = segment_defects(np.asarray(image))
    if ctx is not None:
        # GPU inference time for a ~1 MB micrograph (order of what the paper's
        # segmentation model takes on an A100).
        ctx.sleep(0.15)
    if proxy_output_store is not None:
        from repro.store import get_store

        store = get_store(proxy_output_store)
        if store is None:
            raise ValueError(
                f'no store named {proxy_output_store!r} is registered in the '
                'task execution process',
            )
        return store.proxy(result, cache_local=False)
    return result
