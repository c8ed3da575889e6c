"""PET image reconstruction on EveryWare (§6, delivered).

The paper's future work names "an image reconstruction tool called
Positron Emission Tomography (PET)" as a planned EveryWare application
with coupled master/slave data parallelism. This module implements it as
the ``pet.*`` app kind:

* a synthetic emission phantom is forward-projected into a sinogram
  (the "scanner data");
* reconstruction is filtered backprojection, data-parallel over
  projection angles: each job backprojects a chunk of angles;
* :class:`Accumulator` sums the completed jobs' partial images in submit
  order; fidelity is measured as correlation against the phantom.

All math is real (numpy FFT ramp filter, bilinear rotation); the Grid
part — journaled distribution, reap-driven reissue, charging at each
host's delivered speed, result distrust — is the one work plane.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ..core.services.kinds import MeteredEngine, ResultCheckError, register_kind

__all__ = [
    "make_phantom",
    "forward_project",
    "ramp_filter",
    "backproject",
    "reconstruct_serial",
    "make_tasks",
    "execute_task",
    "task_cost",
    "image_correlation",
]

PET_KIND = "pet.backproject"  # stamped on every job; registered as pet.*

#: Per-job bound on angles x size^2, as the §3.1 re-execution runs on
#: the gateway's event loop (the example's jobs are 6 x 64^2 = 24,576).
MAX_PIXEL_ROWS = 1 << 20


def make_phantom(size: int = 64) -> np.ndarray:
    """A simple emission phantom: a few elliptical hot/cold regions."""
    y, x = np.mgrid[-1 : 1 : size * 1j, -1 : 1 : size * 1j]
    image = np.zeros((size, size))
    # (cx, cy, rx, ry, intensity)
    for cx, cy, rx, ry, val in [
        (0.0, 0.0, 0.72, 0.9, 1.0),  # body
        (-0.25, 0.2, 0.18, 0.3, 1.5),  # hot lesion
        (0.3, -0.1, 0.22, 0.2, 0.4),  # cold region
        (0.1, 0.45, 0.1, 0.1, 2.0),  # small hot spot
    ]:
        mask = ((x - cx) / rx) ** 2 + ((y - cy) / ry) ** 2 <= 1.0
        image[mask] = val
    return image


def _rotate(image: np.ndarray, angle_deg: float) -> np.ndarray:
    """Bilinear rotation about the center (no scipy dependency here, so
    workers stay numpy-pure and wire-serializable)."""
    size = image.shape[0]
    theta = math.radians(angle_deg)
    c, s = math.cos(theta), math.sin(theta)
    center = (size - 1) / 2.0
    ys, xs = np.mgrid[0:size, 0:size].astype(float)
    xs -= center
    ys -= center
    src_x = c * xs + s * ys + center
    src_y = -s * xs + c * ys + center
    x0 = np.floor(src_x).astype(int)
    y0 = np.floor(src_y).astype(int)
    fx = src_x - x0
    fy = src_y - y0
    out = np.zeros_like(image)
    valid = (x0 >= 0) & (x0 < size - 1) & (y0 >= 0) & (y0 < size - 1)
    x0v, y0v = x0[valid], y0[valid]
    fxv, fyv = fx[valid], fy[valid]
    out[valid] = (
        image[y0v, x0v] * (1 - fxv) * (1 - fyv)
        + image[y0v, x0v + 1] * fxv * (1 - fyv)
        + image[y0v + 1, x0v] * (1 - fxv) * fyv
        + image[y0v + 1, x0v + 1] * fxv * fyv
    )
    return out


def forward_project(image: np.ndarray, angles: list[float]) -> np.ndarray:
    """Sinogram: one line-integral projection per angle (rows)."""
    return np.stack([_rotate(image, -a).sum(axis=0) for a in angles])


def ramp_filter(projection: np.ndarray) -> np.ndarray:
    """Frequency-domain ramp filter (the 'filtered' in FBP)."""
    n = projection.shape[-1]
    freqs = np.fft.fftfreq(n)
    return np.real(np.fft.ifft(np.fft.fft(projection) * np.abs(freqs)))


def backproject(
    projections: np.ndarray, angles: list[float], size: int, filtered: bool = True
) -> np.ndarray:
    """Smear each (filtered) projection back across the image plane."""
    image = np.zeros((size, size))
    for row, angle in zip(projections, angles):
        if filtered:
            row = ramp_filter(row)
        smear = np.tile(row, (size, 1))
        image += _rotate(smear, angle)
    return image * (math.pi / (2 * max(len(angles), 1)))


def reconstruct_serial(sinogram: np.ndarray, angles: list[float], size: int) -> np.ndarray:
    """Reference single-machine FBP reconstruction."""
    return backproject(sinogram, angles, size, filtered=True)


# -- the pet.* kind ---------------------------------------------------------


def make_tasks(sinogram: np.ndarray, angles: list[float], size: int,
               chunk: int = 8) -> list[dict]:
    """One job spec per chunk of projection angles; projections ride in
    the spec (JSON-safe lists), partial images come back."""
    tasks = []
    for i in range(0, len(angles), chunk):
        tasks.append({
            "kind": PET_KIND,
            "size": size,
            "angles": [float(a) for a in angles[i : i + chunk]],
            "projections": [list(map(float, row))
                            for row in sinogram[i : i + chunk]],
        })
    return tasks


def validate_task(task: dict) -> None:
    """Raise ValueError for a spec no client can backproject."""
    try:
        shape = np.asarray(task["projections"], dtype=float).shape
        want = (len([float(a) for a in task["angles"]]), int(task["size"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad pet task: {exc!r}") from exc
    if shape != want or want[1] < 1:
        raise ValueError("pet task needs one size-long projection per angle")
    if want[0] * want[1] * want[1] > MAX_PIXEL_ROWS:
        raise ValueError(f"pet task over the per-job bound "
                         f"(angles * size^2 <= {MAX_PIXEL_ROWS})")


def execute_task(task: dict) -> dict:
    """Backproject this chunk (what a client's engine runs)."""
    projections = np.asarray(task["projections"], dtype=float)
    partial = backproject(projections, task["angles"], int(task["size"]))
    return {"partial": [list(map(float, row)) for row in partial]}


def task_cost(task: dict) -> float:
    """Priced like the kernels: ~size^2 ops per angle row rotation."""
    size = int(task["size"])
    return 20.0 * size * size * len(task["angles"])


def check_task_result(task: dict, result: Optional[dict]) -> None:
    """§3.1: recompute the partial image and distrust one that differs.
    A spec no client can backproject is never recomputed: its one honest
    result is the client's refusal (DESIGN §13)."""
    try:
        validate_task(task)
    except ValueError:
        if isinstance(result, dict) and "error" in result:
            return
        raise ResultCheckError("an image for a spec no client can run")
    try:
        partial = np.asarray(result["partial"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ResultCheckError(f"unreadable partial image: {exc!r}") from exc
    expected = np.asarray(execute_task(task)["partial"])
    if partial.shape != expected.shape or not np.allclose(partial, expected):
        raise ResultCheckError("partial image differs from a re-execution")


register_kind(
    "pet.*",
    validate=validate_task,
    engine_factory=functools.partial(MeteredEngine, execute_task, task_cost),
    check_result=check_task_result,
    description="PET filtered backprojection, one chunk of angles per job",
    replace=True,
)


@dataclass
class Accumulator:
    """Sum the partial images of completed jobs, folded in submit order."""

    size: int
    image: Optional[np.ndarray] = None
    chunks: int = 0

    def fold(self, results: Iterable[dict]) -> "Accumulator":
        for result in results:
            partial = np.asarray(result["partial"], dtype=float)
            self.image = (partial if self.image is None
                          else self.image + partial)
            self.chunks += 1
        return self


def image_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation between two images (reconstruction fidelity)."""
    af = a.ravel() - a.mean()
    bf = b.ravel() - b.mean()
    denom = np.linalg.norm(af) * np.linalg.norm(bf)
    if denom == 0:
        return 0.0
    return float(af @ bf / denom)
