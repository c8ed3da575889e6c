"""Tests for the PET reconstruction application (the ``pet.*`` kind)."""

import numpy as np
import pytest

from repro.apps.pet import (
    PET_KIND,
    Accumulator,
    backproject,
    execute_task,
    forward_project,
    image_correlation,
    make_phantom,
    make_tasks,
    ramp_filter,
    reconstruct_serial,
    task_cost,
    _rotate,
)
from repro.control import Scenario, run_scenario

SIZE = 48
ANGLES = [float(a) for a in np.linspace(0, 180, 36, endpoint=False)]


@pytest.fixture(scope="module")
def phantom():
    return make_phantom(SIZE)


@pytest.fixture(scope="module")
def sino(phantom):
    return forward_project(phantom, ANGLES)


def test_phantom_structure(phantom):
    assert phantom.shape == (SIZE, SIZE)
    assert phantom.max() == 2.0  # hot spot
    assert phantom.min() == 0.0
    assert (phantom > 0).mean() > 0.2  # body occupies a real area


def test_rotation_identity_and_mass():
    img = make_phantom(32)
    assert np.allclose(_rotate(img, 0.0), img)
    # Rotation approximately preserves total activity (interior mass).
    rotated = _rotate(img, 37.0)
    assert rotated.sum() == pytest.approx(img.sum(), rel=0.05)


def test_rotation_360_roundtrip():
    img = make_phantom(32)
    out = img
    for _ in range(4):
        out = _rotate(out, 90.0)
    assert image_correlation(out, img) > 0.98


def test_projection_mass_conservation(phantom, sino):
    """Every projection integrates to (approximately) the total activity."""
    total = phantom.sum()
    sums = sino.sum(axis=1)
    assert np.allclose(sums, total, rtol=0.05)


def test_ramp_filter_removes_dc():
    row = np.ones(64)
    filtered = ramp_filter(row)
    assert abs(filtered.sum()) < 1e-9


def test_serial_reconstruction_is_faithful(phantom, sino):
    recon = reconstruct_serial(sino, ANGLES, SIZE)
    assert image_correlation(recon, phantom) > 0.85


def test_unfiltered_backprojection_is_blurrier(phantom, sino):
    fbp = reconstruct_serial(sino, ANGLES, SIZE)
    blurry = backproject(sino, ANGLES, SIZE, filtered=False)
    assert image_correlation(fbp, phantom) > image_correlation(blurry, phantom)


def test_tasks_partition_all_angles(sino):
    tasks = make_tasks(sino, ANGLES, SIZE, chunk=8)
    covered = [a for t in tasks for a in t["angles"]]
    assert covered == ANGLES
    assert all(len(t["projections"]) == len(t["angles"]) for t in tasks)
    assert all(t["kind"] == PET_KIND and "id" not in t for t in tasks)
    assert all(task_cost(t) > 0 for t in tasks)


def test_execute_task_matches_direct_backprojection(sino):
    tasks = make_tasks(sino, ANGLES, SIZE, chunk=6)
    task = tasks[2]
    result = execute_task(task)
    direct = backproject(np.asarray(task["projections"]), task["angles"], SIZE)
    assert np.allclose(np.asarray(result["partial"]), direct)


def test_distributed_equals_serial(phantom, sino):
    """The summed partial images of the completed jobs must equal the
    serial FBP up to the per-chunk normalization."""
    tasks = make_tasks(sino, ANGLES, SIZE, chunk=9)
    report = run_scenario(Scenario(specs=tasks, clients=3))
    assert report["violations"] == []
    acc = Accumulator(size=SIZE).fold(report["results"])
    assert acc.chunks == len(tasks)
    # Each chunk normalizes by its own angle count; rescale to compare.
    # chunks have equal size here, so the sum is serial * (n_chunks ... )
    serial = reconstruct_serial(sino, ANGLES, SIZE)
    assert image_correlation(acc.image, serial) > 0.999
    assert image_correlation(acc.image, phantom) > 0.85


def test_distributed_survives_worker_loss(phantom, sino):
    tasks = make_tasks(sino, ANGLES, SIZE, chunk=6)
    # The first client dies holding its first unit; the reap requeues it.
    report = run_scenario(Scenario(specs=tasks, clients=3, victim="client",
                                   fault_at=0.1))
    assert report["violations"] == []
    assert report["gateway"]["scheduler"]["reaps"] == 1
    assert report["gateway"]["work"]["requeued"] == 1
    acc = Accumulator(size=SIZE).fold(report["results"])
    assert image_correlation(acc.image, phantom) > 0.85
