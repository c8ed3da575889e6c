#!/usr/bin/env python
"""PET image reconstruction on the EveryWare work plane (§6).

One of the two applications the paper planned to build next. A synthetic
emission phantom is forward-projected into a sinogram; filtered
backprojection is then submitted as a batch of ``pet.*`` jobs, one chunk
of projection angles each, to the gateway of a small simulated Grid,
with a client killed mid-unit to show the scheduler reaping and
requeueing its work. The distributed reconstruction is compared against
both a serial reconstruction and the phantom.

Run: ``python examples/pet_reconstruction.py``
"""

import numpy as np

from repro.apps.pet import (
    Accumulator,
    forward_project,
    image_correlation,
    make_phantom,
    make_tasks,
    reconstruct_serial,
)
from repro.api import run_sim_batch

SIZE = 64
N_ANGLES = 48


def ascii_image(image, width=48):
    """Coarse ASCII rendering of a nonnegative image."""
    shades = " .:-=+*#%@"
    img = np.asarray(image, dtype=float)
    img = np.clip(img, 0, None)
    step = max(img.shape[0] // 24, 1)
    small = img[::step, ::step]
    hi = small.max() or 1.0
    rows = []
    for row in small:
        rows.append("".join(shades[int(v / hi * (len(shades) - 1))] for v in row))
    return "\n".join(rows)


def main() -> None:
    angles = [float(a) for a in np.linspace(0, 180, N_ANGLES, endpoint=False)]
    phantom = make_phantom(SIZE)
    print("simulating the scanner: forward projecting the phantom "
          f"({N_ANGLES} angles) ...")
    sino = forward_project(phantom, angles)

    tasks = make_tasks(sino, angles, SIZE, chunk=6)
    print(f"submitting {len(tasks)} backprojection jobs to 4 clients "
          "(one dies mid-unit) ...")
    jobs, report = run_sim_batch(tasks, workers=4, kill_worker_at=0.2)
    assert not report["violations"], report["violations"]
    image = Accumulator(SIZE).fold(job.result for job in jobs).image

    serial = reconstruct_serial(sino, angles, SIZE)
    corr_serial = image_correlation(image, serial)
    corr_phantom = image_correlation(image, phantom)

    scheduler = report["gateway"]["scheduler"]
    print(f"\nbatch finished in {report['sim_seconds']:.0f} simulated "
          f"seconds; units requeued after the client's loss: "
          f"{scheduler['units_requeued']} (reaps: {scheduler['reaps']})")
    print(f"per-client jobs: {list(report['workers'].values())}")
    print(f"correlation with serial FBP: {corr_serial:.4f}")
    print(f"correlation with phantom:    {corr_phantom:.3f}")

    print("\nphantom:")
    print(ascii_image(phantom))
    print("\ndistributed reconstruction:")
    print(ascii_image(image))


if __name__ == "__main__":
    main()
