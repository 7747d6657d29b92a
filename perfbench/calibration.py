"""A fixed numpy and Python kernel that measures how fast the machine runs.

The benchmark runs on shared machines whose speed drifts by tens of percent
over minutes.  The worker times this kernel on its main thread before the
first repetition and after every one, and the launcher rescales the timings
of work that runs on one thread, as the kernel does, to the speed of a
machine on which the kernel takes REF_S.  The kernel mixes the kinds of work
mimo-lab does (a batched einsum, small complex solves, a QR and an
interpreted loop), so its time follows the workloads' when the machine slows
down.  It calls numpy and the interpreter only, never mimo-lab, so a change
to the program cannot move it.
"""

import time

import numpy as np

REF_S = 0.07  # seconds the kernel takes on the reference machine


class Kernel:
    """Builds its inputs once, from a fixed seed; each call returns seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        self.left, self.right = cplx(64, 24, 40), cplx(64, 40, 24)
        grams = [cplx(n, n) for n in (20, 40, 80)]
        self.systems = [(g @ g.conj().T + n * np.eye(n), cplx(n, 4))
                        for g, n in zip(grams, (20, 40, 80))]
        self.tall = cplx(200, 10)
        self()  # the first call pays lazy start-up

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(4):
            np.einsum("tij,tjk->tik", self.left, self.right)
            for _ in range(20):
                for a, b in self.systems:
                    np.linalg.solve(a, b)
                np.linalg.qr(self.tall)
            buckets = {}
            for j in range(20000):
                buckets[j % 97] = buckets.get(j % 97, 0) + j * 0.5
        return time.perf_counter() - start
