"""Wall-clock timing corrected for the machine's own speed swings.

On a shared 2-vCPU virtual machine the same pure-Python loop takes
anywhere from 28 to 50 ms from one 5 s window to the next, and process
CPU time swings just as much, so raw timings of identical work spread by
tens of percent between runs. A fixed reference snippet is timed
immediately before and after each measured stretch, and the stretch's
time is scaled by ``REFERENCE_S[kind] / reference time``: the result
reads as the time the work would take while the reference runs at its
nominal speed. The reference never runs program code, so a change to the
program moves scaled and raw times alike.

Interpreter-bound work (walking Python lists, per-call overhead on small
arrays) slows down far more in a slow spell than vectorised NumPy work
on large arrays does, so there are two references and each workload uses
the one matching the work that dominates it.
"""

from __future__ import annotations

import time

import numpy as np

_IDS = list(range(2000))
_SMALL = np.arange(16.0)
_VALUES = np.random.default_rng(0).random(32768)

# Typical duration of each reference on a 2-vCPU shared virtual machine in a fast spell.
REFERENCE_S = {"python": 0.004, "numpy": 0.0035}


def _python_reference() -> None:
    # Walks over a 2000-int list, as prefix checks do, and NumPy calls on
    # 16-element arrays, whose cost is per-call overhead.
    for _ in range(6):
        ids = [int(t) for t in _IDS]
        for t in ids:
            if not 0 <= t < 5000:
                raise AssertionError(t)
    for _ in range(150):
        values = np.asarray(_SMALL, dtype=np.float64)
        if not np.isfinite(values).all():
            raise AssertionError(values)
        probs = np.exp(values - values.max())
        probs /= probs.sum()
        np.cumsum(probs)


def _numpy_reference() -> None:
    np.argsort(-_VALUES, kind="stable")
    np.exp(_VALUES)


_REFERENCES = {"python": _python_reference, "numpy": _numpy_reference}


def reference(kind: str) -> float:
    """Seconds taken by one run of the ``kind`` reference snippet."""
    snippet = _REFERENCES[kind]
    start = time.perf_counter()
    snippet()
    return time.perf_counter() - start


class Clock:
    """Context manager timing one stretch of work, raw and scaled.

    ``factor`` converts any raw duration measured inside the stretch to
    reference speed, so per-call times within it can be scaled too.
    """

    def __init__(self, kind: str):
        self.kind = kind

    def __enter__(self) -> "Clock":
        self._before = reference(self.kind)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.raw = time.perf_counter() - self._start
        after = reference(self.kind)
        self.factor = REFERENCE_S[self.kind] / ((self._before + after) / 2)
        self.seconds = self.raw * self.factor
