"""Keeping Python's cyclic garbage collector out of set-up.

Building a system and bootstrapping it allocate hundreds of thousands of
long-lived container objects (at N = 10⁵ an ``RLock``, ``Generator``,
``PCG64`` and seed sequence per peer and agent stream) and free no cycles.
Left on, the collector walks them again and again as they pile up — ten
full collections at N = 10⁵, freeing nothing.

:func:`collector_paused` turns it off for such a phase, then hands what the
phase allocated straight to the oldest generation (``gc.freeze()`` +
``gc.unfreeze()``, two list splices), so no young pass after the phase
walks it either.  Handed-over objects skip the count CPython keys full
collections on, so :func:`collect_if_due` keeps that count for them; the
registry calls it before each build, while the heap holds no new system.
The collector is process-wide, and so is this count.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["collect_if_due", "collector_paused"]

#: Objects handed to the oldest generation since :func:`collect_if_due` last
#: collected, and the tracked objects that collection left.
_handed = 0
_survivors = 0


@contextmanager
def collector_paused() -> Iterator[None]:
    """Disable the cyclic collector for the block; restore its prior state.

    Nests, and never enables a collector the caller had disabled.  The
    handover is skipped while anything is frozen: ``gc.unfreeze()`` would
    release the caller's frozen objects too.
    """
    global _handed
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            if not gc.get_freeze_count():
                _handed += gc.get_count()[0]
                gc.freeze()
                gc.unfreeze()
            gc.enable()


def collect_if_due() -> None:
    """Run the full collection CPython would owe the handed-over objects.

    CPython starts one once the objects promoted to the oldest generation
    since the last full collection exceed a quarter of what that collection
    left.  Without this, systems dropped between builds keep their cycles
    until some later full collection, and a process that builds many keeps
    many.
    """
    global _handed, _survivors
    if gc.isenabled() and _handed > _survivors // 4:
        gc.collect()
        _handed = 0
        _survivors = len(gc.get_objects())
