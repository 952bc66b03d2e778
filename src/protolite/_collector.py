"""Entry points run with CPython's cyclic garbage collector paused.

No phase builds a reference cycle (``tests/test_immutability.py`` counts the
cyclic garbage each phase leaves, and it is 0), so every pass the collector
makes over the trees, images and stores a call allocates frees nothing.
Reference counting frees them all as before; only the scans stop.
"""

import functools
import gc


def collector_paused(fn):
    """Run ``fn`` with automatic collection off, and turn it back on after.

    A caller that has the collector off already keeps it off: nested entry
    points toggle nothing, and a caller's setting is never overridden. The
    toolchain is single-threaded; the flag is process-wide, so this is not
    meant for concurrent callers.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused
