"""Peak heap growth of one call, as tracemalloc sees it (numpy reports its
array buffers to tracemalloc, so this covers temporaries and results)."""

import tracemalloc


def peak_bytes(fn, *args, **kwargs):
    """Run ``fn`` and return ``(result, peak bytes allocated above the start)``."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak
