"""The SIMD features numpy dispatches to on this CPU.

``NPY_DISABLE_CPU_FEATURES`` set to these names makes numpy take its baseline
loops. Only entries of ``__cpu_dispatch__`` that this CPU enables are listed,
never a baseline feature, which numpy refuses to disable. numpy 2.x groups
them as ``X86_V3``/``X86_V4``; numpy 1.24 lists ``AVX2``, ``AVX512F`` and so on.

Run as a script, it prints the names space-separated:

    NPY_DISABLE_CPU_FEATURES="$(python tests/cpu_features.py)" python -m pytest ...
"""

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath


def enabled_dispatch_features() -> list[str]:
    """The dispatched features this CPU enables, in numpy's order."""
    enabled = _multiarray_umath.__cpu_features__
    return [name for name in _multiarray_umath.__cpu_dispatch__ if enabled.get(name)]


if __name__ == "__main__":
    print(" ".join(enabled_dispatch_features()))
