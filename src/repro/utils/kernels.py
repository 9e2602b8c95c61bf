"""The packed-kernel registry: marking the word-parallel hot paths.

The repo's performance story rests on a convention: the functions that
touch ``uint64`` bit-planes (gate evaluation, plane algebra, pattern
packing, bank evolution) must stay **word-parallel** — numpy calls over
whole arrays, no Python-level per-element work.  Until now that
convention lived in docstrings; this module makes it declarative:

* decorate a hot-path function with :func:`kernel` and it lands in
  :data:`KERNELS` (a plain :class:`~repro.utils.registry.Registry`
  keyed by dotted name), and
* the static-analysis pass (``repro check``, rule ``kernel-purity``)
  discovers the decorator **syntactically** and rejects Python-level
  loops, ``int()`` scalarization and ``.tolist()`` inside any decorated
  function — see ``docs/static-analysis.md``.

Scalar reference implementations (``*_scalar`` oracles, kept by the
differential suites in ``tests/oracles/``) must *not* be decorated;
the rule enforces that naming convention too.  The decorator itself is an identity function —
registration costs one dict insert at import time and nothing at call
time, so decorating a kernel cannot slow it down.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.utils.registry import Registry

F = TypeVar("F", bound=Callable)

__all__ = ["KERNELS", "kernel"]

#: Every registered packed kernel, keyed by ``module.qualname``.
KERNELS: Registry[Callable] = Registry("packed kernel")


def kernel(func: F) -> F:
    """Register ``func`` as a packed word-parallel kernel.

    Pure identity at call time; the registration makes the function
    discoverable (``KERNELS.names()``) and opts it into the
    ``kernel-purity`` and ``dtype-discipline`` static-analysis rules.
    """
    KERNELS.register(f"{func.__module__}.{func.__qualname__}", func)
    return func
