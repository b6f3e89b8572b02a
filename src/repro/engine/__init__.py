"""repro.engine - the pluggable columnar execution engine.

Public surface:

* :func:`get_backend` / :func:`resolve_backend` - resolve a backend by
  name (``"python"`` | ``"numpy"`` | ``"bitset"``),
  by the ``REPRO_BACKEND`` environment variable, by the process
  default, or automatically (NumPy when available, pure Python
  otherwise).
* :class:`BitsetBackend` / :func:`make_bitset_backend` - the
  bit-parallel packed kernel tier (:mod:`repro.engine.bitset_backend`;
  optional compiled C sweep gated by ``REPRO_BITSET_KERNEL``).
* :func:`set_default_backend` - process-wide default (the benchmark
  CLI's ``--backend`` axis).
* :func:`register_backend` - plug in a new backend implementation.
* :func:`backend_status` / :class:`BackendStatus` - availability
  reporting (registered-but-unavailable backends are distinguishable
  from unknown names, so planners and CLIs can degrade gracefully).
* :class:`Backend` - the kernel contract backends implement.
* :class:`ColumnarStore` - the column-major canonical encoding shared
  by vectorized backends (see ``README.md`` in this package).
* :func:`numpy_available` - dependency probe used for test/CI gating.

See ``src/repro/engine/README.md`` for the design and the backend
authoring guide.
"""

from repro.engine.base import (
    BACKEND_ENV_VAR,
    Backend,
    BackendStatus,
    available_backends,
    backend_status,
    default_backend_name,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend,
    set_default_backend,
)
from repro.engine.bitset_backend import BitsetBackend, make_bitset_backend
from repro.engine.columnar import ColumnarStore, numpy_available
from repro.engine.python_backend import PythonBackend


def _make_numpy_backend() -> Backend:
    from repro.engine.numpy_backend import NumpyBackend

    return NumpyBackend()


register_backend("python", PythonBackend)
register_backend("numpy", _make_numpy_backend)
register_backend("bitset", make_bitset_backend)

__all__ = [
    "BACKEND_ENV_VAR",
    "Backend",
    "BackendStatus",
    "BitsetBackend",
    "ColumnarStore",
    "PythonBackend",
    "available_backends",
    "backend_status",
    "default_backend_name",
    "get_backend",
    "make_bitset_backend",
    "numpy_available",
    "register_backend",
    "registered_backends",
    "resolve_backend",
    "set_default_backend",
]
