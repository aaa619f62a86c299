"""scipy's compiled LAPACK module, loaded without the ``scipy.linalg`` package.

``fock`` calls ``dstevd`` and ``spectrum`` calls ``dgtsv``.  Both live in the
extension module ``scipy.linalg._flapack``, which needs only numpy; importing
``scipy.linalg`` to reach them costs several times the time and memory of
the file alone.  ``flapack`` loads that file directly, without running
``scipy/__init__``, and registers it in ``sys.modules`` under its own name.
A later ``import scipy.linalg`` in the same process reuses the registered
module, and a module it has already registered is returned as it is, so in
either import order the routines are the very objects that
``scipy.linalg.lapack`` exports.  Where the file is not found,
``scipy.linalg.lapack`` itself is returned.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path


def _module_file() -> Path | None:
    """The installed ``scipy/linalg/_flapack`` extension file, found without importing scipy."""
    for root in importlib.util.find_spec("scipy").submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = Path(root, "linalg", "_flapack" + suffix)
            if path.is_file():
                return path
    return None


def flapack():
    """The module holding scipy's LAPACK wrappers (``dstevd``, ``dgtsv``, ...)."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    path = _module_file()
    if path is None:
        from scipy.linalg import lapack

        return lapack
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
