"""scipy's compiled LAPACK and ``expm`` modules, loaded without the ``scipy.linalg`` package.

``fock`` calls ``dstevd``, ``spectrum`` calls ``dgtsv`` and ``dstebz``, and
``suites`` calls ``expm``.  The routines live in two extension modules,
``scipy.linalg._flapack`` and ``scipy.linalg._matfuncs_expm`` (the Padé
kernels of ``scipy.linalg.expm``), which need only numpy; importing
``scipy.linalg`` to reach them costs several times the time and memory of
the files alone.  ``_load`` loads such a file directly, without running
``scipy/__init__`` or ``scipy/linalg/__init__``, and registers it in
``sys.modules`` under its own name.  A later ``import scipy.linalg`` in the
same process reuses the registered module, and a module it has already
registered is returned as it is, so in either import order the routines are
the very objects that ``scipy.linalg`` uses.  Where a file is not found,
``flapack`` returns ``scipy.linalg.lapack`` and ``expm`` calls
``scipy.linalg.expm``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import numpy as np


def _module_file(leaf: str) -> Path | None:
    """The installed ``scipy/linalg/<leaf>`` extension file, found without importing scipy."""
    for root in importlib.util.find_spec("scipy").submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = Path(root, "linalg", leaf + suffix)
            if path.is_file():
                return path
    return None


def _load(leaf: str):
    """The module ``scipy.linalg.<leaf>``, loaded from its file and registered
    once per process; None where the file is not found."""
    name = "scipy.linalg." + leaf
    if name in sys.modules:
        return sys.modules[name]
    path = _module_file(leaf)
    if path is None:
        return None
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def flapack():
    """The module holding scipy's LAPACK wrappers (``dstevd``, ``dgtsv``, ...)."""
    module = _load("_flapack")
    if module is None:
        from scipy.linalg import lapack

        return lapack
    return module


def expm(a: np.ndarray) -> np.ndarray:
    """``scipy.linalg.expm`` of a (T, n, n) float or complex stack, slice by slice, with its bits.

    This is scipy's own driver (Al-Mohy & Higham 2009) on its compiled Padé
    kernels: a diagonal slice is the exponential of its diagonal, any other
    goes through ``pick_pade_structure`` and ``pade_UV_calc`` on one (5, n, n)
    work buffer and is squared s times.  A triangular slice that is not
    diagonal, which scipy squares by another recurrence, is handed to
    ``scipy.linalg.expm``.
    """
    kernels = _load("_matfuncs_expm")
    if kernels is None:
        from scipy.linalg import expm

        return expm(a)
    a = np.asarray(a)
    # Bandwidths once for the stack: a per-slice test costs more than the slice.
    lower = np.tril(a, -1).any(axis=(-2, -1)).tolist()
    upper = np.triu(a, 1).any(axis=(-2, -1)).tolist()
    out = np.empty_like(a)
    work = np.empty((5, *a.shape[-2:]), dtype=a.dtype)
    for k, (below, above) in enumerate(zip(lower, upper)):
        if not (below or above):
            out[k] = np.diag(np.exp(np.diag(a[k])))
            continue
        if not (below and above):
            from scipy.linalg import expm

            out[k] = expm(a[k])
            continue
        work[0] = a[k]
        m, s = kernels.pick_pade_structure(work)
        if m < 0:
            raise MemoryError(f"expm could not allocate its Pade structure (error code {m})")
        info = kernels.pade_UV_calc(work, m)
        if info != 0:
            if info <= -11:
                raise MemoryError(f"expm could not allocate its workspace (error code {info})")
            raise RuntimeError(f"expm got an internal LAPACK error (error code {info})")
        e = work[0]
        for _ in range(s):
            e = e @ e
        out[k] = e
    return out
