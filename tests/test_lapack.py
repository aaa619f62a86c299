"""The loader of scipy's compiled modules: the module file loaded alone, and
``scipy.linalg`` after or before it, or the fallback to ``scipy.linalg.lapack``
and ``scipy.linalg.expm``, give the same routines and the same bits."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bosecool import _lapack

# Each probe runs in a fresh process: SETUP brings the loader and scipy.linalg in
# the order under test, then the bits of dstevd and dgtsv on small inputs, of a
# Fock sector sweep and of a spectrum solve are printed in hex.
SETUP = {
    "file": "module = flapack()",
    "file-then-scipy": "module = flapack(); import scipy.linalg",
    "scipy-then-file": "import scipy.linalg; module = flapack()",
    "fallback": "_lapack._module_file = lambda leaf: None; module = flapack()",
}

PROBE = """
import sys
import numpy as np
from bosecool import _lapack, fock, spectrum
from bosecool._lapack import flapack
{setup}
d = np.array([0.0, 0.3, 0.6, 0.9])
e = np.array([0.5, 0.7, 0.2])
w, v, info = module.dstevd(d, e)
*_, x, info2 = module.dgtsv(e.copy(), d + 2.0, e[::-1].copy(), np.arange(4.0))
assert info == info2 == 0
h = fock.build_hamiltonian(p=2, chi=1.0, omega0=1.0, omega1=0.5, cutoff=fock.FockCutoff(6, 6))
sectors = [s.evals.tobytes() + s.evecs.tobytes() for s in h._sweep()]
g = spectrum.solve_stationarity(spectrum.SpectrumProblem(g0=0.5, gN=9.0, n_modes=12)).g
print((w.tobytes() + v.tobytes() + x.tobytes() + b"".join(sectors) + g.tobytes()).hex())
if "scipy.linalg" in sys.modules:
    import scipy.linalg.lapack as L
    assert flapack() is sys.modules["scipy.linalg._flapack"] is L._flapack
    assert module.dstevd is L.dstevd and module.dgtsv is L.dgtsv
print(module.__name__, sorted(m for m in sys.modules if m.startswith("scipy.linalg.")))
"""


# The same for the Padé kernels of expm: after EXPM_SETUP, the bits of the
# driver on stacks at three scales (the suite's 1e-4, 1 and 30, which squares),
# of a weak passive and of a near-optimal suite run are printed.  Wherever
# scipy.linalg is loaded, its expm must use the registered kernels.
EXPM_SETUP = {
    "file": "",
    "file-then-scipy": "_lapack._load('_matfuncs_expm'); import scipy.linalg",
    "scipy-then-file": "import scipy.linalg",
    "fallback": "_lapack._module_file = lambda leaf: None",
}

EXPM_PROBE = """
import sys
import numpy as np
from bosecool import _lapack, suites
{setup}
x = np.random.default_rng(5).standard_normal((3, 40, 2, 3, 3))
a = x[:, :, 0] + 1j * x[:, :, 1]
h = (a + a.conj().swapaxes(-1, -2)) / 2
bits = [_lapack.expm(1j * eps * hs).tobytes() for eps, hs in zip((1e-4, 1.0, 30.0), h)]
u = suites._small_passive(x[0], 1e-4)
print((b"".join(bits) + u.C.tobytes() + u.S.tobytes()).hex())
print(repr(suites.near_optimal_dissipation_suite(60, 4)))
kernels = sys.modules["scipy.linalg._matfuncs_expm"]
if "scipy.linalg" in sys.modules:
    import scipy.linalg._matfuncs as M
    assert M.pick_pade_structure is kernels.pick_pade_structure
    assert M.pade_UV_calc is kernels.pade_UV_calc
print(sorted(m for m in sys.modules if m.startswith("scipy.linalg.")))
"""


def _probe(setup: str, probe: str = PROBE) -> list[str]:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", probe.format(setup=setup)], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


@pytest.fixture(scope="module")
def reference():
    bits, loaded = _probe(SETUP["file"])
    assert loaded == "scipy.linalg._flapack ['scipy.linalg._flapack']"
    return bits


@pytest.mark.parametrize("order", ["file-then-scipy", "scipy-then-file"])
def test_either_import_order_shares_one_module(order, reference):
    bits, loaded = _probe(SETUP[order])
    assert bits == reference
    assert loaded.startswith("scipy.linalg._flapack [") and "'scipy.linalg.lapack'" in loaded


def test_fallback_without_module_file(reference):
    bits, loaded = _probe(SETUP["fallback"])
    assert bits == reference
    assert loaded.startswith("scipy.linalg.lapack [")


@pytest.fixture(scope="module")
def expm_reference():
    *bits, loaded = _probe(EXPM_SETUP["file"], EXPM_PROBE)
    assert loaded == "['scipy.linalg._matfuncs_expm']"
    return bits


@pytest.mark.parametrize("order", ["file-then-scipy", "scipy-then-file", "fallback"])
def test_expm_kernels_shared_in_every_order(order, expm_reference):
    *bits, loaded = _probe(EXPM_SETUP[order], EXPM_PROBE)
    assert bits == expm_reference
    assert "'scipy.linalg._matfuncs'" in loaded


# In process: the driver against scipy.linalg.expm itself, on the suite's
# Hermitian stacks and on the diagonal and triangular slices it branches on.


def _hermitian_stack(seed: int, count: int = 200, n: int = 3) -> np.ndarray:
    x = np.random.default_rng(seed).standard_normal((2, count, n, n))
    a = x[0] + 1j * x[1]
    h = (a + a.conj().swapaxes(-1, -2)) / 2
    return h / np.linalg.norm(h, axis=(-2, -1))[:, None, None]


@pytest.mark.parametrize("eps", [1e-4, 1.0, 30.0])
def test_expm_equals_scipy_on_hermitian_stacks(eps):
    from scipy.linalg import expm

    a = 1j * eps * _hermitian_stack(int(eps * 10) + 1)
    assert np.array_equal(_lapack.expm(a), expm(a))


def test_expm_equals_scipy_on_diagonal_and_triangular_slices():
    from scipy.linalg import expm

    rng = np.random.default_rng(8)
    full = 1j * _hermitian_stack(9, count=2, n=4)
    diagonal = np.diag(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    upper = 8.0 * np.triu(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    lower = upper.T.copy()
    a = np.stack([full[0], diagonal, upper, lower, full[1]])
    assert np.array_equal(_lapack.expm(a), expm(a))
    assert np.array_equal(_lapack.expm(upper.real[None]), expm(upper.real[None]))
