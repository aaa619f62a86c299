"""The LAPACK loader: the module file loaded alone, and ``scipy.linalg`` after or
before it, or the fallback to ``scipy.linalg.lapack``, give the same routines."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

# Each probe runs in a fresh process: SETUP brings the loader and scipy.linalg in
# the order under test, then the bits of dstevd and dgtsv on small inputs, of a
# Fock sector sweep and of a spectrum solve are printed in hex.
SETUP = {
    "file": "module = flapack()",
    "file-then-scipy": "module = flapack(); import scipy.linalg",
    "scipy-then-file": "import scipy.linalg; module = flapack()",
    "fallback": "_lapack._module_file = lambda: None; module = flapack()",
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


def _probe(setup: str) -> list[str]:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", PROBE.format(setup=setup)], env=env,
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
