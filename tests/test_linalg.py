"""The BLAS and LAPACK routines bound by drbem1d._linalg without scipy.linalg's init."""

import importlib
import importlib.machinery
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.linalg

import drbem1d
from drbem1d import _linalg, assembly, reference, stepping
from drbem1d.assembly import Grid
from drbem1d.problems import make_fisher, make_generalized_fn
from drbem1d.reference import assemble_interpolation
from drbem1d.stepping import StepConfig, run
from drbem1d.verification import fd_oracle

BLAS_ROUTINES = ("dgbmv", "dtbsv")
LAPACK_ROUTINES = ("dpttrf", "dpttrs", "dgbtrf", "dgbtrs", "dgetrf", "dgetrs")


def run_python(code, *args):
    """Run `code` in a fresh interpreter that imports drbem1d from this tree."""
    package_root = str(Path(drbem1d.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=120, check=True)


def routine_outputs(blas, lapack, data):
    """Every output of the eight routines on the arrays in `data`, by routine name."""
    n, band, x, y = data["n"], data["band"], data["x"], data["y"]
    gb = np.zeros((4, n))  # dgbtrf's layout for kl = ku = 1: a fill-in row, then the band
    gb[1:] = band[1:]
    lu, piv, info = lapack.dgbtrf(gb, 1, 1)
    d, e, pt_info = lapack.dpttrf(data["diag"], data["off"])
    dense_lu, dense_piv, dense_info = lapack.dgetrf(data["dense"])
    return {
        "dgbmv": [blas.dgbmv(n, n, 1, 2, 0.75, band, x),
                  blas.dgbmv(n, n, 1, 2, -1.5, band, x, beta=0.5, y=y.copy(), trans=1)],
        "dtbsv": [blas.dtbsv(2, band[:3], x.copy()),
                  blas.dtbsv(1, band[2:], x.copy(), lower=1, diag=1)],
        "dpttrf": [d, e, pt_info],
        "dpttrs": list(lapack.dpttrs(d, e, y)),
        "dgbtrf": [lu, piv, info],
        "dgbtrs": [*lapack.dgbtrs(lu, 1, 1, x, piv), *lapack.dgbtrs(lu, 1, 1, y, piv, trans=1)],
        "dgetrf": [dense_lu, dense_piv, dense_info],
        "dgetrs": [*lapack.dgetrs(dense_lu, dense_piv, x),
                   *lapack.dgetrs(dense_lu, dense_piv, y, trans=1)],
    }


def random_inputs(n=17, seed=0):
    rng = np.random.default_rng(seed)
    band = rng.uniform(-1.0, 1.0, (4, n))
    band[2] += 4.0  # a diagonally dominant main diagonal in row ku = 2
    diag = rng.uniform(3.0, 5.0, n)
    return {"n": n, "band": band, "x": rng.uniform(-1.0, 1.0, n), "y": rng.uniform(-1.0, 1.0, n),
            "diag": diag, "off": rng.uniform(-1.0, 1.0, n - 1),
            "dense": rng.uniform(-1.0, 1.0, (n, n)) + n * np.eye(n)}


def test_importing_the_package_and_cli_leaves_scipy_linalg_unloaded():
    proc = run_python("import sys, drbem1d, drbem1d.cli\n"
                      "print('scipy.linalg' in sys.modules, drbem1d._linalg.blas.__name__,\n"
                      "      drbem1d._linalg.lapack.__name__)")
    assert proc.stdout.split() == ["False", "scipy.linalg._fblas", "scipy.linalg._flapack"]


def test_bound_routines_give_scipy_linalg_bits(tmp_path):
    # the routines as a fresh process binds them, before scipy.linalg's init,
    # against scipy.linalg.blas's and lapack's of the same names here
    inputs, outputs = tmp_path / "inputs.npz", tmp_path / "outputs.npz"
    data = random_inputs()
    np.savez(inputs, **data)
    run_python("import sys\nimport numpy as np\n"
               + inspect.getsource(routine_outputs)
               + "from drbem1d import _linalg\n"
               "assert 'scipy.linalg' not in sys.modules\n"
               "data = dict(np.load(sys.argv[1]))\n"
               "result = routine_outputs(_linalg.blas, _linalg.lapack, data)\n"
               "np.savez(sys.argv[2], **{f'{name}.{i}': np.asarray(value) for name, values\n"
               "                        in result.items() for i, value in enumerate(values)})\n",
               str(inputs), str(outputs))
    got = np.load(outputs)
    want = routine_outputs(scipy.linalg.blas, scipy.linalg.lapack, data)
    assert sorted(want) == sorted(BLAS_ROUTINES + LAPACK_ROUTINES)
    for name, values in want.items():
        for i, value in enumerate(values):
            value = np.asarray(value)
            bound = got[f"{name}.{i}"]
            assert (bound.dtype, bound.shape) == (value.dtype, value.shape), (name, i)
            assert bound.tobytes() == value.tobytes(), (name, i)
    # in one process both names reach the same routine objects
    for bound, module, names in ((_linalg.blas, scipy.linalg.blas, BLAS_ROUTINES),
                                 (_linalg.lapack, scipy.linalg.lapack, LAPACK_ROUTINES)):
        assert all(getattr(bound, name) is getattr(module, name) for name in names)


def solver_outputs():
    """States and passes of run and fd_oracle on the band and the dpttrf path,
    and the dense Phi's getrf factors."""
    grid, cfg = Grid.uniform(-1.0, 1.0, 33), StepConfig(tau=0.01)
    outputs = []
    for problem in (make_generalized_fn(1.0), make_fisher(a=-1.0, b=1.0)):
        for solver in (run, fd_oracle):
            traj = solver(problem, grid, cfg, 0.1)
            outputs += [traj.states[-1].u.tobytes(), traj.level_iterations]
    outputs.append(assemble_interpolation(grid).factorization[0].tobytes())
    return outputs


def test_fallback_binds_scipy_linalg_and_keeps_every_bit(monkeypatch):
    direct = solver_outputs()

    def refuse(*args, **kwargs):
        raise ImportError("extension loader unavailable")

    monkeypatch.setattr(importlib.machinery, "ExtensionFileLoader", refuse)
    for name in ("scipy.linalg._fblas", "scipy.linalg._flapack"):
        monkeypatch.delitem(sys.modules, name)
    try:
        importlib.reload(_linalg)
        assert _linalg.blas is scipy.linalg.blas and _linalg.lapack is scipy.linalg.lapack
        # the names each module bound from _linalg when it was imported
        for module, name in ((assembly, "blas"), (assembly, "lapack"), (stepping, "blas"),
                             (stepping, "lapack"), (reference, "lapack")):
            monkeypatch.setattr(module, name, getattr(_linalg, name))
        assert solver_outputs() == direct
    finally:
        monkeypatch.undo()
        importlib.reload(_linalg)
    assert _linalg.blas.__name__ == "scipy.linalg._fblas"
