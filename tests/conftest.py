"""Fixtures shared by the kernel and property tests.

When ajtkit._kernels is not built in place, the `compiled` fixture compiles
src/ajtkit/_kernels.c into a temporary directory and imports it from there;
the tests that use it skip only when no C compiler is available.
`witness_twins` runs a first_witness call on both twins, which take the
same arguments and return the same bytearrays, and on the pure one alone
when there is no compiler; `twin_witness` runs the arguments of every
kernels.first_witness call of a test through it.
"""

import importlib.util
import shlex
import shutil
import sysconfig
from pathlib import Path

import pytest

from ajtkit import _kernels_py, kernels

SOURCE = Path(__file__).resolve().parents[1] / "src" / "ajtkit" / "_kernels.c"


def _build_kernel(build_dir):
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    dist = Distribution(
        {"name": "ajtkit-kernel", "ext_modules": [Extension("_kernels", [str(SOURCE)])]}
    )
    cmd = build_ext(dist)
    cmd.build_lib = str(build_dir / "lib")
    cmd.build_temp = str(build_dir / "tmp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location(
        "_kernels", cmd.get_ext_fullpath("_kernels")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    try:
        from ajtkit import _kernels

        return _kernels
    except ImportError:
        pass
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc}) to build the compiled kernel")
    return _build_kernel(tmp_path_factory.mktemp("kernel-build"))


@pytest.fixture(scope="session")
def witness_twins(request):
    """The pure first_witness and the compiled one run on the same
    arguments, which must return equal bytearrays, witnesses and units
    included; the pure twin alone when no compiled kernel can be had.
    Returns the pure twin's (found, witness, units)."""
    try:
        ext = request.getfixturevalue("compiled")
    except pytest.skip.Exception:
        ext = None

    def both(*args):
        pure = _kernels_py.first_witness(*args)
        if ext is not None:
            assert ext.first_witness(*args) == pure
        return pure

    return both


@pytest.fixture
def twin_witness(witness_twins, monkeypatch):
    """kernels.first_witness with the arguments of every call also run by
    witness_twins. Returns the list of the calls' results."""
    calls, search = [], kernels.first_witness

    def record(*args):
        witness_twins(*args)
        calls.append(search(*args))
        return calls[-1]

    monkeypatch.setattr(kernels, "first_witness", record)
    return calls
