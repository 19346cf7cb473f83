"""Fixtures shared by the kernel and property tests.

When ajtkit._kernels is not built in place, the `compiled` fixture compiles
src/ajtkit/_kernels.c into a temporary directory and imports it from there;
the tests that use it skip only when no C compiler is available.
`witness_twins` runs kernels.first_witness on both backends, and on the pure
one alone when there is no compiler; `twin_witness` routes every
kernels.first_witness call of a test through it.
"""

import importlib.util
import shlex
import shutil
import sysconfig
from pathlib import Path

import pytest

from ajtkit import kernels

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


# kernels.first_witness itself, before twin_witness patches it
FIRST_WITNESS = kernels.first_witness


def _first_witness_on(ext, *args):
    """kernels.first_witness on the backend `ext`, None for the pure one."""
    saved, kernels._ext = kernels._ext, ext
    try:
        return FIRST_WITNESS(*args)
    finally:
        kernels._ext = saved


@pytest.fixture(scope="session")
def witness_twins(request):
    """kernels.first_witness run on the pure backend and on the compiled one,
    which must agree bit for bit, witnesses and units included; the pure
    backend alone when no compiled kernel can be had. Returns the pure
    results."""
    try:
        ext = request.getfixturevalue("compiled")
    except pytest.skip.Exception:
        ext = None

    def both(*args):
        pure = _first_witness_on(None, *args)
        if ext is not None:
            got = _first_witness_on(ext, *args)
            assert [(a.dtype, a.shape, a.tobytes()) for a in got] == [
                (a.dtype, a.shape, a.tobytes()) for a in pure
            ]
        return pure

    return both


@pytest.fixture
def twin_witness(witness_twins, monkeypatch):
    """kernels.first_witness with every call run by witness_twins. Returns
    the list of the calls' results, as the pure backend gives them."""
    calls = []

    def record(*args):
        calls.append(witness_twins(*args))
        return calls[-1]

    monkeypatch.setattr(kernels, "first_witness", record)
    return calls
