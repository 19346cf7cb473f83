"""Build hook: compile the search kernel extension from its C source.

The package is fully functional without the extension; ajtkit.kernels falls
back to the pure-Python twin at import time. Set AJTKIT_NO_EXT=1 to skip the
build. A failed compile is an error, not a silent fallback.
"""

import os

from setuptools import Extension, setup

ext_modules = []
if os.environ.get("AJTKIT_NO_EXT") != "1":
    ext_modules = [Extension("ajtkit._kernels", sources=["src/ajtkit/_kernels.c"])]

setup(ext_modules=ext_modules)
