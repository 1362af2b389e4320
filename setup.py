"""Build script: compiles the optional Cython kernel module.

The package is pure Python plus one optional extension, tracediagrams._speedups,
holding the hot contraction loops.  If the extension cannot be built (no
compiler, no Cython), installation proceeds and the package falls back to the
pure-Python kernels at import time.
"""

from setuptools import setup
from setuptools.command.build_ext import build_ext
from setuptools.errors import CCompilerError, ExecError, PlatformError


class OptionalBuildExt(build_ext):
    """Let the wheel build survive a failed extension compile."""

    def run(self):
        try:
            super().run()
        except (CCompilerError, ExecError, PlatformError, FileNotFoundError):
            print("warning: C extension build failed; "
                  "tracediagrams will use the pure-Python kernels")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except (CCompilerError, ExecError, PlatformError, FileNotFoundError):
            print(f"warning: skipping extension {ext.name}")


def extensions():
    try:
        from Cython.Build import cythonize
    except ImportError:
        return []
    return cythonize(
        ["src/tracediagrams/_speedups.pyx"],
        language_level=3,
    )


setup(
    ext_modules=extensions(),
    cmdclass={"build_ext": OptionalBuildExt},
)
