"""Build script: compiles the optional simplex pivot kernel.

The package is fully functional without the extension (a NumPy fallback is
selected at import time), so any compilation problem downgrades the install
to pure Python instead of failing it.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Skip the extension instead of aborting when a compiler is missing."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001
            print(f"warning: skipping compiled kernel ({exc}); using pure-Python fallback")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001
            print(f"warning: could not build {ext.name} ({exc}); using pure-Python fallback")


def extensions():
    # a hand-written C source: the kernel uses the buffer protocol and needs no
    # NumPy headers at build time
    return [Extension(
        "privguess._simplex_c",
        ["src/privguess/_simplex_c.c"],
        # keep float semantics identical to the NumPy fallback (no FMA contraction)
        extra_compile_args=["-O3", "-ffp-contract=off"],
    )]


setup(ext_modules=extensions(), cmdclass={"build_ext": OptionalBuildExt})
