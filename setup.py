"""Build script: compiles the optional search kernel from the tracked C.

``_kernel.c`` is a hand-written CPython extension, so building needs only
a C compiler.  The extension is optional: without a working compiler the
build still succeeds and the package uses its pure-Python kernel.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "domchrom._kernel",
            ["src/domchrom/_kernel.c"],
            extra_compile_args=["-O2"],
            optional=True,
        )
    ]
)
