from setuptools import Extension, setup

# optional=True: without a working C compiler the build warns and the package
# runs on the pure-Python kernels in isolab._pykernels.
setup(ext_modules=[Extension("isolab._core", ["src/isolab/_core.c"], optional=True)])
