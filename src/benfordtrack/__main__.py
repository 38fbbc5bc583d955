import os

# the package never calls BLAS; without this, numpy's OpenBLAS starts idle
# worker threads that spin on CPU time and sit beside the forked parse child
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
