import os

# One BLAS thread, set before numpy loads: the matrices here are small, and
# on a shared box extra BLAS threads slow the timed acceptance criteria.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

try:
    import threadpoolctl

    threadpoolctl.threadpool_limits(1)
except ImportError:
    pass
