"""Pin the BLAS and OpenMP thread counts before numpy and scipy load.

SLSQP runs its LAPACK and BLAS calls through scipy's OpenBLAS, and the
iterates it takes can differ with the thread count.  The exponent goldens
hold only at the count they were recorded at, one thread, which is also
what the benchmark runs at and what any machine can give.  The variables
are assigned, not defaulted, so an inherited setting cannot move them.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
