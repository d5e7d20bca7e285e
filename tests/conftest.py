"""Pin the BLAS and OpenMP thread counts before numpy and scipy load.

SLSQP runs its LAPACK and BLAS calls through scipy's OpenBLAS, and the
iterates it takes can differ with the thread count.  The exponent goldens
hold only at the count they were recorded at, two threads; at one thread
they change, and the memoryless-dominance check of acceptance criterion 04
misses its 1e-5 margin.  The variables are assigned, not defaulted, so an
inherited setting cannot move them.  OpenBLAS caps the count at the number
of processors, so a single-core machine still runs these checks at one.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "2"
