"""chdzdt: character-level word encoder for Algerian dialect text.

Subpackages cover the full pipeline: corpus normalization into a labeled
lexicon, joint masked-character + language-label pre-training of a small
transformer word encoder, and an intrinsic/downstream evaluation battery.
"""

import os

# One BLAS thread unless the caller set a count: a matmul summed over a
# host-dependent number of threads rounds differently, so without this a
# checkpoint's bytes depend on the core count. BLAS reads these variables
# when NumPy loads, so a process that imported NumPy before this package
# keeps its own thread count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
