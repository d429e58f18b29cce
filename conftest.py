"""Pin BLAS to one thread for the test process, before numpy loads.

Idle OpenBLAS worker threads spin for a while after each product, and their
CPU time counts toward the process clock.  perfbench's meter test busy-waits
on that clock and counts SIGPROF probes, so spinning threads starve it of
probes.  perfbench/run.py pins its runs the same way.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
