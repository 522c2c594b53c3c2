"""One cold set-up, timed inside a fresh interpreter.

    python3 perfbench/setup_child.py <path to src>

Prints the seconds from before ``import boxqi`` to the loaded box-spline
table and stencil library, the work every boxqi process does first.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from boxqi import boxspline, isosurface, qi, stencils, volume  # noqa: E402,F401

boxspline.get_table()
stencils.library()
print(repr(time.perf_counter() - start))
