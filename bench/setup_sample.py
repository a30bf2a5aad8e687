"""One set-up sample: a fresh interpreter imports mroot, parses metric files.

Usage: python bench/setup_sample.py FILE...

The caller times the whole process from outside.  The last line of
stdout is the time spent parsing, in milliseconds, so that the parse
layer can be reported next to the import layer (``-X importtime``).
"""

import sys
import time

import mroot

t0 = time.perf_counter()
for path in sys.argv[1:]:
    mroot.parse_metric_file(path)
print(f"{(time.perf_counter() - t0) * 1e3:.6f}")
