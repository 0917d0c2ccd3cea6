"""Print the seconds from a spawn time to `import weaklabel` being done.

Usage: python3 import_time.py <time.monotonic() taken just before the spawn>
(the monotonic clock is shared by every process on the host).
"""

import sys
import time

import weaklabel  # noqa: F401  (the import is what is timed)

print(repr(time.monotonic() - float(sys.argv[1])))
