"""Make the benchmark modules and the library sources importable in tests.

Run from the repository root: ``python -m pytest e2ebench``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (HERE, os.path.join(os.path.dirname(HERE), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
