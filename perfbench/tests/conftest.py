import sys

from perfbench.run import SRC

# The tests import rankcert from this checkout's sources, as the benchmark's
# child processes do.
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
