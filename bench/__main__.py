"""``python -m bench <command>`` — see ``bench/README.md``."""

import time

# Taken before any other import: ``setup_s`` counts from here.
_STARTED_AT = time.perf_counter()

import sys  # noqa: E402

from bench.run import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], _STARTED_AT))
