"""``python -m repro`` and the ``repro`` console script."""

import gc
import sys

from repro.cli import main


def run() -> int:
    """:func:`main`, then freeze the heap: the process's last collection skips it."""
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(run())
