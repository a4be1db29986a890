"""Console entry point: `fairlens ...` and `python -m fairlens ...`.

BLAS is pinned to one thread before numpy loads. The thread count changes
how the MLP matrix products round, and with it the bundle bytes, so a run
is only reproducible across machines at a fixed count. Worker processes
under --jobs inherit the setting.
"""

import os
import sys


def main() -> int:
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    from fairlens.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
