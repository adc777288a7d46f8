"""`python -m intervalfp`: the command line the `intervalfp` script runs."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
