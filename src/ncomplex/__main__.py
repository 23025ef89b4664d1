"""`python -m ncomplex`: the same command line as the `ncomplex` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
