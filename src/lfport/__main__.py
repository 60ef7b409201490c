"""`python -m lfport ...` runs the `lfport` command line from a checkout
that is not installed.  Importing this module runs nothing."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
