"""``python -m chronexp``: the command-line interface of ``chronexp.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
