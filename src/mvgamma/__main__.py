"""``python -m mvgamma``: the same driver as the ``mvgamma`` console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
