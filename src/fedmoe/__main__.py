"""``python -m fedmoe``: the same entry point as the ``fedmoe`` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
