"""Entry point for ``python -m tdxmodel``: runs the CLI and exits with its code."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
