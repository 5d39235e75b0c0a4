"""Allow `python -m nilsurf ...` as an alias for the console script."""

import sys

from .cli import main

sys.exit(main())
