"""`python -m exprk`: the command-line harness of exprk.cli."""

import sys

from .cli import main

sys.exit(main())
