"""`python -m permdec ARGS` runs the permdec command line."""

import sys

from .cli import main

sys.exit(main())
