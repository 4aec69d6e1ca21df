"""``python -m qmink``: the ``qmink`` command line, exiting with its code."""

import sys

from .cli import main

sys.exit(main())
