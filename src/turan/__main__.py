"""``python -m turan``: the command-line front end (see :mod:`turan.cli`)."""

import sys

from .cli import main

sys.exit(main())
