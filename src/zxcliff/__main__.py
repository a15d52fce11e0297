"""``python -m zxcliff``: the command-line front end, `cli.main`."""

import sys

from .cli import main

sys.exit(main())
