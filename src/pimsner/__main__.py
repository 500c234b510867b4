"""``python -m pimsner``: the ``pimsner`` command line, also uninstalled."""

import sys

from .cli import main

sys.exit(main())
