"""``python -m agectl``: the command-line front end without the console script."""
import sys

from .cli import main

sys.exit(main())
