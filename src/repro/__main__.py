"""``python -m repro`` entry point: the light command dispatcher."""

import sys

from repro.commands import main

if __name__ == "__main__":
    sys.exit(main())
