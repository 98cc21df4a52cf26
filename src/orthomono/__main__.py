"""`python -m orthomono` runs the command line, like the `orthomono` script."""
import sys

from . import cli

if __name__ == "__main__":
    sys.exit(cli.main())
