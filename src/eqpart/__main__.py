"""python -m eqpart runs the command line, as the eqpart script does."""

from eqpart.cli import main

main()
