"""`python -m fracode`: the same command line as the `fracode` script."""

from fracode.cli import main

if __name__ == "__main__":
    main()
