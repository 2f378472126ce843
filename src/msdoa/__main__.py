"""``python -m msdoa``: the command-line harness of :mod:`msdoa.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
