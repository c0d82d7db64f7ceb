"""``python -m holomimo``: the same command line as the ``holomimo`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
