"""``python -m maxlip``: the same command line as the ``maxlip`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
