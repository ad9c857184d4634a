"""``python -m proxflow``: the proxflow command line."""

from .cli import entry

if __name__ == "__main__":
    entry()
