"""``python -m strquiv``: the same command line as the ``strquiv`` script."""

from .cli import main

if __name__ == "__main__":
    main()
