"""``python -m ablum``: the command-line interface of ablum.cli."""

from .cli import main

if __name__ == "__main__":
    main()
