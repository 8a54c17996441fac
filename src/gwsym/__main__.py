"""``python -m gwsym``: the same command-line interface as ``gwsym``."""
from .cli import main

if __name__ == "__main__":
    main()
