"""``python -m cdiag``: the cdiag command line."""

from .cli import main

if __name__ == "__main__":
    main()
