"""Entry point for ``python -m orbiquint``; same subcommands as the cli module."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
