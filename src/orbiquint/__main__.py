"""Entry point for ``python -m orbiquint``; same subcommands as the cli module."""

from .cli import run

if __name__ == "__main__":
    run()
