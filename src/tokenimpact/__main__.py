"""Run the command-line interface: ``python -m tokenimpact <command> ...``."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
