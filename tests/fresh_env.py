"""The environment of a test that runs diophkit in a fresh interpreter."""

from __future__ import annotations

import os
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_env(**extra):
    """This environment with src/ on the path, stdout block-buffered as it
    is by default (PYTHONUNBUFFERED would make every print a write, so the
    flush in cli.run would never be reached), and the `extra` variables,
    such as COLUMNS for a test that compares help text."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **extra)
    env.pop("PYTHONUNBUFFERED", None)
    return env
