"""The environment of every child process the tests start.

pytest puts src/ on its own import path, but a child such as
``python -m quasischur`` reads only PYTHONPATH, so each child gets the
checkout's src/ ahead of the caller's PYTHONPATH: it runs this checkout's
code whether or not the package is installed, and never a stale installed
copy.
"""

import os
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(src: Path = SRC) -> dict[str, str]:
    """os.environ with src prepended to PYTHONPATH."""
    inherited = os.environ.get("PYTHONPATH")
    path = os.pathsep.join([str(src), inherited]) if inherited else str(src)
    return dict(os.environ, PYTHONPATH=path)
