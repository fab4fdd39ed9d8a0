"""The committed benchmark trajectory: BENCH_*.json files at the repository root.

Each file is a JSON list of entries, one appended per measurement, so the
history of a benchmark is read from git.
"""

import json
import os
import subprocess
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def commit(checkout: Path) -> dict:
    """HEAD of ``checkout``, marked +dirty when its src/ differs from HEAD, and
    ``src_tree``: the git tree id src/ would have if committed as it is.

    Once the measured src/ lands, ``git rev-parse <commit>:src`` equals
    ``src_tree``, which ties a +dirty entry to that commit.
    """
    def git(*args, env=None):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, env=env)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return {"commit": "unknown (not a git checkout)", "src_tree": None}
    dirty = git("status", "--porcelain", "--", "src").stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        # a throwaway index, so the checkout's own index is never touched
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
        git("add", "-A", "src", env=env).check_returncode()
        tree = git("write-tree", "--prefix=src/", env=env)
    tree.check_returncode()
    return {"commit": head.stdout.strip() + ("+dirty" if dirty else ""),
            "src_tree": tree.stdout.strip()}


def append_entry(name: str, entry: dict) -> Path:
    """Append ``entry`` to ROOT/``name``; returns the file's path."""
    path = ROOT / name
    entries = json.loads(path.read_text()) if path.exists() else []
    path.write_text(json.dumps(entries + [entry], indent=2) + "\n")
    return path
