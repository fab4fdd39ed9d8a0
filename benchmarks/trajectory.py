"""The committed benchmark trajectory: BENCH_*.json files at the repository root.

Each file is a JSON list of entries, one appended per measurement, so the
history of a benchmark is read from git.
"""

import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def commit(checkout: Path) -> str:
    """HEAD of ``checkout``, marked +dirty when its src/ differs from HEAD."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return "unknown (not a git checkout)"
    dirty = git("status", "--porcelain", "--", "src").stdout.strip()
    return head.stdout.strip() + ("+dirty" if dirty else "")


def append_entry(name: str, entry: dict) -> Path:
    """Append ``entry`` to ROOT/``name``; returns the file's path."""
    path = ROOT / name
    entries = json.loads(path.read_text()) if path.exists() else []
    path.write_text(json.dumps(entries + [entry], indent=2) + "\n")
    return path
