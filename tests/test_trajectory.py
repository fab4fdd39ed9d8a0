import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from trajectory import commit  # noqa: E402


def git(repo, *args):
    cmd = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com", *args]
    return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip()


def test_dirty_entry_names_the_src_tree_that_lands(tmp_path):
    git(tmp_path, "init", "-q")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("outside src\n")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "parent")
    clean = commit(tmp_path)
    assert clean == {"commit": git(tmp_path, "rev-parse", "HEAD"),
                     "src_tree": git(tmp_path, "rev-parse", "HEAD:src")}

    # a measured change: one file edited, one new, one staged outside src/
    (tmp_path / "src" / "a.py").write_text("x = 2\n")
    (tmp_path / "src" / "b.py").write_text("y = 3\n")
    (tmp_path / "notes.txt").write_text("edited\n")
    git(tmp_path, "add", "notes.txt")
    staged = git(tmp_path, "diff", "--cached", "--name-only")
    dirty = commit(tmp_path)
    assert dirty["commit"] == clean["commit"] + "+dirty"
    assert dirty["src_tree"] != clean["src_tree"]
    assert git(tmp_path, "diff", "--cached", "--name-only") == staged == "notes.txt"
    assert git(tmp_path, "status", "--porcelain", "--", "src") == "M src/a.py\n?? src/b.py"

    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "change")
    assert git(tmp_path, "rev-parse", "HEAD:src") == dirty["src_tree"]


def test_not_a_checkout(tmp_path):
    assert commit(tmp_path) == {"commit": "unknown (not a git checkout)", "src_tree": None}
