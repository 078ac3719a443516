"""Docstring-coverage regression test: the CI docs job, runnable locally.

Runs ``tools/check_docstrings.py`` (the same script the CI docs job
invokes) so an undocumented public class/function under ``src/repro/``
fails the tier-1 suite before it reaches CI.
"""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_public_api_docstring_coverage():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_docstrings.py")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "docstring coverage ok" in result.stdout


def test_checker_scans_config_and_session():
    """The coverage walk must include the config module (strategy
    checks) and the session facade — exercised through the checker's
    own collection (``iter_documentable``), not just the directory
    layout."""
    import ast

    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import check_docstrings

        collected = set()
        for relative in ("core/config.py", "session/session.py"):
            path = check_docstrings.SOURCE_ROOT / relative
            assert path.exists(), relative
            tree = ast.parse(path.read_text(), filename=str(path))
            module = "repro." + relative[:-3].replace("/", ".")
            collected |= {
                name
                for name, _kind, _doc in check_docstrings.iter_documentable(
                    tree, module
                )
            }
    finally:
        sys.path.pop(0)
    assert "repro.core.config.check_strategies" in collected
    assert "repro.session.session.Session.feed" in collected
