"""Each kept term of the two rounding certificates fails a named test when dropped.

The temporal merge certificate (``clustering._merge_step``) and retrieval's
carried distance intervals (``retrieval.PooledRing``) rest on one rounding
margin, ``clustering._distance_bound``. For each term below, this script
copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory,
drops the term there with one literal replacement, which must match exactly
once, and runs only the term's test against the copy. It exits non-zero if
any replacement does not match once or any such test passes, since a term
that no test pins could be lost unseen.

Run from anywhere; pytest is not meant to collect it:

    python tests/certificate_terms.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAR_ROW = "tests/test_retrieval_bounds.py::test_a_far_row_carried_across_many_searches_keeps_its_exact_distance"
MOVEMENT = "tests/test_retrieval_bounds.py::test_movement_bounds_the_exact_move_where_its_dot_rounds_low"

# (term, module, text, replacement, test that must fail without the term)
TERMS = [
    (
        "the widening's outward rounding of lo",
        "retrieval.py",
        "np.nextafter(self._lo[i] - moved, -np.inf)",
        "self._lo[i] - moved",
        FAR_ROW + "[toward]",
    ),
    (
        "the widening's outward rounding of hi",
        "retrieval.py",
        "np.nextafter(self._hi[i] + moved, np.inf)",
        "self._hi[i] + moved",
        FAR_ROW + "[away]",
    ),
    (
        "_distance_bound's underflow term",
        "clustering.py",
        " + 2.0**-1074)",
        ")",
        MOVEMENT,
    ),
    (
        "_movement's bound term",
        "retrieval.py",
        "math.sqrt(sq + _distance_bound(len(diff), math.sqrt(sq)))",
        "math.sqrt(sq)",
        MOVEMENT,
    ),
    (
        "the setting's margin",
        "retrieval.py",
        "np.sqrt(np.fmax(expanded - bound, 0.0))\n"
        "        written_hi[:, rows] = np.sqrt(np.fmin(expanded + bound, np.inf))",
        "np.sqrt(np.fmax(expanded, 0.0))\n"
        "        written_hi[:, rows] = np.sqrt(np.fmin(expanded, np.inf))",
        "tests/test_differential.py::test_carried_retrieval_matches_the_full_pass_on_wide_rows",
    ),
    (
        "the settling's margin",
        "retrieval.py",
        "limit = score.min(axis=0) + bound",
        "limit = score.min(axis=0) + 0.0",
        "tests/test_differential.py::test_engine_matches_frozen_stages_bit_for_bit",
    ),
    (
        "the merge certificate's slack",
        "clustering.py",
        "slack = _distance_bound(",
        "slack = 0.0 * _distance_bound(",
        "tests/test_clustering.py::test_temporal_update_matches_weighted_kmeans_across_the_certificate_margin",
    ),
]


def check(term: str, module: str, old: str, new: str, test: str) -> str | None:
    """None when dropping ``term`` fails ``test``; else what went wrong."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        path = copy / "src" / "streammem" / module
        text = path.read_text()
        if text.count(old) != 1:
            return f"the text matches {text.count(old)} times in {module}, not once"
        path.write_text(text.replace(old, new))
        # pyproject.toml puts the copy's src/ first on sys.path.
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test],
            cwd=copy,
            capture_output=True,
            text=True,
        )
        if run.returncode == 0:
            return f"{test} passes without it"
        if run.returncode != 1:  # 1 is "tests failed"; anything else is an error
            return f"{test} did not run (pytest exit {run.returncode}):\n{run.stdout}{run.stderr}"
    return None


def main() -> int:
    failed = 0
    for term, module, old, new, test in TERMS:
        problem = check(term, module, old, new, test)
        print(f"{'ok' if problem is None else 'FAIL'}: {term}" + (f": {problem}" if problem else ""))
        failed += problem is not None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
