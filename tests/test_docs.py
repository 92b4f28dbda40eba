"""Documentation health: executed doctests and markdown link integrity.

Two rot vectors, both cheap to gate:

* **Doctests** — every ``>>>`` example in the curated public-API modules
  runs for real (the CI docs job runs this file), so examples cannot
  drift from the code they document.
* **Links** — every relative link and anchor in README.md and docs/ must
  resolve to a file (and section) in the repository.  External URLs are
  only checked for shape, never fetched: the suite stays offline.
"""

import doctest
import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: The curated doctest surface: public-API modules whose examples must run.
DOCTEST_MODULES = [
    "repro",
    "repro.core.asynd",
    "repro.core.decomposition",
    "repro.core.hindex",
    "repro.core.kernels",
    "repro.core.result",
    "repro.core.hierarchy",
    "repro.core.intervals",
    "repro.core.peeling",
    "repro.core.query",
    "repro.core.csr",
    "repro.graph.csr_graph",
    "repro.graph.graph",
    "repro.store.bundle",
    "repro.parallel.procpool",
    "repro.resilience.faults",
    "repro.resilience.supervisor",
]

MARKDOWN_FILES = sorted(
    [REPO / "README.md", *(REPO / "docs").glob("*.md")]
)

_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.+?)\s*$", re.MULTILINE)


def _ci_doctest_modules():
    """Module names the CI docs job passes to ``--doctest-modules``.

    Read as text (no YAML parser needed): the ``src/...py`` lines of the
    folded command that follows the ``--doctest-modules`` flag.
    """
    lines = (REPO / ".github" / "workflows" / "ci.yml").read_text().splitlines()
    start = next(
        i for i, line in enumerate(lines)
        if line.strip().startswith("python") and "--doctest-modules" in line
    )
    modules = []
    for line in lines[start + 1:]:
        path = line.strip()
        if not re.fullmatch(r"src/[\w/]+\.py", path):
            break
        parts = path[len("src/"):-len(".py")].split("/")
        modules.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return modules


def test_ci_doctest_list_matches():
    """The CI job's ``--doctest-modules`` list names the same modules."""
    assert sorted(_ci_doctest_modules()) == sorted(DOCTEST_MODULES)


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_doctests_execute(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(
        module, verbose=False, optionflags=doctest.IGNORE_EXCEPTION_DETAIL
    )
    assert results.attempted > 0, f"{module_name} has no executable examples"
    assert results.failed == 0, f"{module_name}: {results.failed} doctest failures"


def _anchor(text: str) -> str:
    """GitHub-style slug of a heading."""
    text = re.sub(r"[`*_]", "", text.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors_of(path: Path) -> set:
    return {_anchor(h) for h in _HEADING.findall(path.read_text(encoding="utf-8"))}


def test_markdown_files_exist():
    assert (REPO / "README.md").is_file()
    assert (REPO / "docs" / "FORMAT.md").is_file()
    assert (REPO / "docs" / "ARCHITECTURE.md").is_file()


@pytest.mark.parametrize("path", MARKDOWN_FILES, ids=lambda p: p.name)
def test_relative_links_resolve(path):
    broken = []
    for target in _LINK.findall(path.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        base, _, fragment = target.partition("#")
        resolved = (path.parent / base).resolve() if base else path
        if base and not resolved.exists():
            broken.append(f"{target} (missing file)")
            continue
        if fragment and resolved.suffix == ".md" and resolved.is_file():
            if fragment not in _anchors_of(resolved):
                broken.append(f"{target} (missing anchor)")
    assert not broken, f"{path.relative_to(REPO)} has broken links: {broken}"


def test_readme_mentions_the_new_surfaces():
    """The README satellite: persistence + backend selection are documented."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    for needle in (
        "save_bundle",
        "open_bundle",
        "--save",
        "--load",
        "docs/ARCHITECTURE.md",
        "docs/FORMAT.md",
    ):
        assert needle in text, f"README.md does not mention {needle!r}"
