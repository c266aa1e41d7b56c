from __future__ import annotations

import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def test_light_modules_load_neither_numpy_nor_requests():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import renokit.jsonl, renokit.errors, renokit.tokenizers, renokit.ingest\n"
        "print(sorted(m for m in ('numpy', 'requests') if m in sys.modules))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_pipeline_run_does_not_load_numpy_ma(tmp_path):
    """The first np.unique of a process imports numpy.ma, which costs a fresh process about 15 ms."""
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(TESTS)!r}]\n"
        "from pathlib import Path\n"
        "from fixture_data import write_pipeline_fixture\n"
        "from renokit.filters import INDEX_MIN_WORDS, Lexicon\n"
        "from renokit.pipeline import run_pipeline\n"
        f"root = Path({str(tmp_path)!r})\n"
        "run_pipeline(write_pipeline_fixture(root), root / 'out')\n"
        "words = [chr(0x4E00 + i) + chr(0x4E01 + i) for i in range(INDEX_MIN_WORDS)]\n"
        "assert Lexicon(words).find(words[0] + words[1][1] + words[0]) == tuple(sorted(words[:2]))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


HTML_MODULES = "print(sorted(m for m in ('html', 'html.parser', 'html.entities') if m in sys.modules))\n"


def test_commands_load_no_html_parser_on_import():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import renokit.ingest, renokit.pipeline, renokit.sftgen, renokit.evalharness, renokit.endpoint\n"
        + HTML_MODULES
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_html_loads_only_for_markup_that_needs_it(tmp_path):
    """Plain text and markup the token scan reads without an entity load no html
    module; an entity loads html and its tables, and markup outside the scan html.parser."""
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(TESTS)!r}]\n"
        "from pathlib import Path\n"
        "from fixture_data import write_pipeline_fixture\n"
        "from renokit.ingest import clean_text\n"
        "from renokit.pipeline import run_pipeline\n"
        f"root = Path({str(tmp_path)!r})\n"
        "run_pipeline(write_pipeline_fixture(root), root / 'out')\n"
        + HTML_MODULES +
        "assert clean_text('<p>甲 &amp; 乙</p>') == '甲 &amp; 乙'\n"
        + HTML_MODULES +
        "assert clean_text('<!DOCTYPE html><p>甲 &lt; 乙</p>') == '甲 &lt; 乙'\n"
        + HTML_MODULES
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.split("\n")[:3] == ["[]", "['html', 'html.entities']", "['html', 'html.entities', 'html.parser']"]
