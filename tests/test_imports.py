from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_light_modules_load_neither_numpy_nor_requests():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import renokit.jsonl, renokit.errors, renokit.tokenizers, renokit.ingest\n"
        "print(sorted(m for m in ('numpy', 'requests') if m in sys.modules))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
