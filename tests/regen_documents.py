"""Rewrite ``tests/documents.json``, the digests ``test_documents.py`` pins.

Run from the repository root: ``PYTHONPATH=src python tests/regen_documents.py``.
Only a change that means to alter a document does this, and it lists the
inputs that changed.
"""

import json
import tempfile
from pathlib import Path

from test_documents import DATA, documents

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        table = documents(Path(work))
    DATA.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, table.values()))} digests of {len(table)} inputs to {DATA}")
