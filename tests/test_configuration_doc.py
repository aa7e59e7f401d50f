"""``docs/configuration.md`` and ``CloudConfig`` describe the same fields.

Every dataclass field has a row in one of the doc's ``| field | default |
meaning |`` tables and every such row names a real field, so neither a new
knob nor a retired one can drift out of the reference.  The field count is
ratcheted: a 16th field has to argue with this test first (a value with
one setting in use belongs in a module constant, see the doc's last table).
"""

import dataclasses
import pathlib
import re

from repro.cloud.config import CloudConfig

DOC = pathlib.Path(__file__).resolve().parent.parent / "docs" / "configuration.md"
MAX_FIELDS = 15


def documented_fields():
    """First-column names of every table whose header starts ``| field |``."""
    names, in_field_table = [], False
    for line in DOC.read_text(encoding="utf-8").splitlines():
        if not line.startswith("|"):
            in_field_table = False
        elif line.startswith("| field |"):
            in_field_table = True
        elif in_field_table and not line.startswith("|---"):
            names.append(re.match(r"\| `(\w+)` \|", line).group(1))
    return names


def test_doc_rows_match_dataclass_fields():
    documented = documented_fields()
    assert len(documented) == len(set(documented)), "a field is documented twice"
    assert set(documented) == {field.name for field in dataclasses.fields(CloudConfig)}


def test_field_count_ratchet():
    assert len(dataclasses.fields(CloudConfig)) <= MAX_FIELDS
