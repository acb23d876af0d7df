"""The package's exports and README's library map name the same API: each
name that `walkcurrent/__init__.py` imports appears in the map's row for
its module."""

import ast
import os
import re

import walkcurrent

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def library_map():
    """module -> the backquoted names of its row in README's library map."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    section = text.split("## Library map", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = line.split(" | ")
        for module in re.findall(r"`walkcurrent\.(\w+)`", cells[0]):
            rows[module] = set(re.findall(r"`(\w+)", " | ".join(cells[1:])))
    return rows


def test_every_export_is_in_its_library_map_row():
    with open(walkcurrent.__file__) as fh:
        tree = ast.parse(fh.read())
    rows = library_map()
    missing = [f"{node.module}.{alias.name}"
               for node in tree.body if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name not in rows.get(node.module, ())]
    assert not missing, f"exported but not in README's library map: {missing}"
