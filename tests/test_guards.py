"""Guards on the package as a whole: no environment hooks or thread pools in
the source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "persimon"


def _violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            found.append(f"line {node.lineno}: os.{node.attr}")
        elif isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import {a.name}" for a in node.names
                      if a.name.split(".")[0] in ("threading", "concurrent")]
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            names = {a.name for a in node.names}
            if (mod.split(".")[0] in ("threading", "concurrent")
                    or (mod == "os" and names & {"environ", "getenv"})):
                found.append(f"line {node.lineno}: from {mod} import ...")
    return found


class TestNoHooks:
    def test_scan_flags_what_it_forbids(self):
        bad = ("import os\nimport threading\nfrom concurrent.futures import ThreadPoolExecutor\n"
               "from os import getenv\nx = os.environ.get('A')\n")
        assert len(_violations(ast.parse(bad))) == 4

    def test_no_environment_reads_or_threads_in_package(self):
        files = sorted(SRC.glob("*.py"))
        assert files
        found = {f.name: v for f in files
                 if (v := _violations(ast.parse(f.read_text(encoding="utf-8"))))}
        assert not found
