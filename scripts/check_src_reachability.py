#!/usr/bin/env python3
"""Lists the src/ files that no program reaches.

    scripts/check_src_reachability.py [ROOT]

Starts from every .cpp under ROOT's tools/, bench/ and examples/ and
follows quoted #include directives. A quoted include resolves against the
including file's directory first, then ROOT/src, the library's include
root. A reached src/ header also brings in the .cpp of the same name
beside it. fixtures/ directories are skipped: they hold analyzer inputs,
not programs.

Prints every src/ .cpp or .hpp that was not reached, one per line relative
to ROOT, and exits 1 if there is any. ROOT defaults to the repository this
script sits in. The walk sees files, not functions: a reached file whose
code no program calls passes.
"""

import re
import sys
from pathlib import Path

INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)
PROGRAM_DIRS = ("tools", "bench", "examples")


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).parent.parent)
    root = root.resolve()
    src = root / "src"
    pending = [path for top in PROGRAM_DIRS if (root / top).is_dir()
               for path in sorted((root / top).rglob("*.cpp"))
               if "fixtures" not in path.relative_to(root).parts]
    reached = set()
    while pending:
        path = pending.pop()
        if path in reached:
            continue
        reached.add(path)
        own_cpp = path.with_suffix(".cpp")
        if path.suffix == ".hpp" and src in path.parents and own_cpp.is_file():
            pending.append(own_cpp)
        for target in INCLUDE.findall(path.read_text(errors="replace")):
            for base in (path.parent, src):
                candidate = (base / target).resolve()
                if candidate.is_file():
                    pending.append(candidate)
                    break
    unreached = sorted(str(path.relative_to(root)) for path in src.rglob("*")
                       if path.suffix in (".cpp", ".hpp")
                       and path.resolve() not in reached)
    for name in unreached:
        print(name)
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
