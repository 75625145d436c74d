#!/usr/bin/env python3
"""Fail when a CMakeLists.txt names a source path git does not track.

Every `${CMAKE_CURRENT_SOURCE_DIR}/<path>` in a tracked CMakeLists.txt
must resolve to a tracked file, or to a directory holding one. A file
that exists only in the working tree (for example one swallowed by a
.gitignore pattern) passes a local build but breaks a fresh clone.

Usage (from anywhere inside the repository):
    check_cmake_paths.py

Exit status: 0 when every path is tracked, 1 otherwise.
"""

import os
import posixpath
import re
import subprocess
import sys

REF = re.compile(r"\$\{CMAKE_CURRENT_SOURCE_DIR\}/([^\s\"')]+)")


def tracked_files(root):
    out = subprocess.run(["git", "ls-files", "-z"], cwd=root,
                         check=True, capture_output=True).stdout
    return {p for p in out.decode().split("\0") if p}


def missing_paths(files, read):
    """(cmake file, path) pairs naming nothing in `files`.

    `read` maps a tracked CMakeLists.txt path to its text.
    """
    dirs = {""}
    for f in files:
        d = posixpath.dirname(f)
        while d not in dirs:
            dirs.add(d)
            d = posixpath.dirname(d)
    missing = []
    for cmake in sorted(f for f in files
                        if posixpath.basename(f) == "CMakeLists.txt"):
        base = posixpath.dirname(cmake)
        for ref in REF.findall(read(cmake)):
            path = posixpath.normpath(posixpath.join(base, ref))
            path = "" if path == "." else path
            if path not in files and path not in dirs:
                missing.append((cmake, ref))
    return missing


def main():
    root = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                          check=True, capture_output=True,
                          text=True).stdout.strip()

    def read(rel):
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            return f.read()

    missing = missing_paths(tracked_files(root), read)
    for cmake, ref in missing:
        print(f"{cmake}: ${{CMAKE_CURRENT_SOURCE_DIR}}/{ref} is not "
              f"tracked by git", file=sys.stderr)
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
