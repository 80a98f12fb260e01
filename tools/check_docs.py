#!/usr/bin/env python3
"""Docs gate (CI `docs` job): keep the markdown truthful.

Checks, stdlib only:
  1. every intra-repo markdown link ([text](path)) in tracked *.md files
     resolves to an existing file or directory;
  2. every backticked path (a `span` holding a `/`, e.g. `src/core/`) in
     README.md and docs/ARCHITECTURE.md exists, resolved against the repo
     root, then src/, then the doc's own directory; `{a,b}` braces expand
     to one path each, and git-ignored build outputs (`build/`) pass;
  3. the subcommand table in README.md matches `san_tool help` exactly
     (same names, no drift in either direction), every subcommand's
     `san_tool help NAME` page exists (exit 0), and each row's synopsis
     equals that page's `usage:` line (a flag on one side only fails).

Usage: tools/check_docs.py [--san-tool PATH] [--root DIR]
The drift check is skipped (with a warning) when --san-tool is omitted,
so the link check can run without a build.
"""

import argparse
import os
import re
import subprocess
import sys

# [text](target) — excluding images is unnecessary; they resolve the same.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# Inline code spans; fenced blocks are stripped first.
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
# A path: slash-separated segments of path characters. Only the first may
# start with a dot (`.github/...`), which keeps `.count/.p50_us`-style
# metric lists and `1/2/4/8` thread sweeps out.
PATH_RE = re.compile(r"^[A-Za-z_.][\w.{},-]*(/[A-Za-z0-9_{][\w.{},-]*)*/?$")
BRACE_RE = re.compile(r"\{([^{}]*)\}")
# Docs whose backticked paths must exist.
PATH_CHECKED_DOCS = ("README.md", "docs/ARCHITECTURE.md")
# README subcommand table rows: | `name` | `synopsis` | purpose |
TABLE_ROW_RE = re.compile(r"^\|\s*`([a-z][a-z0-9-]*)`\s*\|(?:\s*`([^`]*)`)?")
# `san_tool help` subcommand listing rows: two-space indent, name, summary.
HELP_ROW_RE = re.compile(r"^  ([a-z][a-z0-9-]*)\s{2,}\S")


def markdown_files(root):
    out = subprocess.run(
        ["git", "ls-files", "*.md", "**/*.md"],
        cwd=root, capture_output=True, text=True, check=True)
    return sorted(set(out.stdout.split()))


def strip_fences(text):
    return re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)


def strip_code(text):
    """Drop fenced blocks and inline code so literal [x](y) examples in
    them are not treated as links."""
    return re.sub(r"`[^`\n]*`", "", strip_fences(text))


def check_links(root, files):
    errors = []
    for rel in files:
        text = strip_code(
            open(os.path.join(root, rel), encoding="utf-8").read())
        for target in LINK_RE.findall(text):
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, …
                continue
            path = target.split("#", 1)[0]
            if not path:  # pure in-page anchor
                continue
            resolved = os.path.normpath(
                os.path.join(root, os.path.dirname(rel), path))
            if not os.path.exists(resolved):
                errors.append(f"{rel}: broken link -> {target}")
    return errors


def expand_braces(path):
    """`src/a.{hpp,cpp}` -> [`src/a.hpp`, `src/a.cpp`]."""
    m = BRACE_RE.search(path)
    if not m:
        return [path]
    out = []
    for alt in m.group(1).split(","):
        out += expand_braces(path[:m.start()] + alt + path[m.end():])
    return out


def git_ignored(root, rel):
    return subprocess.run(["git", "check-ignore", "-q", rel],
                          cwd=root).returncode == 0


def check_code_paths(root, rel):
    text = strip_fences(
        open(os.path.join(root, rel), encoding="utf-8").read())
    bases = [root, os.path.join(root, "src"),
             os.path.join(root, os.path.dirname(rel))]
    errors = []
    for span in CODE_SPAN_RE.findall(text):
        if "/" not in span or not PATH_RE.match(span):
            continue
        for path in expand_braces(span):
            if any(os.path.exists(os.path.join(base, path))
                   for base in bases) or git_ignored(root, path):
                continue
            errors.append(f"{rel}: missing path `{path}`")
    return errors


def readme_subcommands(root):
    """{name: synopsis} of the README table rows, in table order; a `|`
    escaped for the markdown table reads as a plain `|`."""
    rows = {}
    for line in open(os.path.join(root, "README.md"), encoding="utf-8"):
        m = TABLE_ROW_RE.match(line)
        if m and m.group(1) != "help":
            rows[m.group(1)] = (m.group(2) or "").replace("\\|", "|")
    return rows


def san_tool_subcommands(san_tool):
    out = subprocess.run([san_tool, "help"], capture_output=True, text=True)
    if out.returncode != 0:
        return None, [f"`{san_tool} help` exited {out.returncode}"]
    names, in_listing = [], False
    for line in out.stdout.splitlines():
        if line.startswith("subcommands:"):
            in_listing = True
            continue
        if in_listing:
            m = HELP_ROW_RE.match(line)
            if m:
                names.append(m.group(1))
            elif line.strip() == "":
                in_listing = False
    return names, []


def check_drift(root, san_tool):
    documented = readme_subcommands(root)
    actual, errors = san_tool_subcommands(san_tool)
    if errors:
        return errors
    if not documented:
        return ["README.md: no subcommand table rows found (| `name` | ...)"]
    if list(documented) != actual:
        return [
            "README.md subcommand table drifted from `san_tool help`:\n"
            f"  documented: {list(documented)}\n  san_tool:   {actual}"
        ]
    for name in actual:
        page = subprocess.run([san_tool, "help", name],
                              capture_output=True, text=True)
        if page.returncode != 0 or name not in page.stdout:
            errors.append(f"`san_tool help {name}` missing or broken")
            continue
        usage = page.stdout.splitlines()[0].removeprefix("usage: ")
        if documented[name] != usage:
            readme, binary = documented[name].split(), usage.split()
            errors.append(
                f"README.md `{name}` synopsis drifted from its usage line:\n"
                f"  README:   {documented[name]}\n  san_tool: {usage}\n"
                f"  only in README:   {[t for t in readme if t not in binary]}\n"
                f"  only in san_tool: {[t for t in binary if t not in readme]}")
    return errors


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--san-tool", help="path to a built san_tool binary")
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    args = parser.parse_args()

    files = markdown_files(args.root)
    errors = check_links(args.root, files)
    for rel in PATH_CHECKED_DOCS:
        errors += check_code_paths(args.root, rel)
    if args.san_tool:
        errors += check_drift(args.root, args.san_tool)
    else:
        print("warning: --san-tool not given, skipping help-drift check")

    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    print(f"checked {len(files)} markdown files"
          + (", subcommand help in sync" if args.san_tool and not errors
             else ""))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
