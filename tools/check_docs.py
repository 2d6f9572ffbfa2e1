#!/usr/bin/env python3
"""Docs hygiene checker (runs in CI and as the `docs_check` ctest entry).

Four passes over the repo:

1. Markdown link check: every relative link in README.md, ROADMAP.md,
   CHANGES.md and docs/**/*.md must resolve to an existing file or directory
   (external http(s)/mailto links and pure #anchors are skipped — no network
   in CI).
2. Header brief check: every public header under src/ must carry a Doxygen
   `\\file` line followed by a non-empty brief within its first lines, so the
   API stays self-describing.
3. Snippet include check: every `#include "..."` inside a fenced code block
   of README.md or docs/**/*.md must name a header that exists under src/,
   so a snippet cannot keep teaching a header that was removed.
4. Code-name check: inside the inline `backtick` spans of README.md and
   docs/**/*.md (fenced blocks excluded), every camel-case name with an
   inner capital (`SpikePlane`, `TTConv2d`, `kAffineLif`), every
   `::`-qualified name (`simd::LevelGuard`, checked by its last part; `std::`
   names skipped) and every `snake_case(` call (`conv_forward(x)`) must
   occur as a whole word in some file under src/, so the docs cannot keep
   naming an API that was removed.

Usage: check_docs.py [repo_root]   (exit 0 = clean, 1 = findings, printed
one per line as `path: message`).
"""

import re
import sys
from pathlib import Path

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)
SKIP_SCHEMES = ("http://", "https://", "mailto:")


def markdown_files(root: Path):
    for name in ("README.md", "ROADMAP.md", "CHANGES.md"):
        path = root / name
        if path.exists():
            yield path
    yield from sorted((root / "docs").glob("**/*.md"))


def check_markdown_links(root: Path):
    problems = []
    for md in markdown_files(root):
        text = md.read_text(encoding="utf-8")
        # Strip fenced code blocks: shell snippets legitimately contain
        # bracket-paren sequences that are not links.
        text = FENCE_RE.sub("", text)
        for target in LINK_RE.findall(text):
            if target.startswith(SKIP_SCHEMES) or target.startswith("#"):
                continue
            rel = target.split("#", 1)[0]
            if not rel:
                continue
            resolved = (md.parent / rel).resolve()
            if not resolved.exists():
                problems.append(f"{md.relative_to(root)}: broken link -> {target}")
    return problems


def check_header_briefs(root: Path):
    problems = []
    for header in sorted((root / "src").glob("**/*.h")):
        lines = header.read_text(encoding="utf-8").splitlines()
        file_line = next(
            (i for i, l in enumerate(lines[:12]) if "\\file" in l), None
        )
        rel = header.relative_to(root)
        if file_line is None:
            problems.append(f"{rel}: missing Doxygen \\file brief in header")
            continue
        brief = ""
        for line in lines[file_line:file_line + 4]:
            stripped = line.strip().lstrip("/").strip()
            if stripped.startswith("\\file"):
                stripped = stripped[len("\\file"):].strip()
                # Drop the conventional "\file name.h" token itself.
                stripped = re.sub(r"^\S+\.h\b", "", stripped).strip()
            brief += stripped
        if len(brief) < 10:
            problems.append(f"{rel}: \\file present but no brief text follows")
    return problems


def check_snippet_includes(root: Path):
    problems = []
    docs = [root / "README.md", *sorted((root / "docs").glob("**/*.md"))]
    for md in docs:
        if not md.exists():
            continue
        for block in FENCE_RE.findall(md.read_text(encoding="utf-8")):
            for header in INCLUDE_RE.findall(block):
                if not (root / "src" / header).is_file():
                    problems.append(
                        f"{md.relative_to(root)}: snippet includes "
                        f"\"{header}\", not a header under src/"
                    )
    return problems


SPAN_RE = re.compile(r"`([^`\n]+)`")
QUALIFIED_RE = re.compile(r"\b\w+(?:::\w+)+")
CAMEL_RE = re.compile(r"\b[A-Za-z][A-Za-z0-9]*\b")
CALL_RE = re.compile(r"\b([a-z][a-z0-9]*(?:_[a-z0-9]+)+)\(")
WORD_RE = re.compile(r"\w+")


def span_names(span: str):
    """Code names a backtick span refers to, in the three forms above."""
    names = set()
    for qualified in QUALIFIED_RE.findall(span):
        parts = qualified.split("::")
        if parts[0] != "std":
            names.add(parts[-1])
    for word in CAMEL_RE.findall(span):
        if any(c.islower() for c in word) and any(c.isupper() for c in word[1:]):
            names.add(word)
    names.update(CALL_RE.findall(span))
    return names


def check_code_names(root: Path):
    src_words = set()
    for path in (root / "src").glob("**/*"):
        if path.is_file():
            src_words.update(WORD_RE.findall(path.read_text(encoding="utf-8")))
    problems = []
    checked = set()
    for md in [root / "README.md", *sorted((root / "docs").glob("**/*.md"))]:
        if not md.exists():
            continue
        text = FENCE_RE.sub("", md.read_text(encoding="utf-8"))
        names = set()
        for span in SPAN_RE.findall(text):
            names |= span_names(span)
        checked |= names
        for name in sorted(names - src_words):
            problems.append(
                f"{md.relative_to(root)}: `{name}` names nothing under src/"
            )
    return problems, len(checked)


def main() -> int:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    name_problems, n_names = check_code_names(root)
    problems = (
        check_markdown_links(root)
        + check_header_briefs(root)
        + check_snippet_includes(root)
        + name_problems
    )
    for p in problems:
        print(p)
    if problems:
        print(f"check_docs: {len(problems)} problem(s)")
        return 1
    n_md = len(list(markdown_files(root)))
    n_h = len(list((root / "src").glob("**/*.h")))
    print(f"check_docs: OK ({n_md} markdown files, {n_h} headers, "
          f"{n_names} code names)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
