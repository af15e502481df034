#!/usr/bin/env python3
"""Docs-drift guard: flags, knobs and links in docs/ must match reality.

Checks:

1. Flag drift (default mode).  The flag reference in docs/SERVICE.md --
   everything between the `<!-- flags:begin -->` and `<!-- flags:end -->`
   markers -- must list EXACTLY the union of the flags that
   `cli_solve --help` and `batch_solve --help` print, both directions:
   a flag in the help output but not the docs fails, and a flag in the
   docs but not in any binary fails.  Both binaries print usage to
   stderr and exit 2; that is expected and accepted.

2. Link integrity (always).  Every relative markdown link in every
   tracked *.md file must resolve to an existing file or directory.
   http(s)/mailto links and pure #anchors are skipped; a #fragment on a
   relative link is stripped before the existence check.

3. Source doc references (always).  Every `Name.md` a comment (or string)
   in a *.cpp/*.hpp file under src/, tests/, bench/ or examples/ cites must
   name a file that exists: a path with a slash (docs/SERVICE.md) resolves
   against the repository root, a bare name (ROADMAP.md) matches any *.md
   file of that name in the repository.

4. Knob drift (always).  The first-column names of the docs/SERVICE.md
   knob table (the table whose header starts with `| Knob |`) must be
   EXACTLY the data members of `struct ExecConfig` in
   src/common/exec_config.hpp, both directions: a field without a row
   fails, and a row naming no field fails.

Usage:
  check_docs.py --repo ROOT --links-only
  check_docs.py --repo ROOT --cli-solve build/cli_solve --batch-solve build/batch_solve

CI runs --links-only in the format job (no build available) and the full
mode in the Release build-test leg right after the build.
"""
import argparse
import pathlib
import re
import subprocess
import sys

FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
DOC_REF_RE = re.compile(r"[A-Za-z0-9_./-]*[A-Za-z0-9_]\.md\b")
SOURCE_DIRS = ("src", "tests", "bench", "examples")
SOURCE_SUFFIXES = {".cpp", ".hpp"}
BEGIN_MARK = "<!-- flags:begin -->"
END_MARK = "<!-- flags:end -->"
# Directories that hold generated or vendored trees, never our docs.
SKIP_DIRS = {".git", "build", "_deps", ".cache", ".bench_build"}
EXEC_CONFIG_HPP = pathlib.Path("src/common/exec_config.hpp")
# One data member per line at struct indentation: `Type name`, then an
# optional `= init` or `{init}`, then `;`.  Member functions carry a `(`
# before any initializer and never match.
MEMBER_RE = re.compile(r"^  [A-Za-z_][\w:<>, ]*[\s*&]+([a-z_][a-z0-9_]*)\s*(?:[={][^;]*)?;$")
KNOB_ROW_RE = re.compile(r"^\|\s*`([a-z_][a-z0-9_]*)`\s*\|")


def fail(msg):
    print(f"check_docs: {msg}", file=sys.stderr)
    return 1


def help_flags(binary):
    """The set of --flags a binary's usage text advertises (stderr, rc 2)."""
    proc = subprocess.run([str(binary), "--help"], capture_output=True, text=True)
    text = proc.stdout + proc.stderr
    if proc.returncode not in (0, 2) or "usage:" not in text:
        raise RuntimeError(
            f"{binary} --help exited {proc.returncode} without a usage line")
    return set(FLAG_RE.findall(text))


def docs_flags(service_md):
    """The set of --flags listed between the flags:begin/end markers."""
    text = service_md.read_text(encoding="utf-8")
    if BEGIN_MARK not in text or END_MARK not in text:
        raise RuntimeError(f"{service_md} lacks the {BEGIN_MARK} / {END_MARK} markers")
    section = text.split(BEGIN_MARK, 1)[1].split(END_MARK, 1)[0]
    return set(FLAG_RE.findall(section))


def check_flags(repo, cli_solve, batch_solve):
    service_md = repo / "docs" / "SERVICE.md"
    try:
        documented = docs_flags(service_md)
        advertised = help_flags(cli_solve) | help_flags(batch_solve)
    except (RuntimeError, OSError) as e:
        return fail(str(e))
    errors = 0
    for flag in sorted(advertised - documented):
        errors += fail(f"{flag} is in a --help but missing from docs/SERVICE.md "
                       f"(between the flags:begin/end markers)")
    for flag in sorted(documented - advertised):
        errors += fail(f"{flag} is documented in docs/SERVICE.md but no binary "
                       f"advertises it")
    if errors == 0:
        print(f"check_docs: flags OK ({len(advertised)} flags, docs == --help)")
    return errors


def exec_config_fields(header):
    """Data members of `struct ExecConfig`, in declaration order."""
    text = header.read_text(encoding="utf-8")
    match = re.search(r"^struct ExecConfig \{$(.*?)^\};$", text, re.M | re.S)
    if not match:
        raise RuntimeError(f"{header} has no `struct ExecConfig {{ ... }};`")
    fields = []
    for line in match.group(1).splitlines():
        m = MEMBER_RE.match(line.split("//", 1)[0].rstrip())
        if m:
            fields.append(m.group(1))
    return fields


def knob_table_names(service_md):
    """First-column names of the `| Knob | ... |` table in docs/SERVICE.md."""
    lines = service_md.read_text(encoding="utf-8").splitlines()
    starts = [i for i, line in enumerate(lines) if re.match(r"^\|\s*Knob\s*\|", line)]
    if len(starts) != 1:
        raise RuntimeError(f"{service_md} needs exactly one `| Knob |` table, "
                           f"found {len(starts)}")
    names = []
    for line in lines[starts[0] + 2:]:
        if not line.startswith("|"):
            break
        m = KNOB_ROW_RE.match(line)
        if not m:
            raise RuntimeError(f"{service_md}: knob row without a `name` cell: {line}")
        names.append(m.group(1))
    return names


def check_knobs(repo):
    try:
        fields = exec_config_fields(repo / EXEC_CONFIG_HPP)
        documented = knob_table_names(repo / "docs" / "SERVICE.md")
    except (RuntimeError, OSError) as e:
        return fail(str(e))
    errors = 0
    for name in fields:
        if name not in documented:
            errors += fail(f"ExecConfig::{name} has no row in the docs/SERVICE.md "
                           f"knob table")
    for name in documented:
        if name not in fields:
            errors += fail(f"docs/SERVICE.md knob table lists `{name}`, which is not "
                           f"a field of ExecConfig")
    if errors == 0:
        print(f"check_docs: knobs OK ({len(fields)} ExecConfig fields, docs == struct)")
    return errors


def markdown_files(repo):
    for path in sorted(repo.rglob("*.md")):
        if any(part in SKIP_DIRS for part in path.relative_to(repo).parts):
            continue
        yield path


def check_links(repo):
    errors = 0
    checked = 0
    for md in markdown_files(repo):
        for target in LINK_RE.findall(md.read_text(encoding="utf-8")):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = (md.parent / target.split("#", 1)[0]).resolve()
            if not resolved.is_relative_to(repo):
                # Escapes the checkout (e.g. the README's ../../actions CI
                # badge, which resolves on the hosting site, not on disk).
                continue
            checked += 1
            if not resolved.exists():
                errors += fail(
                    f"{md.relative_to(repo)}: broken link -> {target}")
    if errors == 0:
        print(f"check_docs: links OK ({checked} relative links resolve)")
    return errors


def check_source_doc_refs(repo):
    md_names = {md.name for md in markdown_files(repo)}
    errors = 0
    checked = 0
    for top in SOURCE_DIRS:
        for src in sorted((repo / top).rglob("*")):
            if src.suffix not in SOURCE_SUFFIXES or not src.is_file():
                continue
            lines = src.read_text(encoding="utf-8").splitlines()
            for lineno, line in enumerate(lines, start=1):
                for ref in DOC_REF_RE.findall(line):
                    checked += 1
                    exists = ((repo / ref).is_file() if "/" in ref
                              else ref in md_names)
                    if not exists:
                        errors += fail(f"{src.relative_to(repo)}:{lineno}: cites "
                                       f"{ref}, which does not exist")
    if errors == 0:
        print(f"check_docs: {checked} source doc references resolve")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repo", type=pathlib.Path, default=pathlib.Path("."),
                    help="repository root (default: cwd)")
    ap.add_argument("--links-only", action="store_true",
                    help="skip the flag-drift check (no binaries needed)")
    ap.add_argument("--cli-solve", type=pathlib.Path, default=None,
                    help="path to the built cli_solve binary")
    ap.add_argument("--batch-solve", type=pathlib.Path, default=None,
                    help="path to the built batch_solve binary")
    args = ap.parse_args()

    repo = args.repo.resolve()
    errors = check_links(repo) + check_source_doc_refs(repo) + check_knobs(repo)
    if not args.links_only:
        if not args.cli_solve or not args.batch_solve:
            return fail("full mode needs --cli-solve and --batch-solve "
                        "(or pass --links-only)")
        errors += check_flags(repo, args.cli_solve.resolve(),
                              args.batch_solve.resolve())
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
