#!/usr/bin/env python3
"""Splice named sections of the experiment harness output into EXPERIMENTS.md.

Usage: python3 scripts/fill_experiments.py [--from FILE] [ID | chN ...]

Each `<!-- ID -->` marker in EXPERIMENTS.md (e.g. `<!-- T4.2 -->`,
`<!-- F6.3 -->`) is followed by the harness section it reproduces, fenced
as a code block. Name the blocks to refresh, by marker id (`T4.2 F4.8`) or
by chapter (`ch4`, `ch5`, `ch6`); only those blocks are rewritten, from
FILE (default `experiments_output.txt`). Re-running is idempotent.

With no ids it changes nothing: it lists the blocks whose committed text
differs from the harness output and exits 1, so that no refresh of one
chapter silently rewrites another.
"""

import re
import sys

# Map marker id -> section header prefix in the harness output.
HEADERS = {
    "T4.2": "== Table 4.2",
    "F4.8": "== Figure 4.8",
    "F4.9": "== Figure 4.9",
    "F4.10": "== Figure 4.10",
    "F4.11": "== Figure 4.11",
    "F4.12": "== Figure 4.12",
    "F4.13": "== Figure 4.13",
    "F4.14": "== Figure 4.14",
    "T5.1": "== Table 5.1",
    "T5.2": "== Table 5.2",
    "T5.3": "== Table 5.3",
    "T5.4": "== Table 5.4",
    "T5.5": "== Table 5.5",
    "T5.6": "== Table 5.6",
    "T6.1": "== Table 6.1",
    "F6.3": "== Figure 6.3",
    "F6.4": "== Figure 6.4",
    "T6.2": "== Table 6.2",
    "F6.5": "== Figure 6.5",
    "F6.6": "== Figure 6.6",
    "T6.3": "== Table 6.3",
    "F6.7": "== Figure 6.7",
    "F6.8": "== Figure 6.8",
}


def sections(text):
    """Split harness output into {header_line: body} chunks."""
    out = {}
    current = None
    body = []
    for line in text.splitlines():
        if line.startswith("== "):
            if current:
                out[current] = "\n".join(body).strip()
            current = line
            body = []
        elif current is not None:
            body.append(line)
    if current:
        out[current] = "\n".join(body).strip()
    return out


def marker_pattern(marker):
    """The bare marker, or the marker and its spliced block."""
    return re.compile(
        rf"<!-- {re.escape(marker)} -->(\n```text\n.*?\n```)?", re.DOTALL
    )


def expand(names):
    """Marker ids named directly or by chapter, in EXPERIMENTS.md order."""
    wanted = set()
    for name in names:
        chapter = re.fullmatch(r"ch(\d+)", name)
        ids = (
            [m for m in HEADERS if m[1:].split(".")[0] == chapter.group(1)]
            if chapter
            else [name] if name in HEADERS else []
        )
        if not ids:
            sys.exit(f"unknown marker id or chapter: {name} (ids: {' '.join(HEADERS)})")
        wanted.update(ids)
    return [m for m in HEADERS if m in wanted]


def main():
    args = sys.argv[1:]
    out = "experiments_output.txt"
    if args[:1] == ["--from"]:
        if len(args) < 2:
            sys.exit("--from needs a file")
        out, args = args[1], args[2:]
    secs = sections(open(out).read())
    md = open("EXPERIMENTS.md").read()

    def block(marker):
        match = next((k for k in secs if k.startswith(HEADERS[marker])), None)
        return match and f"<!-- {marker} -->\n```text\n{secs[match]}\n```"

    if not args:
        stale = []
        for marker in HEADERS:
            committed = marker_pattern(marker).search(md)
            fresh = block(marker)
            if committed is None or fresh is None or committed.group(0) != fresh:
                stale.append(marker)
        print("blocks differing from", out + ":", " ".join(stale) or "none")
        print("name the blocks to refresh, e.g. `ch4` or `T4.2 F4.8`", file=sys.stderr)
        sys.exit(1)

    markers = expand(args)
    for marker in markers:
        fresh = block(marker)
        if fresh is None:
            sys.exit(f"no harness section for {marker} in {out}; nothing written")
        # A function replacement, so backslashes in the block stay literal.
        md, n = marker_pattern(marker).subn(lambda _: fresh, md, count=1)
        if n == 0:
            sys.exit(f"marker {marker} not found in EXPERIMENTS.md; nothing written")

    open("EXPERIMENTS.md", "w").write(md)
    print("EXPERIMENTS.md: refreshed", " ".join(markers))


if __name__ == "__main__":
    main()
