#!/usr/bin/env python3
"""Strict documentation lint: doc comments, snippet symbols, and links.

Three checks, all mirrored by the `docs` CI job:

1. Doc-comment audit over the public headers (mirrors the Doxygen
   warnings-as-errors contract of `cmake --build build --target docs` for
   environments without doxygen): every public/protected declaration must
   be immediately preceded by a `///` (or `//`) doc comment, or carry a
   trailing `///<`.
2. Snippet-symbol audit over every fenced code block in docs/*.md: each
   block that names identifiers must name at least one REAL symbol
   (grepped against src/), so prose cannot drift away from the code it
   claims to document. Blocks with no identifier-shaped tokens (ASCII
   diagrams, algebra) are skipped.
3. Relative-link audit over README.md and docs/*.md: every relative
   markdown link must resolve to an existing file.

Usage: check_docs.py [repo_root]
       check_docs.py --self-test   # negative tests: seeded violations
                                   # of all three checks must be caught
Exits 1 listing every violation.
"""

import re
import sys
from pathlib import Path

HEADERS = [
    "src/core/operator.hpp",
    "src/core/hierarchical_operator.hpp",
    "src/core/factorization.hpp",
    "src/core/hss_view.hpp",
    "src/core/solvers.hpp",
    "src/la/ldlt.hpp",
    "src/la/qr.hpp",
    "src/la/eigen.hpp",
    "src/util/random.hpp",
    "src/spectral/eigs.hpp",
    "src/spectral/trace.hpp",
    "src/spectral/selected_inverse.hpp",
    "src/service/service_stats.hpp",
    "src/service/operator_cache.hpp",
    "src/service/solve_service.hpp",
]

SCOPE_RE = re.compile(
    r"^(template\s*<.*>\s*)?(class|struct|enum(\s+class)?|namespace|union)\b")


def audit(lines):
    """Return indices of undocumented declaration starts.

    A tiny scope tracker: braces opened by class/struct/enum/namespace
    declarations are 'scope' (their members are audited); braces opened by
    anything else (inline function bodies, initialisers) are 'body' and
    everything inside is skipped. Comment text is stripped before brace
    counting so prose braces cannot desynchronise the stack.
    """
    failures = []
    stack = []          # 'scope' | 'body' per open brace
    pending_kind = None  # kind of the statement currently being read
    stmt_open = False   # inside a multi-line statement
    in_private = False
    private_depth = 0

    for i, raw in enumerate(lines):
        code = re.sub(r"//.*$", "", raw).rstrip()
        stripped = raw.strip()
        in_body = "body" in stack

        if not in_body:
            if stripped == "private:":
                in_private, private_depth = True, len(stack)
            elif stripped in ("public:", "protected:"):
                in_private = False

        is_comment = stripped.startswith(("//", "/*", "*")) or stripped == ""
        starts_stmt = (not stmt_open and not in_body and not is_comment
                       and not stripped.startswith("#")
                       and not re.match(r"^\}", stripped)
                       and stripped not in ("public:", "private:",
                                            "protected:"))
        # A `template <...>` head puts class/struct on a continuation
        # line, so upgrade the pending kind whenever any line of the
        # statement names a scope-opening construct.
        if (starts_stmt or stmt_open) and SCOPE_RE.match(stripped):
            pending_kind = "scope"
        if starts_stmt:
            if not SCOPE_RE.match(stripped):
                pending_kind = "body"
            needs_doc = (
                not in_private
                and not re.match(r"^(extern\s+template|template\s+class|"
                                 r"friend\s|namespace\s|using\s+gofmm)",
                                 stripped))
            if needs_doc and not _has_doc(lines, i):
                failures.append(i)

        # Track statement continuation on code content.
        if code.strip() and not stripped.startswith("#"):
            if starts_stmt or stmt_open:
                stmt_open = not re.search(r"[;{}]\s*$", code.strip())

        for ch in code:
            if ch == "{":
                stack.append(pending_kind or "body")
                pending_kind = "scope" if stack[-1] == "scope" else None
                stmt_open = False
            elif ch == "}":
                if stack:
                    stack.pop()
                if in_private and len(stack) < private_depth:
                    in_private = False
    return failures


def _has_doc(lines, i):
    """Doc attached: /// (or //) block directly above, or ///< trailing on
    any line of the declaration statement."""
    j = i - 1
    if j >= 0 and lines[j].strip() != "" and (
            lines[j].strip().startswith(("///", "//", "*"))
            or lines[j].strip().endswith("*/")):
        return True
    k = i
    while k < len(lines):
        if "///<" in lines[k]:
            return True
        if re.search(r"[;{]\s*(//.*)?$", re.sub(r"//.*$", "",
                                                lines[k]).strip()) or \
                re.search(r"[;{]\s*$", lines[k].strip()):
            break
        k += 1
    return False


# Identifier shapes that count as "naming a symbol": CamelCase types and
# snake_case calls/members — the tokens a reader would grep for.
SNIPPET_TOKEN_RE = re.compile(
    r"\b([A-Z][a-z0-9]+(?:[A-Z][A-Za-z0-9]*)+|[a-z][a-z0-9]*(?:_[a-z0-9]+)+)\b")
FENCE_RE = re.compile(r"^\s*```")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def snippet_blocks(lines):
    """Yields (start_line_1based, [block lines]) per fenced code block."""
    block, start = None, 0
    for i, line in enumerate(lines):
        if FENCE_RE.match(line):
            if block is None:
                block, start = [], i + 1
            else:
                yield start, block
                block = None
        elif block is not None:
            block.append(line)
    # An unterminated fence is itself a doc bug; surface its content too.
    if block:
        yield start, block


def audit_snippets(doc_rel, lines, src_text):
    """Returns violations: fenced blocks whose identifiers name nothing
    that exists in src/. Blocks with no identifier-shaped token (ASCII
    diagrams, pure algebra) are skipped."""
    failures = []
    for start, block in snippet_blocks(lines):
        tokens = set()
        for line in block:
            tokens.update(SNIPPET_TOKEN_RE.findall(line))
        if not tokens:
            continue
        if not any(t in src_text for t in tokens):
            sample = ", ".join(sorted(tokens)[:4])
            failures.append(
                f"{doc_rel}:{start}: code snippet names no symbol found in "
                f"src/ (saw: {sample})")
    return failures


def audit_links(doc_rel, lines, root):
    """Returns violations: relative markdown links to missing files."""
    failures = []
    base = (root / doc_rel).parent
    for i, line in enumerate(lines):
        for target in LINK_RE.findall(line):
            if "://" in target or target.startswith(("#", "mailto:")):
                continue
            path = target.split("#")[0]
            if not path:
                continue
            resolved = (base / path).resolve()
            if root.resolve() not in resolved.parents and \
                    resolved != root.resolve():
                continue  # escapes the repo: GitHub web-relative (badges)
            if not (base / path).exists():
                failures.append(
                    f"{doc_rel}:{i + 1}: broken relative link '{target}'")
    return failures


def run_checks(root):
    failures = []
    for rel in HEADERS:
        lines = (root / rel).read_text().splitlines()
        for i in audit(lines):
            failures.append(f"{rel}:{i + 1}: undocumented declaration: "
                            f"{lines[i].strip()[:60]}")
    src_text = "\n".join(
        p.read_text() for pat in ("*.hpp", "*.cpp")
        for p in sorted((root / "src").rglob(pat)))
    docs = sorted((root / "docs").glob("*.md")) if (root / "docs").exists() \
        else []
    linked = [p for p in [root / "README.md"] + docs if p.exists()]
    for doc in docs:
        rel = str(doc.relative_to(root))
        failures += audit_snippets(rel, doc.read_text().splitlines(),
                                   src_text)
    for doc in linked:
        rel = str(doc.relative_to(root))
        failures += audit_links(rel, doc.read_text().splitlines(), root)
    return failures, len(docs), len(linked)


def self_test(root):
    """Negative tests: seeded violations of every check must be caught."""
    import shutil
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        fake = Path(tmp)
        for rel in HEADERS:
            (fake / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(root / rel, fake / rel)
        (fake / "docs").mkdir()
        (fake / "README.md").write_text("[docs](docs/BAD_TARGET.md)\n")
        (fake / "docs" / "bad.md").write_text(
            "A snippet naming a phantom symbol:\n"
            "```cpp\nop.no_such_symbol_xyz();\n```\n"
            "and a [broken link](../missing_page.md).\n")
        # Seed an undocumented declaration into an audited header.
        hdr = fake / HEADERS[0]
        text = hdr.read_text()
        hdr.write_text(text.replace(
            "}  // namespace gofmm",
            "struct UndocumentedSeed { int field; };\n}  // namespace gofmm"))
        failures, _, _ = run_checks(fake)
        expected = ["undocumented declaration", "names no symbol",
                    "broken relative link"]
        missing = [e for e in expected
                   if not any(e in f for f in failures)]
        if missing:
            print(f"SELF-TEST FAIL: seeded violations not caught: {missing}")
            for f in failures:
                print(f"  caught: {f}")
            return 1
    print(f"SELF-TEST OK: all {len(expected)} seeded violation kinds caught")
    return 0


def main():
    args = [a for a in sys.argv[1:] if a != "--self-test"]
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent
    if "--self-test" in sys.argv[1:]:
        return self_test(root)
    failures, num_docs, num_linked = run_checks(root)
    if failures:
        print(f"FAIL: {len(failures)} documentation violation(s):")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"OK: every public declaration documented across {len(HEADERS)} "
          f"headers; every snippet in {num_docs} docs pages names a real "
          f"symbol; every relative link across {num_linked} pages resolves")
    return 0


if __name__ == "__main__":
    sys.exit(main())
