#!/usr/bin/env python3
"""cellfi_lint — CellFi determinism & hygiene lint.

Enforces the determinism contract from DESIGN.md §10/§11: sweep outcomes
must depend only on (config, topology), never on thread count, completion
order, or wall clock. The linter is AST-free (regex + light context) so it
runs in milliseconds with no dependency beyond Python 3; it is wired into
ctest as `lint_test` so a stray `rand()` in a sim path fails the build's
test suite, not just code review.

Rules live in `tools/lint_rules/*.json`, one file per rule:

  {
    "id":      "no-libc-rand",          // stable rule id, used in allow()
    "kind":    "regex",                  // regex | unordered-iter | env-doc
    "pattern": "...",                    // for kind == regex / float-seed-ish
    "message": "human-facing finding text",
    "paths":   ["src/", "bench/"],       // path prefixes the rule applies to
    "exclude": ["src/cellfi/common/rng.h"]
  }

Suppression is per line, with a justification encouraged; a comment-only
allow() line suppresses the line that follows it:

  code();  // cellfi-lint: allow(no-unordered-iter) — commutative count

  // cellfi-lint: allow(no-unordered-iter) — commutative count
  for (const auto& [k, v] : unordered_thing_) { ... }

Matching happens on a sanitized copy of each line: string/char literal
contents and comments (// and /* */) are blanked first, so prose never
trips a rule and suppressions cannot hide in strings.

Modes:
  cellfi_lint.py --repo DIR              lint DIR/{src,bench,tests,examples}
  cellfi_lint.py --root DIR              lint every C++ file under DIR
                                         (selftest fixtures; README.md in DIR)
  ... --expect FILE                      compare findings against FILE
                                         ("path:line: rule-id" lines) and
                                         fail on any difference
  ... --strict-allow                     stale-suppression audit: an allow()
                                         comment whose rule no longer fires
                                         on its line (or that names an
                                         unknown rule id) is reported as a
                                         `stale-allow` finding, so
                                         suppressions cannot outlive the
                                         code they excused
  ... --list-rules                       print the loaded rule catalog
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".cc", ".cpp", ".cxx", ".h", ".hpp"}
REPO_SCAN_DIRS = ("src", "bench", "tests", "examples")
# Fixture trees contain violations on purpose; never lint them in repo mode.
REPO_EXCLUDE_PARTS = ("tests/lint_selftest",)

ALLOW_RE = re.compile(r"cellfi-lint:\s*allow\(([^)]*)\)")
# Declarations of unordered containers, e.g.
#   std::unordered_map<UeId, Entry> heard_;
#   std::unordered_set<std::uint64_t> cancelled_;
UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;{]*>\s+(\w+)\s*(?:;|=|\{)"
)
# Type aliases that resolve to unordered containers, collected cross-file so
# a `CellMap cells_;` member behind `using CellMap = std::unordered_map<...>`
# still registers `cells_` as unordered:
#   using CellMap = std::unordered_map<CellId, Entry>;
#   typedef std::unordered_map<CellId, Entry> CellMap;
UNORDERED_ALIAS_USING_RE = re.compile(
    r"\busing\s+(\w+)\s*=\s*(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<"
)
UNORDERED_ALIAS_TYPEDEF_RE = re.compile(
    r"\btypedef\s+(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<[^;]*>\s*(\w+)\s*;"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;)]*):([^)]*)\)")
ENV_LOOKUP_RE = re.compile(r"\b(?:getenv|setenv|EnvInt)\s*\(\s*\"([A-Z][A-Z0-9_]+)\"")


class Finding:
    __slots__ = ("path", "line", "rule_id", "message")

    def __init__(self, path: str, line: int, rule_id: str, message: str):
        self.path = path
        self.line = line
        self.rule_id = rule_id
        self.message = message

    def key(self) -> str:
        return f"{self.path}:{self.line}: {self.rule_id}"

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}: [{self.rule_id}] {self.message}\n"
            f"    (suppress with: // cellfi-lint: allow({self.rule_id}) — <why>)"
        )


def load_rules(rules_dir: Path) -> list[dict]:
    rules = []
    for path in sorted(rules_dir.glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            rule = json.load(fh)
        for required in ("id", "kind", "message"):
            if required not in rule:
                raise SystemExit(f"cellfi_lint: rule {path} missing '{required}'")
        if rule["kind"] == "regex":
            rule["_regex"] = re.compile(rule["pattern"])
        rules.append(rule)
    if not rules:
        raise SystemExit(f"cellfi_lint: no rules found in {rules_dir}")
    return rules


def sanitize_lines(text: str) -> list[str]:
    """Blank string/char literal contents and comments, preserving line
    structure and column positions so reported line numbers stay exact."""
    out: list[str] = []
    in_block = False
    for raw in text.splitlines():
        buf = []
        i, n = 0, len(raw)
        while i < n:
            c = raw[i]
            if in_block:
                if c == "*" and i + 1 < n and raw[i + 1] == "/":
                    in_block = False
                    buf.append("  ")
                    i += 2
                else:
                    buf.append(" ")
                    i += 1
                continue
            if c == "/" and i + 1 < n and raw[i + 1] == "/":
                buf.append(" " * (n - i))
                break
            if c == "/" and i + 1 < n and raw[i + 1] == "*":
                in_block = True
                buf.append("  ")
                i += 2
                continue
            if c in "\"'":
                quote = c
                buf.append(quote)
                i += 1
                while i < n:
                    if raw[i] == "\\" and i + 1 < n:
                        buf.append("  ")
                        i += 2
                        continue
                    if raw[i] == quote:
                        buf.append(quote)
                        i += 1
                        break
                    buf.append(" ")
                    i += 1
                continue
            buf.append(c)
            i += 1
        out.append("".join(buf))
    return out


def build_allow_map(
    raw: list[str], sanitized: list[str], allow_re: re.Pattern = ALLOW_RE
) -> list[dict[str, int]]:
    """allow-map per 1-indexed line: {rule-id: origin line of the allow()
    comment}. Same-line allow(), plus a comment-only allow() line carrying
    through any further comment-only lines to the first code line after it
    (NOLINTNEXTLINE-style, multi-line justifications ok). Origin lines feed
    the --strict-allow stale-suppression audit: an allow() whose rule never
    fires on any line it covers is itself a finding."""
    n = len(raw)
    allow: list[dict[str, int]] = [{} for _ in range(n + 2)]

    def grant(line: int, ids: set[str], origin: int) -> None:
        for rule_id in ids:
            allow[line].setdefault(rule_id, origin)

    for idx, raw_line in enumerate(raw, start=1):
        m = allow_re.search(raw_line)
        if not m:
            continue
        ids = {tok.strip() for tok in m.group(1).split(",") if tok.strip()}
        if not ids:
            continue
        grant(idx, ids, idx)
        if not sanitized[idx - 1].strip():  # comment-only line
            nxt = idx + 1
            while nxt <= n and not sanitized[nxt - 1].strip():
                grant(nxt, ids, idx)
                nxt += 1
            if nxt <= n:
                grant(nxt, ids, idx)
    return allow


def collect_allow_origins(
    raw: list[str], allow_re: re.Pattern = ALLOW_RE
) -> list[tuple[int, str]]:
    """Every (line, rule-id) pair declared by an allow() comment in `raw`."""
    origins: list[tuple[int, str]] = []
    for idx, raw_line in enumerate(raw, start=1):
        m = allow_re.search(raw_line)
        if not m:
            continue
        for tok in m.group(1).split(","):
            if tok.strip():
                origins.append((idx, tok.strip()))
    return origins


def rule_applies(rule: dict, rel_path: str) -> bool:
    paths = rule.get("paths")
    if paths and not any(rel_path.startswith(p) for p in paths):
        return False
    if any(rel_path == e or rel_path.startswith(e) for e in rule.get("exclude", [])):
        return False
    return True


def trailing_identifier(expr: str) -> str:
    """Identifier a range-for actually iterates: `net.cells()` -> `cells`,
    `stats.ue_subchannel_subframes` -> `ue_subchannel_subframes`."""
    expr = expr.strip()
    expr = re.sub(r"\(\s*\)$", "", expr).strip()
    m = re.search(r"(\w+)$", expr)
    return m.group(1) if m else ""


class Linter:
    def __init__(self, rules: list[dict], root: Path, files: list[Path]):
        self.rules = rules
        self.root = root
        self.files = files
        self.findings: list[Finding] = []
        # Pass 1 products, shared by the context-sensitive rules.
        self.unordered_names: set[str] = set()
        self.unordered_aliases: set[str] = set()
        self.sanitized: dict[Path, list[str]] = {}
        self.raw: dict[Path, list[str]] = {}
        # (rel-path, allow-origin-line, rule-id) triples that suppressed at
        # least one finding — the complement is the --strict-allow audit.
        self.used_allows: set[tuple[str, int, str]] = set()

    def rel(self, path: Path) -> str:
        return path.relative_to(self.root).as_posix()

    def run(self) -> list[Finding]:
        for path in self.files:
            text = path.read_text(encoding="utf-8", errors="replace")
            self.raw[path] = text.splitlines()
            san = sanitize_lines(text)
            self.sanitized[path] = san
            for line in san:
                for m in UNORDERED_DECL_RE.finditer(line):
                    self.unordered_names.add(m.group(1))
                for m in UNORDERED_ALIAS_USING_RE.finditer(line):
                    self.unordered_aliases.add(m.group(1))
                for m in UNORDERED_ALIAS_TYPEDEF_RE.finditer(line):
                    self.unordered_aliases.add(m.group(1))

        # Pass 1.5: declarations typed by a collected alias register their
        # variable exactly like a direct unordered declaration would. Aliases
        # are collected across every file first, so a header's `using CellMap
        # = std::unordered_map<...>` covers a .cc's `CellMap cells_;`.
        if self.unordered_aliases:
            alias_alt = "|".join(sorted(re.escape(a) for a in self.unordered_aliases))
            alias_decl_re = re.compile(
                rf"\b(?:{alias_alt})\s+(\w+)\s*(?:;|=|\{{)"
            )
            for path in self.files:
                for line in self.sanitized[path]:
                    for m in alias_decl_re.finditer(line):
                        self.unordered_names.add(m.group(1))

        for path in self.files:
            rel = self.rel(path)
            san = self.sanitized[path]
            allow = build_allow_map(self.raw[path], san)
            for rule in self.rules:
                if not rule_applies(rule, rel):
                    continue
                kind = rule["kind"]
                for lineno, code in enumerate(san, start=1):
                    if kind == "regex":
                        hit = rule["_regex"].search(code)
                    elif kind == "unordered-iter":
                        hit = self._unordered_iter_hit(code)
                    else:
                        raise SystemExit(f"cellfi_lint: unknown rule kind '{kind}'")
                    if not hit:
                        continue
                    if rule["id"] in allow[lineno]:
                        self.used_allows.add((rel, allow[lineno][rule["id"]], rule["id"]))
                        continue
                    self.findings.append(Finding(rel, lineno, rule["id"], rule["message"]))
        self.findings.sort(key=lambda f: (f.path, f.line, f.rule_id))
        return self.findings

    def stale_allow_findings(self, known_rules: set[str]) -> list[Finding]:
        """--strict-allow audit: every allow() whose rule id never suppressed
        a finding is stale — the hazard was fixed (drop the comment) or the
        rule id is misspelled (the comment never protected anything)."""
        stale = []
        for path in self.files:
            rel = self.rel(path)
            for line, rule_id in collect_allow_origins(self.raw[path]):
                if (rel, line, rule_id) in self.used_allows:
                    continue
                why = ("unknown rule id" if rule_id not in known_rules
                       else "rule no longer fires on the suppressed line")
                stale.append(Finding(
                    rel, line, "stale-allow",
                    f"allow({rule_id}) suppresses nothing ({why}); "
                    f"delete the comment or fix the rule id"))
        return stale

    def _unordered_iter_hit(self, code: str):
        for m in RANGE_FOR_RE.finditer(code):
            range_expr = m.group(2)
            if "unordered_" in range_expr:
                return True
            if trailing_identifier(range_expr) in self.unordered_names:
                return True
            # A temporary / cast spelled via a collected alias type.
            if any(re.search(rf"\b{re.escape(a)}\b", range_expr)
                   for a in self.unordered_aliases):
                return True
        return False



def run_env_doc(linter: Linter, rule: dict, readme_text: str) -> list[Finding]:
    findings = []
    prefix = rule.get("prefix", "CELLFI_")
    for path in linter.files:
        rel = linter.rel(path)
        if not rule_applies(rule, rel):
            continue
        allow = build_allow_map(linter.raw[path], linter.sanitized[path])
        for lineno, raw_line in enumerate(linter.raw[path], start=1):
            for m in ENV_LOOKUP_RE.finditer(raw_line):
                name = m.group(1)
                if not name.startswith(prefix):
                    continue
                if name in readme_text:
                    continue
                if rule["id"] in allow[lineno]:
                    linter.used_allows.add((rel, allow[lineno][rule["id"]], rule["id"]))
                    continue
                findings.append(
                    Finding(rel, lineno, rule["id"], f"{rule['message']} (knob: {name})")
                )
    return findings


def collect_files(root: Path, repo_mode: bool) -> list[Path]:
    files: list[Path] = []
    if repo_mode:
        tops = [root / d for d in REPO_SCAN_DIRS]
    else:
        tops = [root]
    for top in tops:
        if not top.is_dir():
            continue
        for path in sorted(top.rglob("*")):
            if path.suffix not in CXX_SUFFIXES or not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            if repo_mode and any(part in rel for part in REPO_EXCLUDE_PARTS):
                continue
            files.append(path)
    return files


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--repo", metavar="DIR", help="repo root; lints src/ bench/ tests/ examples/")
    mode.add_argument("--root", metavar="DIR", help="lint every C++ file under DIR (fixture mode)")
    ap.add_argument("--rules", metavar="DIR", help="rules directory (default: <script>/lint_rules)")
    ap.add_argument("--expect", metavar="FILE", help="selftest: compare findings to FILE")
    ap.add_argument("--strict-allow", action="store_true",
                    help="fail on allow() comments whose rule no longer fires "
                         "on the suppressed line (stale-suppression audit)")
    ap.add_argument("--list-rules", action="store_true", help="print rule catalog and exit")
    args = ap.parse_args(argv)

    rules_dir = Path(args.rules) if args.rules else Path(__file__).resolve().parent / "lint_rules"
    rules = load_rules(rules_dir)

    if args.list_rules:
        for rule in rules:
            print(f"{rule['id']:<22} [{rule['kind']}] {rule['message']}")
        return 0

    if args.repo is None and args.root is None:
        ap.error("one of --repo or --root is required")
    repo_mode = args.repo is not None
    root = Path(args.repo if repo_mode else args.root).resolve()
    if not root.is_dir():
        print(f"cellfi_lint: no such directory: {root}", file=sys.stderr)
        return 2
    files = collect_files(root, repo_mode)
    if not files:
        print(f"cellfi_lint: no C++ files under {root}", file=sys.stderr)
        return 2

    linter = Linter([r for r in rules if r["kind"] != "env-doc"], root, files)
    findings = linter.run()
    readme_text = ""
    if (root / "README.md").is_file():
        readme_text = (root / "README.md").read_text(encoding="utf-8", errors="replace")
    for rule in rules:
        if rule["kind"] == "env-doc":
            findings.extend(run_env_doc(linter, rule, readme_text))
    if args.strict_allow:
        findings.extend(linter.stale_allow_findings({r["id"] for r in rules}))
    findings.sort(key=lambda f: (f.path, f.line, f.rule_id))

    if args.expect:
        expected = [
            ln.strip()
            for ln in Path(args.expect).read_text(encoding="utf-8").splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")
        ]
        actual = [f.key() for f in findings]
        if actual == expected:
            print(f"cellfi_lint selftest OK: {len(actual)} expected findings matched")
            return 0
        print("cellfi_lint selftest FAILED — findings differ from expectations:")
        for line in sorted(set(expected) - set(actual)):
            print(f"  missing:    {line}")
        for line in sorted(set(actual) - set(expected)):
            print(f"  unexpected: {line}")
        if len(actual) == len(expected) and set(actual) == set(expected):
            print("  (same findings, different order)")
        return 1

    if findings:
        for f in findings:
            print(f.render())
        print(
            f"\ncellfi_lint: {len(findings)} finding(s) in {len(files)} files "
            f"({len(rules)} rules)"
        )
        return 1
    print(f"cellfi_lint: clean — {len(files)} files, {len(rules)} rules")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
