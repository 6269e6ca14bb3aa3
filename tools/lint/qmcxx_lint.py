#!/usr/bin/env python3
"""qmcxx-lint: repo-contract linter for determinism / layout / precision.

Generic tools (compiler warnings, clang-tidy) cannot see qmcxx's
repo-specific invariants, so this linter encodes them directly.  Each
rule guards a contract established by an earlier PR; docs/API.md
("Static analysis & enforced invariants") documents every rule with its
rationale.

Rules
-----
rng-outside-core         All randomness must flow through
                         src/numerics/rng.h + src/concurrency/rng_streams.h
                         (bitwise-deterministic SplitMix64-derived streams,
                         PR 4). Any other <random>/libc RNG use breaks
                         chain reproducibility.
aos-in-hot-path          Hot-path directories (src/wavefunction/,
                         src/hamiltonian/, src/numerics/) must not call the
                         AoS compatibility accessors ParticleSet::positions()
                         / ::pos() -- positions are SoA-canonical (PR 3);
                         positions() is a scatter-on-demand O(N) copy.
chrono-outside-instrument  std::chrono reads only inside src/instrument/
                         (single timing authority; thread-local accumulation
                         merged at barriers, PR 4's torn-timer guard).
cout-in-src              No std::cout in src/: the library reports through
                         instrument/report.h or returns data; stdout
                         belongs to the drivers' callers.
io-outside-snapshot      Raw file I/O (fstream/fopen/fwrite/fread) in src/
                         and examples/ is confined to src/io/ and
                         src/instrument/ (PR 7): one subsystem owns file
                         formats (qmcxx-snap-v1, JSONL streams), the
                         atomic write-then-rename discipline, and error
                         reporting. bench/ and tests/ are exempt.
double-in-tr-template    No bare `double` locals inside code templated on
                         the compute-precision parameter TR. Precision is a
                         per-declaration decision: use TR for compute-
                         resident values and qmcxx::FullPrecReal
                         (src/config/config.h) for deliberate full-precision
                         accumulators, so the mixed-precision audit
                         (paper Sec. 7.2/8.3) stays grep-able.
scalar-spo-in-crowd-path No scalar evaluate_v(...) / evaluate_vgl(...)
                         calls inside mw_* method bodies under
                         src/wavefunction/ (PR 8): crowd paths must hand
                         whole position batches to the backend
                         (mw_evaluate_v / evaluate_*_multi). A per-walker
                         scalar loop in an mw_ method silently forfeits
                         the batched-kernel speedup; deliberate fallback
                         loops carry an inline allow annotation.
float-accumulator-in-estimator  No reduced-precision accumulators inside
                         src/estimators/ (PR 9): estimator bins sum over
                         walkers and generations and are compared bitwise
                         across engine variants, so sample buffers and
                         partial sums must be qmcxx::FullPrecReal -- a
                         `float` or TR-typed accumulator drifts under
                         accumulation. TR stays legal for *reading* table
                         rows (`const TR*` views); only value/vector
                         declarations in TR or float are flagged.
fullprec-drift-accumulator  Inverse-drift guard accumulators in
                         src/wavefunction/ (PR 10): any scalar whose name
                         mentions drift/residual holds the Sec. 7.2 guard
                         residual `max_m |psi_row . A^-1 - e_k|` and must be
                         declared qmcxx::FullPrecReal. A TR- or float-typed
                         residual computed *in* the monitored precision
                         cannot see the drift it is guarding against.
                         Row *storage* (Matrix<TR> scratch) stays TR -- only
                         scalar declarations are flagged.

Suppression
-----------
A finding is suppressed by an inline annotation on the same line or the
line directly above:

    // qmcxx-lint: allow(rule-id)

or for a whole file (placed anywhere, conventionally in the header
comment):

    // qmcxx-lint: allow-file(rule-id)

Suppressions are part of the contract: each one should carry a short
justification in the surrounding comment.

Usage
-----
    python3 tools/lint/qmcxx_lint.py [--list-rules] [--verbose] PATH...

Exits 0 when the tree is clean, 1 when any unsuppressed finding remains,
2 on usage errors.  PATHs are files or directories searched recursively
for .h / .cpp files; paths are interpreted relative to the repo root
(the directory containing tools/), so rule scoping by directory works
from any CWD.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

CXX_EXTENSIONS = (".h", ".hpp", ".cpp", ".cc", ".cxx")

ALLOW_RE = re.compile(r"//\s*qmcxx-lint:\s*allow\(([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\)")
ALLOW_FILE_RE = re.compile(r"//\s*qmcxx-lint:\s*allow-file\(([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\)")


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str


@dataclass
class Rule:
    rule_id: str
    description: str

    def applies_to(self, relpath: str) -> bool:
        raise NotImplementedError

    def scan(self, relpath: str, lines: list[str]) -> list[Finding]:
        raise NotImplementedError


def _strip_comments_and_strings(lines: list[str]) -> list[str]:
    """Blank out comments and string/char literals, preserving line
    structure so findings keep their line numbers."""
    out = []
    in_block = False
    for line in lines:
        res = []
        i, n = 0, len(line)
        while i < n:
            c = line[i]
            if in_block:
                if c == "*" and i + 1 < n and line[i + 1] == "/":
                    in_block = False
                    i += 2
                else:
                    i += 1
                continue
            if c == "/" and i + 1 < n and line[i + 1] == "/":
                break  # rest of line is a comment
            if c == "/" and i + 1 < n and line[i + 1] == "*":
                in_block = True
                i += 2
                continue
            if c in "\"'":
                quote = c
                res.append(quote)
                i += 1
                while i < n:
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        break
                    i += 1
                res.append(quote)
                i += 1
                continue
            res.append(c)
            i += 1
        out.append("".join(res))
    return out


class PatternRule(Rule):
    """Regex rule over comment/string-stripped code lines."""

    def __init__(self, rule_id: str, description: str, pattern: str, message: str,
                 include_dirs: tuple[str, ...] = (), exclude_files: tuple[str, ...] = (),
                 exclude_dirs: tuple[str, ...] = ()):
        super().__init__(rule_id, description)
        self.pattern = re.compile(pattern)
        self.message = message
        self.include_dirs = include_dirs
        self.exclude_files = exclude_files
        self.exclude_dirs = exclude_dirs

    def applies_to(self, relpath: str) -> bool:
        if relpath in self.exclude_files:
            return False
        if any(relpath.startswith(d) for d in self.exclude_dirs):
            return False
        if not self.include_dirs:
            return True
        return any(relpath.startswith(d) for d in self.include_dirs)

    def scan(self, relpath: str, lines: list[str]) -> list[Finding]:
        findings = []
        for lineno, text in enumerate(_strip_comments_and_strings(lines), start=1):
            m = self.pattern.search(text)
            if m:
                findings.append(Finding(relpath, lineno, self.rule_id,
                                        f"{self.message} (matched '{m.group(0).strip()}')"))
        return findings


class DoubleInTRTemplateRule(Rule):
    """Flag bare `double` local declarations inside TR-templated code.

    Heuristic scanner, not a full parser: a `template <...>` header whose
    parameter list declares `typename TR` / `class TR` opens a TR scope
    at the next top-level `{`; within that scope (class bodies included,
    since member functions of a TR-templated class are themselves
    templated on TR) any statement-position `double x = ...;` /
    `double x;` / `double x{...};` / `double x, y;` declaration is
    flagged.  `double f(...)` declarator forms are treated as function
    declarations and ignored; so are data members directly at class
    scope only when marked with the inline allow annotation -- members
    hold state across moves and are subject to the same audit.
    """

    TEMPLATE_RE = re.compile(r"template\s*<[^<>]*\b(?:typename|class)\s+TR\b")
    # Statement-position bare-double declaration. Requires an initializer
    # or terminator so `double name(` (function declarator) is skipped.
    DECL_RE = re.compile(
        r"^\s*(?:static\s+|constexpr\s+|const\s+)*double\s+[A-Za-z_]\w*\s*(?:=|\{|;|,|\[)")

    def __init__(self, rule_id: str, description: str):
        super().__init__(rule_id, description)

    def applies_to(self, relpath: str) -> bool:
        return True

    def scan(self, relpath: str, lines: list[str]) -> list[Finding]:
        findings = []
        code = _strip_comments_and_strings(lines)
        depth = 0                 # global brace depth
        tr_scopes: list[int] = [] # depths at which TR template scopes opened
        pending_template = False  # saw TR template header, waiting for '{'
        for lineno, text in enumerate(code, start=1):
            if self.TEMPLATE_RE.search(text):
                pending_template = True
            if tr_scopes and not pending_template and self.DECL_RE.match(text):
                findings.append(Finding(
                    relpath, lineno, self.rule_id,
                    "bare `double` local in TR-templated code: use TR for "
                    "compute-resident values or qmcxx::FullPrecReal for "
                    "deliberate full-precision accumulators"))
            for ch in text:
                if ch == "{":
                    if pending_template:
                        tr_scopes.append(depth)
                        pending_template = False
                    depth += 1
                elif ch == "}":
                    depth -= 1
                    if tr_scopes and depth == tr_scopes[-1]:
                        tr_scopes.pop()
            # A template header that resolved into a declaration without a
            # body (e.g. `template<typename TR> class X;`) stops pending.
            if pending_template and re.search(r";\s*$", text) and "{" not in text:
                pending_template = False
        return findings


class ScalarSpoInCrowdPathRule(Rule):
    """Flag scalar SPO evaluation calls inside mw_* method bodies.

    Heuristic scanner in the style of DoubleInTRTemplateRule: a method
    definition header `void/double mw_...(...)` opens an mw scope at the
    next top-level `{` (a header that resolves into a `;`-terminated
    declaration opens nothing); within that scope any `evaluate_v(` /
    `evaluate_vgl(` call is flagged.  Batched entry points do not match:
    `mw_evaluate_v(` is shielded by the identifier lookbehind and
    `evaluate_v_multi(` / `evaluate_vgh(` by the terminal paren.
    """

    MW_DEF_RE = re.compile(r"\b(?:void|double)\s+mw_\w+\s*\(")
    CALL_RE = re.compile(r"(?<![\w])evaluate_v(?:gl)?\s*\(")

    def __init__(self, rule_id: str, description: str,
                 include_dirs: tuple[str, ...] = ()):
        super().__init__(rule_id, description)
        self.include_dirs = include_dirs

    def applies_to(self, relpath: str) -> bool:
        if not self.include_dirs:
            return True
        return any(relpath.startswith(d) for d in self.include_dirs)

    def scan(self, relpath: str, lines: list[str]) -> list[Finding]:
        findings = []
        code = _strip_comments_and_strings(lines)
        depth = 0                  # global brace depth
        mw_scopes: list[int] = []  # depths at which mw_ method bodies opened
        pending_mw = False         # saw an mw_ definition header, waiting for '{'
        for lineno, text in enumerate(code, start=1):
            if self.MW_DEF_RE.search(text):
                pending_mw = True
            if mw_scopes and self.CALL_RE.search(text):
                findings.append(Finding(
                    relpath, lineno, self.rule_id,
                    "scalar SPO evaluation inside an mw_* crowd method: hand "
                    "the whole position batch to the backend (mw_evaluate_v / "
                    "mw_evaluate_vgl / evaluate_*_multi) or annotate a "
                    "deliberate fallback loop"))
            for ch in text:
                if ch == "{":
                    if pending_mw:
                        mw_scopes.append(depth)
                        pending_mw = False
                    depth += 1
                elif ch == "}":
                    depth -= 1
                    if mw_scopes and depth == mw_scopes[-1]:
                        mw_scopes.pop()
            # An mw_ header that resolved into a declaration without a
            # body (pure virtual / forward declaration) opens no scope.
            if pending_mw and re.search(r";\s*$", text) and "{" not in text:
                pending_mw = False
        return findings


RULES: list[Rule] = [
    PatternRule(
        "rng-outside-core",
        "randomness outside src/numerics/rng.h + src/concurrency/rng_streams.h",
        r"\b(?:std::mt19937(?:_64)?|std::minstd_rand0?|std::random_device|"
        r"std::default_random_engine|std::uniform_(?:int|real)_distribution|"
        r"std::(?:rand|srand)\b|drand48|lrand48|random\s*\(\s*\)|rand\s*\(\s*\)|srand\s*\()",
        "randomness must flow through RandomGenerator / SplitMix64 streams "
        "(src/numerics/rng.h, src/concurrency/rng_streams.h) to keep chains "
        "bitwise-deterministic",
        exclude_files=("src/numerics/rng.h", "src/concurrency/rng_streams.h"),
    ),
    PatternRule(
        "aos-in-hot-path",
        "AoS position accessors in hot-path directories",
        r"(?:\.|->)\s*(?:positions|pos)\s*\(",
        "hot-path code must consume SoA positions (ParticleSet::Rsoa() rows "
        "or DTRowView); positions()/pos() are AoS compatibility scatters",
        include_dirs=("src/wavefunction/", "src/hamiltonian/", "src/numerics/"),
    ),
    PatternRule(
        "chrono-outside-instrument",
        "std::chrono outside src/instrument/",
        r"\bstd::chrono\b|\bsteady_clock\b|\bhigh_resolution_clock\b|\bsystem_clock\b"
        r"|#\s*include\s*<chrono>",
        "wall-clock reads belong to src/instrument/ (Stopwatch / ScopedTimer); "
        "ad-hoc clocks reintroduce the torn-timer hazard PR 4 removed",
        exclude_dirs=("src/instrument/",),
    ),
    PatternRule(
        "io-outside-snapshot",
        "raw file I/O outside src/io/ + src/instrument/",
        r"\b(?:std::)?(?:i|o)?fstream\b|\bfopen\s*\(|\bfreopen\s*\(|\bfwrite\s*\(|"
        r"\bfread\s*\(",
        "file I/O in library and example code must go through src/io/ "
        "(snapshot.h, json.h, job_spec.h): one place owns formats, "
        "atomic-rename discipline, and error reporting",
        include_dirs=("src/", "examples/"),
        exclude_dirs=("src/io/", "src/instrument/"),
    ),
    PatternRule(
        "cout-in-src",
        "std::cout inside src/",
        r"\bstd::cout\b",
        "the library must not write to stdout; report through "
        "instrument/report.h or return data to the caller",
        include_dirs=("src/",),
    ),
    DoubleInTRTemplateRule(
        "double-in-tr-template",
        "bare `double` locals in TR-templated code",
    ),
    ScalarSpoInCrowdPathRule(
        "scalar-spo-in-crowd-path",
        "scalar evaluate_v/evaluate_vgl calls inside mw_* crowd methods",
        include_dirs=("src/wavefunction/",),
    ),
    PatternRule(
        "float-accumulator-in-estimator",
        "reduced-precision accumulators in src/estimators/",
        r"\bfloat\b|\bstd::vector<\s*TR\s*>|\bTR\s+[A-Za-z_]\w*\s*=\s*(?:0\b|TR\s*[({])",
        "estimator bins and partial sums accumulate over walkers and "
        "generations and compare bitwise across engine variants: declare "
        "them qmcxx::FullPrecReal (float / TR values drift under "
        "accumulation); TR remains legal for table-row views",
        include_dirs=("src/estimators/",),
    ),
    PatternRule(
        "fullprec-drift-accumulator",
        "reduced-precision drift-guard accumulators in src/wavefunction/",
        r"\b(?:TR|float)\s+\w*(?:residual|drift)\w*\s*(?:=|\{|;|,)",
        "drift-guard residuals compare against a full-precision identity "
        "(Sec. 7.2): declare them qmcxx::FullPrecReal -- a TR/float "
        "residual computed in the monitored precision cannot see the "
        "drift it guards against",
        include_dirs=("src/wavefunction/",),
    ),
]

def collect_files(paths: list[str]) -> list[str]:
    files: list[str] = []
    for p in paths:
        ap = p if os.path.isabs(p) else os.path.join(REPO_ROOT, p)
        if os.path.isfile(ap):
            files.append(ap)
        elif os.path.isdir(ap):
            for dirpath, dirnames, filenames in os.walk(ap):
                dirnames.sort()
                for fn in sorted(filenames):
                    if fn.endswith(CXX_EXTENSIONS):
                        files.append(os.path.join(dirpath, fn))
        else:
            print(f"qmcxx-lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return files


def lint_file(abspath: str) -> list[Finding]:
    relpath = os.path.relpath(abspath, REPO_ROOT).replace(os.sep, "/")
    try:
        with open(abspath, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
    except OSError as e:
        print(f"qmcxx-lint: cannot read {relpath}: {e}", file=sys.stderr)
        sys.exit(2)

    file_allows: set[str] = set()
    line_allows: dict[int, set[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        m = ALLOW_FILE_RE.search(text)
        if m:
            file_allows.update(s.strip() for s in m.group(1).split(","))
        m = ALLOW_RE.search(text)
        if m:
            rules = {s.strip() for s in m.group(1).split(",")}
            # An inline allow covers its own line and the line below it.
            line_allows.setdefault(lineno, set()).update(rules)
            line_allows.setdefault(lineno + 1, set()).update(rules)

    findings: list[Finding] = []
    for rule in RULES:
        if rule.rule_id in file_allows or not rule.applies_to(relpath):
            continue
        for f in rule.scan(relpath, lines):
            if f.rule in line_allows.get(f.line, set()):
                continue
            findings.append(f)
    return findings


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="qmcxx_lint.py",
                                 description="qmcxx repo-contract linter")
    ap.add_argument("paths", nargs="*", help="files or directories to lint")
    ap.add_argument("--list-rules", action="store_true", help="print rule ids and exit")
    ap.add_argument("--verbose", action="store_true", help="print per-file progress")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.rule_id}: {rule.description}")
        return 0
    if not args.paths:
        ap.print_usage(sys.stderr)
        return 2

    files = collect_files(args.paths)
    all_findings: list[Finding] = []
    for f in files:
        if args.verbose:
            print(f"  lint {os.path.relpath(f, REPO_ROOT)}", file=sys.stderr)
        all_findings.extend(lint_file(f))

    for f in all_findings:
        print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
    n = len(all_findings)
    if n:
        print(f"qmcxx-lint: {n} finding{'s' if n != 1 else ''} in {len(files)} files")
        return 1
    print(f"qmcxx-lint: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
