#!/bin/sh
# Static gates for the lock-free core. Fails (non-zero) on:
#   1. headers under src/ without #pragma once,
#   2. atomic operations with an implicit (defaulted seq_cst) memory
#      order in the concurrency-critical directories — every load /
#      store / exchange / CAS / fetch_* there must spell out its
#      std::memory_order, so the ordering contract is visible at the
#      call site and survives the check::Atomic shim (which has no
#      defaulted-order overloads at all),
#   3. clang-tidy bugprone-* / concurrency-* findings (skipped with a
#      note when clang-tidy is not installed; CI installs it),
#   4. ha_trace_tool / ha_fleet_top --self-check (the offline analyzers
#      validate their own percentile / parsing / aggregation math),
#   5. docs consistency — every --flag mentioned in README / EXPERIMENTS /
#      DESIGN / ROADMAP must exist in the sources (or be a known external
#      tool's flag), and every "DESIGN.md §N.M" cross-reference must point
#      at a real DESIGN.md section heading,
#   6. per-field atomic ordering protocol — for every atomic field in the
#      gate-2 directories, acquire-side consumers (acquire loads, acquire
#      CAS failures, acquire RMWs) must be paired with at least one
#      release-side publisher (release/acq_rel/seq_cst store, exchange,
#      CAS success, or fetch_*) and vice versa: a one-sided protocol
#      means the order either buys nothing or protects nobody. Set
#      HA_LINT_GATE6_MUTANT=1 to also scan the committed mutant
#      (tests/lint/gate6_protocol_mutant.cc) and watch the gate fail —
#      proof the pairing check is live.
#   7. no config field without a writer — every field of every
#      `struct *Config` / `*Options` in src/**/*.h outside src/check/ must
#      be assigned (`.field =`, designated or `.field.member =` included)
#      in src bench perfbench tools examples tests, outside its header: a
#      field nothing sets is a named constexpr. Matching is by name, so a
#      collision only makes the gate more permissive. Set
#      HA_LINT_GATE7_MUTANT=1 to also scan the committed mutant
#      (tests/lint/gate7_unset_field_mutant.h) and watch the gate fail.
# Gates 2 and 6 run as one pass over one table of atomic call sites.
set -e
cd "$(dirname "$0")/.."

status=0

echo "-- gate 1: #pragma once in src/ headers"
missing=$(for h in $(find src -name '*.h'); do
  grep -L '^#pragma once$' "$h"
done)
if [ -n "$missing" ]; then
  echo "headers missing '#pragma once':"
  echo "$missing"
  status=1
fi

echo "-- gates 2 and 6: explicit memory orders and per-field ordering protocol in src/llfree src/core src/trace src/check src/hv src/balloon"
python3 - <<'EOF' || status=1
import os
import re
import sys
from pathlib import Path

# One site table of every atomic member operation in the concurrency-
# critical directories feeds both gates. Matched as member calls
# (".op(" / "->op("); the argument list is extracted with paren
# matching so multi-line calls and nested calls are handled.
OPS = ("load", "store", "exchange", "compare_exchange_weak",
       "compare_exchange_strong", "fetch_add", "fetch_sub", "fetch_or",
       "fetch_and", "fetch_xor")
ROOTS = ("src/llfree", "src/core", "src/trace", "src/check", "src/hv",
         "src/balloon")
# The shim is the one place that legitimately forwards caller-provided
# orders held in plain parameters — it has no defaulted-order overloads,
# which is the property gate 2 enforces everywhere else; its internal
# std::atomic member is not a protocol field for gate 6 either.
EXEMPT = {Path("src/check/shim.h")}
# Gate-6 self-test: the committed one-sided mutant joins the scan.
MUTANT = Path("tests/lint/gate6_protocol_mutant.cc")

call_re = re.compile(r"(?:\.|->)(%s)\s*\(" % "|".join(OPS))


def field_before(text, pos):
    """The member name the op is invoked on: the identifier before the
    ./-> accessor, skipping one trailing [index] or (call) group."""
    i = pos
    while i > 0 and text[i - 1] in ")]":
        close = text[i - 1]
        opener = "(" if close == ")" else "["
        depth = 0
        while i > 0:
            i -= 1
            if text[i] == close:
                depth += 1
            elif text[i] == opener:
                depth -= 1
                if depth == 0:
                    break
    j = i
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] == "_"):
        j -= 1
    return text[j:i]


files = []
for root in ROOTS:
    files += sorted(Path(root).rglob("*.cc")) + sorted(
        Path(root).rglob("*.h"))
files = [path for path in files if path not in EXEMPT]
if os.environ.get("HA_LINT_GATE6_MUTANT") == "1":
    files.append(MUTANT)

# (path, line, op, args, field) for every atomic member call.
sites = []
for path in files:
    text = path.read_text()
    for m in call_re.finditer(text):
        depth, i = 1, m.end()
        while i < len(text) and depth:
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
            i += 1
        sites.append((path, text.count("\n", 0, m.start()) + 1, m.group(1),
                      text[m.end():i - 1], field_before(text, m.start())))

failed = False

# Gate 2: every atomic operation there must spell out its
# std::memory_order (the defaulted order is seq_cst).
implicit = [f"{path}:{line}: .{op}({args.strip()[:60]}...) has no "
            f"explicit std::memory_order"
            for path, line, op, args, _ in sites
            if path != MUTANT and "memory_order" not in args]
if implicit:
    print("atomic operations with implicit seq_cst ordering:")
    print("\n".join(implicit))
    failed = True

# Gate 6: per field, acquire-side consumers need a release-side
# publisher and vice versa. An RMW with acq_rel (or seq_cst) counts as
# both, so CAS-transaction fields satisfy the rule by construction; the
# gate exists for split protocols (store-release / load-acquire) where a
# downgrade on either side silently breaks the other.
RELEASE = {"memory_order_release", "memory_order_acq_rel",
           "memory_order_seq_cst"}
ACQUIRE = {"memory_order_acquire", "memory_order_consume",
           "memory_order_acq_rel", "memory_order_seq_cst"}
# Lexical aliases for one location reached under two names: the global
# bit-field array is mutated through the AreaBits view (`words_`,
# src/llfree/bitfield.h) but read by the invariants oracle through the
# SharedState accessor (`bitfield()`). Extend this table deliberately —
# every entry is a pairing the lexical scan cannot see on its own.
ALIASES = {"bitfield": "words"}

publishers = {}  # field -> [site, ...]
consumers = {}
fields = set()
for path, line, op, args, field in sites:
    orders = re.findall(r"memory_order_\w+", args)
    if not orders or not field:
        continue  # forwarded parameter order (gate 2 polices this)
    # Repo convention: member `bitfield_` and accessor `bitfield()`
    # name the same location — aggregate them as one protocol field.
    field = ALIASES.get(field.rstrip("_"), field.rstrip("_"))
    fields.add(field)
    site = f"{path}:{line}: .{op}({', '.join(orders)})"
    if op == "load":
        acquire, release = orders[0] in ACQUIRE, False
    elif op == "store":
        acquire, release = False, orders[0] in RELEASE
    else:  # exchange / fetch_* / CAS, whose failure order may acquire
        acquire = orders[0] in ACQUIRE or (
            op.startswith("compare_exchange") and len(orders) > 1 and
            orders[1] in ACQUIRE)
        release = orders[0] in RELEASE
    if release:
        publishers.setdefault(field, []).append(site)
    if acquire:
        consumers.setdefault(field, []).append(site)

one_sided = []
for field in sorted(fields):
    if field in consumers and field not in publishers:
        one_sided.append(
            f"field '{field}' has acquire-side consumers but no "
            f"release/acq_rel/seq_cst publisher — the acquire orders "
            f"nothing:\n    " + "\n    ".join(consumers[field]))
    elif field in publishers and field not in consumers:
        one_sided.append(
            f"field '{field}' has release-side publishers but no "
            f"acquire-side consumer — nobody orders against the "
            f"release:\n    " + "\n    ".join(publishers[field]))
if one_sided:
    print("one-sided atomic ordering protocols:")
    print("\n".join(one_sided))
    failed = True

sys.exit(1 if failed else 0)
EOF

echo "-- gate 3: clang-tidy (bugprone-*, concurrency-*)"
if command -v clang-tidy >/dev/null 2>&1; then
  cmake --preset default >/dev/null
  files=$(find src -name '*.cc' ! -path 'src/workloads/*')
  # shellcheck disable=SC2086
  clang-tidy -p build --quiet $files || status=1
else
  echo "clang-tidy not installed; skipping (CI runs this gate)"
fi

echo "-- gate 4: ha_trace_tool / ha_fleet_top --self-check"
cmake --preset default >/dev/null
cmake --build build --target ha_trace_tool ha_fleet_top >/dev/null
./build/tools/ha_trace_tool --self-check || status=1
./build/tools/ha_fleet_top --self-check || status=1

echo "-- gate 5: docs consistency (flags, DESIGN.md section references, orphan sections)"
python3 - <<'EOF' || status=1
import os
import re
import sys
from pathlib import Path

DOCS = ["README.md", "EXPERIMENTS.md", "DESIGN.md", "ROADMAP.md",
        "docs/INDEX.md"]

# Flags owned by external tools that the docs legitimately mention but
# no repo source defines.
EXTERNAL_FLAGS = {
    "--build", "--preset", "--test-dir", "--target", "--parallel",
    "--output-on-failure", "--gtest_filter", "--version",
}

flag_re = re.compile(r"--[a-z][a-z0-9-]*")

# Every flag string that appears in a source file counts as defined —
# bench/tool argv parsers, scripts, and example binaries.
defined = set(EXTERNAL_FLAGS)
for root, patterns in (("bench", ["*.cc", "*.h"]), ("tools", ["*.cc"]),
                       ("examples", ["*.cpp", "*.cc"]),
                       ("scripts", ["*.sh", "*.py"])):
    for pattern in patterns:
        for path in Path(root).rglob(pattern):
            defined.update(flag_re.findall(path.read_text()))

# DESIGN.md section numbers: "## 4. Key design decisions",
# "### 4.2b Hotness hints", ...
sections = set()
# Numbered *subsections* ("4.2b", not the narrative "## 1." chapters):
# each must be cited by at least one source file, or it has gone orphan.
subsections = {}  # number -> "doc:line: title"
heading_re = re.compile(r"#{2,}\s+(\d+(?:\.\d+)*[a-z]?)\.?\s+(.*)")


def collect_headings(doc):
    for line_number, line in enumerate(
            Path(doc).read_text().splitlines(), 1):
        m = heading_re.match(line)
        if not m:
            continue
        number = m.group(1)
        sections.add(number)
        if "." in number:
            subsections[number] = f"{doc}:{line_number}: {m.group(2)}"
        # §4.2 is a valid way to cite §4.2b-style subsections' parent.
        while "." in number:
            number = number.rsplit(".", 1)[0]
            sections.add(number)


collect_headings("DESIGN.md")
# Seeded mutant for CI self-test: a DESIGN-style doc whose subsection no
# source references. The orphan check below must fail on it.
if os.environ.get("HA_LINT_GATE5_MUTANT") == "1":
    collect_headings("tests/lint/gate5_orphan_mutant.md")

ref_re = re.compile(r"DESIGN\.md\s+§\s*(\d+(?:\.\d+)*[a-z]?)")

failures = []
for doc in DOCS:
    text = Path(doc).read_text()
    for line_number, line in enumerate(text.splitlines(), 1):
        for flag in flag_re.findall(line):
            if flag not in defined:
                failures.append(f"{doc}:{line_number}: {flag} is not "
                                f"defined by any bench/tool/script")
        for ref in ref_re.findall(line):
            if ref not in sections:
                failures.append(f"{doc}:{line_number}: DESIGN.md §{ref} "
                                f"does not match any DESIGN.md heading")

# Orphan-section check: every numbered DESIGN.md subsection must be
# cited (as "§<num>") by at least one source file, or the design text
# documents nothing the tree can be held to. The token regex is greedy,
# so a "§4.10" citation can never satisfy §4.1. Bare paper-section
# citations ("the paper's §4.2") can coincide with a DESIGN number —
# acceptable: the gate hunts sections NO source mentions at all.
cite_re = re.compile(r"§\s*(\d+\.(?:\d+\.?)*[a-z]?)")
cited = set()
for root, patterns in (("src", ["*.h", "*.cc"]), ("bench", ["*.h", "*.cc"]),
                       ("tools", ["*.cc"]), ("tests", ["*.h", "*.cc"]),
                       ("examples", ["*.cpp", "*.cc"]),
                       ("scripts", ["*.sh", "*.py"])):
    for pattern in patterns:
        for path in Path(root).rglob(pattern):
            cited.update(c.rstrip(".") for c in
                         cite_re.findall(path.read_text()))
for number, where in sorted(subsections.items()):
    if number not in cited:
        failures.append(f"{where.split(':', 1)[0]}: §{number} "
                        f"({where.split(': ', 1)[1]}) is referenced by no "
                        f"source file — orphaned design section")

if failures:
    print("docs drifted from the sources:")
    print("\n".join(failures))
    sys.exit(1)
EOF

echo "-- gate 7: every config/options field has a writer"
python3 - <<'EOF' || status=1
import os
import re
import sys
from pathlib import Path

struct_re = re.compile(r"\bstruct\s+(\w*(?:Config|Options))\s*\{")
# One data member per line: type, name, optional `= ...` / `{...}`.
field_re = re.compile(r"\s*(?!(?:static|using|enum|friend|struct|class)\b)"
                      r"[\w:<>, ]+?[\s*&](\w+)\s*(?:=.*|\{.*\})?;\s*$")

headers = [path for path in sorted(Path("src").rglob("*.h"))
           if Path("src/check") not in path.parents]
if os.environ.get("HA_LINT_GATE7_MUTANT") == "1":
    headers.append(Path("tests/lint/gate7_unset_field_mutant.h"))
sources = {path: path.read_text()
           for root in ("src", "bench", "perfbench", "tools", "examples",
                        "tests")
           for path in Path(root).rglob("*")
           if path.suffix in (".h", ".cc", ".cpp")}

unset = []
for header in headers:
    text = re.sub(r"//[^\n]*|/\*.*?\*/", "", header.read_text(), flags=re.S)
    for m in struct_re.finditer(text):
        depth = 1  # only lines at the struct's own brace depth declare
        for line in text[m.end():].splitlines()[1:]:
            if depth == 1 and (field := field_re.match(line)):
                writer = re.compile(r"(?:\.|->)\s*%s(?:\s*\.\s*\w+)*\s*=(?!=)"
                                    % field.group(1))
                if not any(writer.search(source) for path, source
                           in sources.items() if path != header):
                    unset.append(f"{header}: {m.group(1)}::{field.group(1)}")
            depth += line.count("{") - line.count("}")
            if depth == 0:
                break
if unset:
    print("config fields nothing assigns (make each a named constexpr):")
    print("\n".join(unset))
    sys.exit(1)
EOF

if [ "$status" -ne 0 ]; then
  echo "lint: FAILED"
  exit 1
fi
echo "lint: OK"
