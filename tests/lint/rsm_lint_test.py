#!/usr/bin/env python3
"""Tests for scripts/rsm_lint.py (run by ctest as `lint.rsm_lint`).

Verifies: the real tree is clean; every rule fires on its fixture in
tests/lint/fixtures/badtree; --only / --disable toggles select rules; and
per-line rsm-lint-allow() suppression works.

Usage: rsm_lint_test.py <repo_root>
"""

import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else \
    Path(__file__).resolve().parent.parent.parent
LINT = REPO_ROOT / "scripts" / "rsm_lint.py"
BADTREE = REPO_ROOT / "tests" / "lint" / "fixtures" / "badtree"

# rule id -> minimum number of findings its fixture must produce
EXPECTED_RULE_FINDINGS = {
    "error-code-coverage": 4,  # missing case, stale count, schema lag,
                               # misordered client list
    "macro-side-effects": 3,   # ++, =, mutating call
    "unseeded-rng": 2,         # random_device, rand()
    "throw-taxonomy": 2,       # std::runtime_error, throw 42
    "include-cpp": 1,
    "header-hygiene": 1,
    "banned-functions": 3,     # strcpy, sprintf, atoi
    "span-name-literal": 1,
    "metric-name-literal": 2,  # dynamic counter + bare-variable gauge
                               # (exact; see below)
    "no-raw-thread": 2,        # std::thread, std::async (exact; see below)
    "no-naked-mutex": 3,       # std::mutex, std::condition_variable,
                               # std::lock_guard (exact; see below)
    "orphan-module": 2,        # dead/orphan, dead/header_only (exact;
                               # see below)
}

failures = []


def check(condition, label):
    print(("ok   " if condition else "FAIL ") + label)
    if not condition:
        failures.append(label)


def run_lint(*args):
    proc = subprocess.run(
        [sys.executable, str(LINT), *args],
        capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout


def main():
    # 1. The real tree must be clean.
    code, out = run_lint("--root", str(REPO_ROOT))
    check(code == 0, f"real tree is clean (exit {code})\n{out if code else ''}")

    # 2. The linter advertises at least 7 active rules.
    code, out = run_lint("--list-rules")
    rules = [r for r in out.split() if r]
    check(code == 0 and len(rules) >= 7,
          f"--list-rules reports >= 7 rules (got {len(rules)})")
    check(sorted(rules) == sorted(EXPECTED_RULE_FINDINGS),
          "rule ids match the fixture expectations")

    # 3. Each rule fires on the fixture tree, both in a full run and when
    #    selected alone with --only (toggleability).
    code, full_out = run_lint("--root", str(BADTREE), "--include-fixtures")
    check(code == 1, "fixture tree fails the full run")
    for rule, minimum in EXPECTED_RULE_FINDINGS.items():
        hits = full_out.count(f"[{rule}]")
        check(hits >= minimum,
              f"rule {rule} fires on its fixture ({hits} >= {minimum})")
        only_code, only_out = run_lint(
            "--root", str(BADTREE), "--include-fixtures", "--only", rule)
        only_hits = only_out.count(f"[{rule}]")
        other_hits = sum(only_out.count(f"[{r}]")
                         for r in EXPECTED_RULE_FINDINGS if r != rule)
        check(only_code == 1 and only_hits >= minimum and other_hits == 0,
              f"--only {rule} isolates the rule")

    # 3b. no-raw-thread is exact on its fixture: the std::this_thread use
    #     and the rsm-lint-allow'd jthread must not fire, so the count is
    #     exactly 2, not >= 2.
    hits = full_out.count("[no-raw-thread]")
    check(hits == 2,
          f"no-raw-thread fires exactly twice on the fixture (got {hits})")

    # 3c. metric-name-literal is exact too: the literal name, the
    #     literal-prefix concatenation, and the rsm-lint-allow'd call in
    #     bad_metrics.cpp must all stay silent.
    hits = full_out.count("[metric-name-literal]")
    check(hits == 2,
          f"metric-name-literal fires exactly twice on the fixture "
          f"(got {hits})")

    # 3d. no-naked-mutex is exact: the rsm-lint-allow'd shared_mutex and
    #     the comment/string mentions in bad_mutex.cpp must stay silent, so
    #     exactly the mutex, condition_variable, and lock_guard lines fire.
    hits = full_out.count("[no-naked-mutex]")
    check(hits == 3,
          f"no-naked-mutex fires exactly three times on the fixture "
          f"(got {hits})")

    # 3e. orphan-module is exact: live/used (reached from bench/) and
    #     live/helper (reached only through used.cpp) stay silent, and the
    #     umbrella src/rsm.hpp is neither a root nor reported itself.
    orphans = sorted(line.split(":")[0] for line in full_out.splitlines()
                     if "[orphan-module]" in line)
    check(orphans == ["src/dead/header_only.hpp", "src/dead/orphan.hpp"],
          f"orphan-module reports exactly the two dead modules "
          f"(got {orphans})")

    # 4. Disabling every rule yields a clean exit on the fixture tree.
    code, _ = run_lint("--root", str(BADTREE), "--include-fixtures",
                       "--disable", ",".join(EXPECTED_RULE_FINDINGS))
    check(code == 0, "--disable of every rule silences the fixture tree")

    # 5. Per-line suppression comments work.
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        src.mkdir()
        (src / "suppressed.cpp").write_text(
            "#include <cstdlib>\n"
            "int f() { return rand(); }  // rsm-lint-allow(unseeded-rng)\n",
            encoding="utf-8")
        code, _ = run_lint("--root", tmp, "--only", "unseeded-rng")
        check(code == 0, "rsm-lint-allow() suppresses a finding")
        (src / "suppressed.cpp").write_text(
            "#include <cstdlib>\nint f() { return rand(); }\n",
            encoding="utf-8")
        code, _ = run_lint("--root", tmp, "--only", "unseeded-rng")
        check(code == 1, "the same line without the comment still fires")

    # 6. Unknown rule names are rejected loudly.
    code, _ = run_lint("--only", "no-such-rule")
    check(code == 2, "unknown --only rule exits 2")

    if failures:
        print(f"\n{len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("\nall rsm-lint self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
