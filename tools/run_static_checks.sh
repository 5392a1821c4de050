#!/usr/bin/env bash
# Static checks over src/: a grep gate against printf-family calls,
# clang-tidy with the curated .clang-tidy set, warnings promoted to
# errors, plus the whole test suite under an AddressSanitizer + UBSan +
# _GLIBCXX_ASSERTIONS build and the concurrency suites under
# ThreadSanitizer (the worker pool, the lockstep ensemble, and the serve
# registry / job scheduler are the places the engine shares mutable
# state across threads).
# Intended as a CI gate:
#
#   tools/run_static_checks.sh [--require-tools] [build-dir]
#
# Exit codes: 0 clean (or tool unavailable -- see below), 1 findings,
# 2 setup failure.
#
# By default a missing tool (clang-tidy, cmake/ctest, a sanitizer-
# capable compiler) degrades to a notice and exit 0 so that
# environments without the LLVM toolchain (the minimal CI image,
# contributor laptops) are not hard-blocked.  With --require-tools a
# missing tool is a hard exit 2 instead: CI invokes the script this way
# so the gate can never be vacuously green.
set -u

require_tools=0
build_dir=""
for arg in "$@"; do
  case "$arg" in
    --require-tools) require_tools=1 ;;
    -*) echo "run_static_checks: unknown option '$arg'" >&2; exit 2 ;;
    *) build_dir="$arg" ;;
  esac
done

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
[ -n "$build_dir" ] || build_dir="$repo_root/build"

# A tool is missing: notice + soft skip (return 0) by default, hard
# exit 2 under --require-tools.
missing_tool() {
  if [ "$require_tools" -eq 1 ]; then
    echo "run_static_checks: $1 (--require-tools: failing)" >&2
    exit 2
  fi
  echo "run_static_checks: $1; skipping" >&2
  return 0
}

# ---- sanitized full suite -------------------------------------------
# Build everything with -fsanitize=address,undefined plus libstdc++'s
# -D_GLIBCXX_ASSERTIONS (bounds-checked operator[], std::polar's
# precondition, ...) in a dedicated build tree and run every ctest
# entry.  The fault-injection suites walk every recovery path (failed
# factorizations, budget aborts, NaN injection, ensemble lane faults);
# the rest cover the paths a deck can reach.
run_sanitized_suite() {
  local san_dir="$repo_root/build-asan-ubsan"
  if ! command -v cmake >/dev/null 2>&1 || ! command -v ctest >/dev/null 2>&1; then
    missing_tool "cmake/ctest not found (sanitized suite)"
    return 0
  fi
  echo "run_static_checks: building the suite with asan+ubsan+glibcxx assertions in $san_dir" >&2
  cmake -B "$san_dir" -S "$repo_root" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -D_GLIBCXX_ASSERTIONS" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" \
        >/dev/null 2>&1 || {
    missing_tool "sanitized configure failed (compiler without asan/ubsan?)"
    return 0
  }
  cmake --build "$san_dir" -j "$(nproc 2>/dev/null || echo 2)" >/dev/null || return 1
  (cd "$san_dir" && ctest --output-on-failure -j "$(nproc 2>/dev/null || echo 2)") \
    || return 1
  echo "run_static_checks: sanitized suite clean" >&2
  return 0
}

# ---- ThreadSanitizer concurrency suites ------------------------------
# The worker pool (test_parallel), the lockstep multi-lane ensemble
# (test_ensemble), the shared sample loop under a budget that parallel
# workers race to exhaust (test_robustness), and the serve registry +
# work-stealing job scheduler + daemon (test_serve, incl. the
# ServeStress concurrent adopt/publish/evict churn) are the code paths
# that share mutable state across threads; run exactly those under
# -fsanitize=thread.  TSan and ASan
# cannot coexist in one binary, hence the third build tree.
run_tsan_suites() {
  local tsan_dir="$repo_root/build-tsan"
  if ! command -v cmake >/dev/null 2>&1 || ! command -v ctest >/dev/null 2>&1; then
    missing_tool "cmake/ctest not found (tsan suites)"
    return 0
  fi
  echo "run_static_checks: building concurrency suites with tsan in $tsan_dir" >&2
  cmake -B "$tsan_dir" -S "$repo_root" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
        >/dev/null 2>&1 || {
    missing_tool "tsan configure failed (compiler without tsan?)"
    return 0
  }
  cmake --build "$tsan_dir" -j "$(nproc 2>/dev/null || echo 2)" \
        --target test_ensemble test_parallel test_robustness test_serve \
        >/dev/null || return 1
  (cd "$tsan_dir" && ctest --output-on-failure \
        -R '^(test_ensemble|test_parallel|test_robustness|test_serve|serve_smoke)$') || return 1
  echo "run_static_checks: tsan concurrency suites clean" >&2
  return 0
}

# ---- no printf-family formatting under src/ -------------------------
# Everything msim prints formats its numbers through core/text_writer.h
# (std::to_chars, printf's bytes without the format-string path).  A
# printf, fprintf, sprintf, snprintf or vsnprintf call (v- forms too)
# under src/ is a finding.
check_no_printf() {
  local hits
  hits="$(grep -rnE '\b(printf|fprintf|sprintf|snprintf|vprintf|vfprintf|vsprintf|vsnprintf)[[:space:]]*\(' \
          "$repo_root/src" --include='*.cc' --include='*.h')"
  if [ -n "$hits" ]; then
    echo "$hits" >&2
    echo "run_static_checks: printf-family calls under src/ (use core/text_writer.h)" >&2
    return 1
  fi
  echo "run_static_checks: no printf-family calls under src/" >&2
  return 0
}

check_no_printf || exit 1
run_sanitized_suite || exit 1
run_tsan_suites || exit 1

tidy="${CLANG_TIDY:-clang-tidy}"
if ! command -v "$tidy" >/dev/null 2>&1; then
  missing_tool "$tidy not found (install clang-tidy >= 14 to enable the gate)"
  exit 0
fi

# clang-tidy needs a compilation database.
if [ ! -f "$build_dir/compile_commands.json" ]; then
  echo "run_static_checks: generating compile_commands.json in $build_dir" >&2
  cmake -B "$build_dir" -S "$repo_root" \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null || exit 2
fi

files="$(find "$repo_root/src" -name '*.cc' | sort)"
[ -n "$files" ] || { echo "run_static_checks: no sources found" >&2; exit 2; }

status=0
for f in $files; do
  if ! "$tidy" -p "$build_dir" --quiet "$f"; then
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "run_static_checks: clean"
else
  echo "run_static_checks: findings above must be fixed (warnings are errors)" >&2
fi
exit "$status"
