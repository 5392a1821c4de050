#!/usr/bin/env bash
# Static checks over src/: a grep gate against printf-family calls, a
# grep gate against JSON written anywhere but serve::Json, a grep gate
# against headers that nothing outside tests and examples reaches,
# a grep gate against option fields that no caller sets, an objdump gate
# against __muldc3 calls in the complex sparse LU kernels, clang-tidy with
# the curated .clang-tidy set, warnings promoted to errors, plus the
# whole test suite under an AddressSanitizer + UBSan +
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

# ---- one JSON writer under src/ --------------------------------------
# serve::Json (src/serve/json.cc) is the only code under src/ that
# writes JSON syntax; every report builds a Json tree and prints its
# dump().  A string literal holding an escaped-quote key and its colon
# (\"name\":) anywhere else under src/ is a hand-built emitter: a
# finding.
check_one_json_writer() {
  local hits
  hits="$(grep -rnE '\\"[A-Za-z_][A-Za-z0-9_]*\\"[[:space:]]*:' \
          "$repo_root/src" --include='*.cc' --include='*.h' |
          grep -v "^$repo_root/src/serve/json.cc:")"
  if [ -n "$hits" ]; then
    echo "$hits" >&2
    echo "run_static_checks: hand-built JSON under src/ (build a serve::Json)" >&2
    return 1
  fi
  echo "run_static_checks: serve::Json is the one JSON writer under src/" >&2
  return 0
}

# ---- every header under src/ is reached -----------------------------
# A module stays only if something the paper's results run reaches it.
# A header under src/ is reached when a live file includes it: any file
# in bench/, tools/ or perfbench/src/, a reached header, or a src/ .cc
# whose own header is reached (or that has none).  A module's own .cc
# does not keep its header, and tests and examples do not keep a module.
# An unreached header is a finding.  The allowed exceptions:
check_module_reach() {
  local allowed=(
    "analysis/sensitivity.h"  # awaits the Table-1 linearised-variance oracle
    "analysis/transfer.h"     # examples/full_chip.cpp's .tf output resistance
    "numeric/rootfind.h"      # examples/bandgap_trim.cpp's Brent trim of the PTAT weight
  )
  local -A reached=()
  local h rel file header live changed=1 unreached=""
  for h in "${allowed[@]}"; do reached[$h]=1; done
  # Every (includer, included) pair once, as "file:header".
  local edges
  edges="$(grep -rHoE '#include "[^"]+"' --include='*.cc' --include='*.h' \
             --include='*.cpp' "$repo_root/src" "$repo_root/bench" \
             "$repo_root/tools" "$repo_root/perfbench/src" |
           sed -E 's/:#include "(.*)"$/:\1/')"
  while [ "$changed" -eq 1 ]; do
    changed=0
    while IFS=: read -r file header; do
      [ -n "${reached[$header]:-}" ] && continue
      [ -f "$repo_root/src/$header" ] || continue
      rel="${file#"$repo_root/src/"}"
      if [ "$rel" = "$file" ]; then
        live=1                                   # bench/, tools/, perfbench/src/
      elif [ "$rel" = "${header%.h}.cc" ]; then
        live=0                                   # the module's own .cc
      elif [[ "$rel" == *.h ]]; then
        live="${reached[$rel]:-0}"
      elif [ -f "$repo_root/src/${rel%.cc}.h" ]; then
        live="${reached[${rel%.cc}.h]:-0}"
      else
        live=1                                   # a .cc with no header
      fi
      if [ "$live" -eq 1 ]; then reached[$header]=1; changed=1; fi
    done <<< "$edges"
  done
  while IFS= read -r h; do
    rel="${h#"$repo_root/src/"}"
    [ -n "${reached[$rel]:-}" ] || unreached="$unreached  src/$rel\n"
  done < <(find "$repo_root/src" -name '*.h' | sort)
  if [ -n "$unreached" ]; then
    printf '%b' "$unreached" >&2
    echo "run_static_checks: headers under src/ that nothing outside tests and examples reaches" >&2
    return 1
  fi
  echo "run_static_checks: every header under src/ is reached" >&2
  return 0
}

# ---- every option field is set by a caller ---------------------------
# An option stays an option only if some caller sets it.  For every
# field of a `struct *Options` under src/ (`T f = v;`, `T f{v};` or
# `T f;`), some file outside the struct's own module (its .h and .cc)
# must assign it or one of its members (`.field =`, `->field =`,
# `.field.member =`) or append to it (`.field.push_back(` /
# `.field.emplace_back(`); files in src/, bench/, tools/, perfbench/src/,
# examples/ and tests/ count.  The match is by field name, so a
# same-named field of another struct also keeps it.  A field nothing
# sets is a finding: make it a named constant.
check_option_reach() {
  local roots=("$repo_root/src" "$repo_root/bench" "$repo_root/tools"
               "$repo_root/perfbench/src" "$repo_root/examples"
               "$repo_root/tests")
  local hdr mod rel st field unset=""
  while IFS= read -r hdr; do
    mod="${hdr%.h}"
    rel="${hdr#"$repo_root/"}"
    # "Struct field" for each member (`T name = v;`, `T name{v};` or
    # `T name;`) at the struct's own brace depth.
    while read -r st field; do
      if ! grep -rlE "(\.|->)$field(\.[A-Za-z_][A-Za-z0-9_]*)?([[:space:]]*=([^=]|\$)|\.(push|emplace)_back\()" "${roots[@]}" \
             --include='*.h' --include='*.cc' --include='*.cpp' 2>/dev/null |
           grep -qvE "^$mod\.(h|cc)\$"; then
        unset="$unset  $rel: $st::$field\n"
      fi
    done < <(awk '
      /^[[:space:]]*struct [A-Za-z0-9_]*Options[[:space:]]*\{/ {
        name = $2; depth = 1; next
      }
      depth > 0 {
        line = $0; sub(/\/\/.*/, "", line)
        opens = gsub(/\{/, "{", line); closes = gsub(/\}/, "}", line)
        if (depth == 1 && line !~ /\(/ &&
            line ~ /^[[:space:]]*[A-Za-z_][A-Za-z0-9_:<>,* ]*[ *&][A-Za-z_][A-Za-z0-9_]*[[:space:]]*(=|\{|;)/) {
          sub(/[[:space:]]*(=|\{|;).*/, "", line)
          k = split(line, words, /[ *&]+/)
          print name, words[k]
        }
        depth += opens - closes
        if (depth < 0) depth = 0
      }' "$hdr")
  done < <(grep -rlE 'struct [A-Za-z0-9_]*Options[[:space:]]*\{' \
             "$repo_root/src" --include='*.h' | sort)
  if [ -n "$unset" ]; then
    printf '%b' "$unset" >&2
    echo "run_static_checks: option fields that no caller outside their module sets (make them constants)" >&2
    return 1
  fi
  echo "run_static_checks: every option field is set by a caller" >&2
  return 0
}

# ---- complex LU kernels make no __muldc3 call ------------------------
# SparseLu<std::complex<double>>'s refactor, solve and solve_transpose
# write the complex product out (numeric/sparse.cc's mul), so no update
# or substitution term pays a call to libgcc's __muldc3.  A __muldc3
# call in those functions of the built numeric library is a finding;
# so is not finding the functions at all.
check_complex_kernels() {
  if ! command -v objdump >/dev/null 2>&1; then
    missing_tool "objdump not found (complex LU kernel gate)"
    return 0
  fi
  if [ ! -f "$build_dir/CMakeCache.txt" ]; then
    cmake -B "$build_dir" -S "$repo_root" >/dev/null || return 2
  fi
  cmake --build "$build_dir" --target msim_numeric >/dev/null || return 2
  local lib="$build_dir/src/numeric/libmsim_numeric.a" report
  report="$(objdump -dr --no-show-raw-insn -C "$lib" | awk '
    /^[0-9a-f]+ <.*>:$/ {
      watch = $0 ~ /SparseLu<std::complex<double> >::(refactor|solve|solve_transpose)\(/
      if (watch) { fn = $0; print "fn " fn }
    }
    watch && /__muldc3/ { print "call " fn }' | sort -u)"
  if [ "$(grep -c '^fn ' <<< "$report")" -lt 3 ]; then
    echo "$report" >&2
    echo "run_static_checks: complex SparseLu kernels not found in $lib" >&2
    return 1
  fi
  if grep -q '^call ' <<< "$report"; then
    grep '^call ' <<< "$report" >&2
    echo "run_static_checks: complex SparseLu kernels call __muldc3 (write the product out)" >&2
    return 1
  fi
  echo "run_static_checks: complex SparseLu kernels make no __muldc3 call" >&2
  return 0
}

check_no_printf || exit 1
check_one_json_writer || exit 1
check_module_reach || exit 1
check_option_reach || exit 1
check_complex_kernels || exit 1
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
