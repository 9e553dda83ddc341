#!/usr/bin/env bash
# Static-analysis runner: clang-tidy over every translation unit in
# compile_commands.json, using the checks in .clang-tidy (plus the
# project-specific reldev-* checks when the tidy plugin is built).
#
# Usage:
#   tools/lint.sh [--require] [--require-plugin] [--build-dir DIR] [--fix]
#                 [--plugin PATH] [-j N]
#
#   --require        fail (exit 2) when clang-tidy is not installed; without
#                    it the script prints a notice and exits 0 so machines
#                    without clang (the dev container ships only GCC) are
#                    not blocked.
#   --require-plugin fail (exit 2) when the reldev tidy plugin is not
#                    built/loadable. Without it a missing plugin just skips
#                    the reldev-* checks with a notice.
#   --build-dir      build tree holding compile_commands.json (default:
#                    build). CMakeLists.txt exports compile commands.
#   --fix            apply clang-tidy fix-its in place.
#   --plugin PATH    explicit path to libreldev_tidy_module.so (default:
#                    tools/tidy-plugin/build/libreldev_tidy_module.so).
#   -j N             parallel clang-tidy processes (default: nproc).
#
# Coverage: all of src/, tests/, and bench/. tests/ and bench/ carry their
# own .clang-tidy (InheritParentConfig with documented relaxations for
# gtest/benchmark macro patterns).
#
# The CI static-analysis job runs `tools/lint.sh --require --require-plugin`
# plus a clang build with -Wthread-safety -Wthread-safety-beta -Werror;
# together with the run-time lock rules every build checks and the TSan
# job they are the concurrency gate (DESIGN.md §10, §15).
set -euo pipefail

require=0
require_plugin=0
build_dir=build
fix_flag=""
plugin=""
jobs="$(nproc 2>/dev/null || echo 4)"

while [[ $# -gt 0 ]]; do
  case "$1" in
    --require) require=1 ;;
    --require-plugin) require_plugin=1 ;;
    --build-dir) build_dir="$2"; shift ;;
    --fix) fix_flag="-fix" ;;
    --plugin) plugin="$2"; shift ;;
    -j) jobs="$2"; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

tidy=""
for candidate in clang-tidy clang-tidy-18 clang-tidy-17 clang-tidy-16 \
                 clang-tidy-15 clang-tidy-14; do
  if command -v "$candidate" >/dev/null 2>&1; then
    tidy="$candidate"
    break
  fi
done

if [[ -z "$tidy" ]]; then
  if [[ "$require" -eq 1 ]]; then
    echo "error: clang-tidy not found and --require given" >&2
    exit 2
  fi
  echo "lint.sh: clang-tidy not installed; skipping (install clang-tidy," \
       "or run the CI static-analysis job)" >&2
  exit 0
fi

# The reldev-* checks live in an out-of-tree plugin
# (tools/tidy-plugin/README.md). When it is built, load it; when not, the
# base checks still run (.clang-tidy lists reldev-* too — clang-tidy
# ignores check globs that match nothing, so the config is shared).
load_flag=()
if [[ -z "$plugin" ]]; then
  plugin="tools/tidy-plugin/build/libreldev_tidy_module.so"
fi
if [[ -f "$plugin" ]] &&
   "$tidy" -load="$plugin" --list-checks -checks='-*,reldev-*' 2>/dev/null |
     grep -q 'reldev-no-raw-std-mutex'; then
  load_flag=("-load=$plugin")
  echo "lint.sh: reldev-* checks loaded from $plugin" >&2
else
  if [[ "$require_plugin" -eq 1 ]]; then
    echo "error: reldev tidy plugin not loadable ($plugin) and" \
         "--require-plugin given; build it with:" >&2
    echo "  cmake -B tools/tidy-plugin/build -S tools/tidy-plugin &&" \
         "cmake --build tools/tidy-plugin/build" >&2
    exit 2
  fi
  echo "lint.sh: reldev tidy plugin not built; running base checks only" >&2
fi

if [[ ! -f "$build_dir/compile_commands.json" ]]; then
  echo "lint.sh: $build_dir/compile_commands.json missing; configuring..." >&2
  cmake -B "$build_dir" -S . >/dev/null
fi

# The whole tree follows the same conventions; tests/, bench/ and fuzz/
# carry their own .clang-tidy with the (documented) relaxations.
mapfile -t sources < <(find src tests bench fuzz -name '*.cpp' | sort)

echo "lint.sh: $tidy over ${#sources[@]} files ($jobs-way parallel)" >&2

status=0
printf '%s\n' "${sources[@]}" |
  xargs -P "$jobs" -n 1 "$tidy" "${load_flag[@]}" -p "$build_dir" --quiet \
    $fix_flag || status=$?

if [[ $status -ne 0 ]]; then
  echo "lint.sh: clang-tidy reported findings (see above)" >&2
  exit 1
fi
echo "lint.sh: clean" >&2
