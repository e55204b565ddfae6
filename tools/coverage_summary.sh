#!/usr/bin/env bash
# Branch-coverage summary for src/monitor and src/distributed.
#
#   cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \
#     -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage
#   cmake --build build-cov -j && ctest --test-dir build-cov -j
#   tools/coverage_summary.sh build-cov coverage_summary.txt
#
# Runs gcov over the library objects of the two directories and writes one
# line per source file (lines executed, branches taken at least once) plus a
# total per directory. Headers are left out: their counts are split across
# every object that includes them.
set -euo pipefail

build=${1:?usage: coverage_summary.sh BUILD_DIR [OUT_FILE]}
out=${2:-coverage_summary.txt}
objroot="$build/src/CMakeFiles/decmon.dir"

{
  printf '%-44s %15s %15s\n' "file" "lines" "branches taken"
  for area in monitor distributed; do
    (cd "$objroot/$area" && gcov -b -n ./*.gcno 2>/dev/null) |
      awk -v area="src/$area/" '
        function frac(line,   parts, v) {
          # "Lines executed:95.00% of 200" -> covered count and total
          split(line, parts, ":")
          split(parts[2], v, "% of ")
          return v[1] * v[2] / 100 " " v[2]
        }
        /^File / {
          file = $2; gsub("\047", "", file)
          keep = index(file, area) > 0 && file ~ /\.cpp$/
          if (keep) name = substr(file, index(file, area))
          next
        }
        keep && /^Lines executed/ { split(frac($0), l, " "); lc = l[1]; lt = l[2] }
        keep && /^No branches/ { bc = 0; bt = 0; emit() }
        keep && /^Taken at least once/ { split(frac($0), b, " "); bc = b[1]; bt = b[2]; emit() }
        function emit() {
          printf "%-44s %6.1f%% of %4d %6.1f%% of %4d\n", name,
                 lt ? 100 * lc / lt : 0, lt, bt ? 100 * bc / bt : 0, bt
          tlc += lc; tlt += lt; tbc += bc; tbt += bt; keep = 0
        }
        END {
          printf "%-44s %6.1f%% of %4d %6.1f%% of %4d\n", area "(total)",
                 tlt ? 100 * tlc / tlt : 0, tlt, tbt ? 100 * tbc / tbt : 0, tbt
        }'
  done
} > "$out"
cat "$out"
