#!/usr/bin/env bash
# Branch-coverage summary for src/monitor, src/distributed and src/lattice
# (the lattice oracle: the ground truth the other two are judged by).
#
#   cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \
#     -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage
#   cmake --build build-cov -j && ctest --test-dir build-cov -j
#   tools/coverage_summary.sh build-cov coverage_summary.txt
#
# Runs gcov over the library objects of the three directories and writes
# one line per source file (lines executed, branches taken at least once)
# plus a total per directory. Public headers are left out: their counts are
# split across every object that includes them. That includes the cut
# walk's template half (src/include/decmon/lattice/cut_walk.hpp, instanced
# by the oracles and the centralized monitor); src/lattice/cut_walk.cpp
# holds the rest of it. A private header in one of the three directories
# gets one line per object that includes it, tagged <object>, covering the
# template instances of that object.
set -euo pipefail

build=${1:?usage: coverage_summary.sh BUILD_DIR [OUT_FILE]}
out=${2:-coverage_summary.txt}
objroot="$build/src/CMakeFiles/decmon.dir"

{
  printf '%-50s %15s %15s\n' "file" "lines" "branches taken"
  for area in monitor distributed lattice; do
    for gcno in "$objroot/$area"/*.gcno; do
      echo "Object $(basename "$gcno" .gcno)"
      (cd "$objroot/$area" && gcov -b -n "$(basename "$gcno")" 2>/dev/null)
    done |
      awk -v area="src/$area/" '
        function frac(line,   parts, v) {
          # "Lines executed:95.00% of 200" -> covered count and total
          split(line, parts, ":")
          split(parts[2], v, "% of ")
          return v[1] * v[2] / 100 " " v[2]
        }
        /^Object / { object = $2; next }
        /^File / {
          file = $2; gsub("\047", "", file)
          keep = index(file, area) > 0 && file ~ /\.(cpp|hpp)$/
          if (keep) name = substr(file, index(file, area))
          if (keep && file ~ /\.hpp$/) name = name " <" object ">"
          next
        }
        keep && /^Lines executed/ { split(frac($0), l, " "); lc = l[1]; lt = l[2] }
        keep && /^No branches/ { bc = 0; bt = 0; emit() }
        keep && /^Taken at least once/ { split(frac($0), b, " "); bc = b[1]; bt = b[2]; emit() }
        function emit() {
          printf "%-50s %6.1f%% of %4d %6.1f%% of %4d\n", name,
                 lt ? 100 * lc / lt : 0, lt, bt ? 100 * bc / bt : 0, bt
          tlc += lc; tlt += lt; tbc += bc; tbt += bt; keep = 0
        }
        END {
          printf "%-50s %6.1f%% of %4d %6.1f%% of %4d\n", area "(total)",
                 tlt ? 100 * tlc / tlt : 0, tlt, tbt ? 100 * tbc / tbt : 0, tbt
        }'
  done
} > "$out"
cat "$out"
