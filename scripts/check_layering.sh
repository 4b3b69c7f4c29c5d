#!/usr/bin/env sh
# Layering check: dependencies between src/ subsystems point one way.
#
# A file under src/<dir> may `#include "<other>/..."` only when <other> is
# <dir> itself or holds a module in the transitive closure of the DEPS of
# the modules src/<dir>/CMakeLists.txt declares. Prints each offending
# include and a "<dir> includes <other>" summary line, and exits 1 if
# there is any.
#
# Usage: scripts/check_layering.sh [repo-root]
set -eu

root=${1:-$(cd "$(dirname "$0")/.." && pwd)}
src=$root/src

# "<file under src/> <included dir>" pairs allowed despite the rule, one per
# line. sched/legality.hpp is a forwarder kept only because perfbench/
# (frozen by BENCHMARK.json) includes it; remove its line with it.
exemptions='sched/legality.hpp analysis'

report=$(
  {
    # M <module> <dir> <dep modules...>
    for cmakelists in "$src"/*/CMakeLists.txt; do
      dir=$(basename "$(dirname "$cmakelists")")
      tr '\n' ' ' <"$cmakelists" | grep -o 'rsp_add_module([^)]*)' |
        awk -v dir="$dir" '{
          sub(/^rsp_add_module\(/, ""); sub(/\)$/, "")
          line = "M " $1 " " dir
          for (i = 2; i <= NF; i++)
            if ($i ~ /^rsp::/) line = line " " substr($i, 6)
          print line
        }'
    done
    # X <file> <dir>
    printf '%s\n' "$exemptions" | sed 's/^/X /'
    # I <dir> <file> <included dir>
    grep -HoE '^#include "[a-z_]+/' "$src"/*/*.cpp "$src"/*/*.hpp |
      sed -e "s|^$src/||" -e 's|:#include "| |' -e 's|/$||' |
      awk '{ split($1, part, "/"); print "I " part[1] " " $1 " " $2 }'
  } | awk '
    $1 == "M" {
      dir_of[$2] = $3; mods[$3] = mods[$3] " " $2; deps[$2] = ""
      for (i = 4; i <= NF; i++) deps[$2] = deps[$2] " " $i
      next
    }
    $1 == "X" { exempt[$2 " " $3] = 1; next }
    $1 == "I" { n++; from[n] = $2; file[n] = $3; to[n] = $4; next }
    END {
      # Walk modules, not directories: src/gen declares two.
      for (d in mods) {
        allowed[d, d] = 1
        split("", seen)
        head = 0; tail = split(mods[d], queue, " ")
        while (head < tail) {
          m = queue[++head]
          k = split(deps[m], ds, " ")
          for (j = 1; j <= k; j++)
            if ((ds[j] in dir_of) && !(ds[j] in seen)) {
              seen[ds[j]] = 1; queue[++tail] = ds[j]
              allowed[d, dir_of[ds[j]]] = 1
            }
        }
      }
      for (i = 1; i <= n; i++) {
        if (!(to[i] in mods) || ((from[i], to[i]) in allowed)) continue
        if ((file[i] " " to[i]) in exempt) continue
        print "src/" file[i] " includes " to[i] "/ (not in the DEPS closure of " from[i] ")"
        print from[i] " includes " to[i]
      }
    }' | sort -u
)

if [ -n "$report" ]; then
  printf '%s\n' "$report"
  exit 1
fi
echo "layering ok: every src/ include follows the CMake DEPS graph"
