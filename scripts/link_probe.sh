#!/usr/bin/env bash
# Link probe: fails when a library function under src/ is linked by no
# product binary and is not a named test seam.
#
#   scripts/link_probe.sh
#
# Builds every product binary (each executable that tools/, bench/ and
# examples/ declare, and benchmark/'s gly_bench, configured as its own
# project) at -O0 with one section per function, and links them with
# --gc-sections, so a function survives in a binary only if something
# reachable from main calls it. Every global text (`T`) symbol of a
# src/*/libgly_*.a that no product binary defines must match an entry of
# scripts/link_probe_allowlist.txt, and every allowlist entry must match at
# least one such symbol. Header-only code (inline functions and templates,
# which the compiler emits as weak symbols) is out of the probe's reach.
# The build goes to build-probe/ at the checkout root.
set -euo pipefail

cd "$(dirname "$0")/.."

PROBE_DIR=build-probe
JOBS="$(nproc)"
ALLOWLIST=scripts/link_probe_allowlist.txt

# No inlining at -O0, so every call stays a real reference; the override
# file drops the -rdynamic that would keep every function exported.
probe_flags=(
  -DCMAKE_BUILD_TYPE=LinkProbe
  "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
  "-DCMAKE_USER_MAKE_RULES_OVERRIDE=${PWD}/scripts/link_probe_rules.cmake"
)

targets=()
binaries=()
for dir in tools bench examples; do
  while read -r name; do
    targets+=("${name}")
    binaries+=("${PROBE_DIR}/${dir}/${name}")
  done < <(sed -n -E \
    's/^(add_executable|gly_add_bench|gly_add_example)\(([A-Za-z0-9_]+)[ )].*/\2/p' \
    "${dir}/CMakeLists.txt")
done
if ((${#targets[@]} == 0)); then
  echo "link probe: found no product targets" >&2
  exit 1
fi
binaries+=("${PROBE_DIR}/benchmark/gly_bench")

work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT

# The build log is shown only when the build fails.
{
  cmake -S . -B "${PROBE_DIR}" "${probe_flags[@]}" &&
    cmake --build "${PROBE_DIR}" -j "${JOBS}" --target "${targets[@]}" &&
    cmake -S benchmark -B "${PROBE_DIR}/benchmark" "${probe_flags[@]}" &&
    cmake --build "${PROBE_DIR}/benchmark" -j "${JOBS}" --target gly_bench
} > "${work}/build.log" 2>&1 || {
  cat "${work}/build.log" >&2
  echo "link probe: build failed" >&2
  exit 1
}

for binary in "${binaries[@]}"; do
  if [[ ! -x "${binary}" ]]; then
    echo "link probe: product binary ${binary} was not built" >&2
    exit 1
  fi
done

nm --defined-only "${PROBE_DIR}"/src/*/libgly_*.a |
  awk '$2 == "T" { print $3 }' | sort -u > "${work}/library"
for binary in "${binaries[@]}"; do
  nm --defined-only "${binary}" | awk '$2 ~ /^[TtWw]$/ { print $3 }'
done | sort -u > "${work}/linked"
comm -23 "${work}/library" "${work}/linked" | c++filt | sort > "${work}/unlinked"

# Allowlist lines are `<demangled-name prefix> | <reason>`; # starts a
# comment. A prefix ending in `::` names a whole class.
awk -v unlinked="${work}/unlinked" '
  /^[[:space:]]*(#|$)/ { next }
  {
    split($0, parts, " [|] ")
    prefix = parts[1]
    if (parts[2] == "") {
      printf "allowlist entry without a reason: %s\n", $0
      bad = 1
    }
    prefixes[++n] = prefix
  }
  END {
    while ((getline name < unlinked) > 0) {
      matched = 0
      for (i = 1; i <= n; ++i) {
        if (index(name, prefixes[i]) == 1) { used[i] = 1; matched = 1 }
      }
      if (matched) { ++allowed } else { print "unlinked: " name; bad = 1 }
    }
    for (i = 1; i <= n; ++i) {
      if (!used[i]) {
        printf "allowlist entry matches no unlinked function: %s\n", prefixes[i]
        bad = 1
      }
    }
    printf "link probe: %d product binaries, %d allowlisted seam functions\n",
           binaries, allowed
    exit bad
  }' binaries="${#binaries[@]}" "${ALLOWLIST}" || {
  echo "link probe: every src/ function must be linked by a product binary" \
       "or allowlisted with a reason in ${ALLOWLIST}" >&2
  exit 1
}
