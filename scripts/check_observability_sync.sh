#!/usr/bin/env bash
# Keep OBSERVABILITY.md's "Counters and gauges" table and the source in
# lockstep.
#
# Direction 1: every name in the table must be emitted somewhere under
#   crates/*/src by a `counter("…")` / `gauge("…")` call (or be listed in
#   RUNTIME_NAMES below).
# Direction 2: every name emitted there must have a row in the table.
#
# Table rows may abbreviate sibling names: "`a.b.c` / `.d`" documents
# both `a.b.c` and `a.b.d` (the shorthand replaces the last segment).
# Test modules (`#[cfg(test)] mod tests` to the end of a file) are not
# scanned: their throwaway names are not part of the telemetry surface.
#
# Run from the repo root: ./scripts/check_observability_sync.sh
set -euo pipefail
shopt -s globstar

cd "$(dirname "$0")/.."

SPEC=OBSERVABILITY.md
[ -f "$SPEC" ] || { echo "missing $SPEC" >&2; exit 1; }

# Names built at runtime, which no string-literal scan can see. Each must
# also appear in the source, so a rename there fails the check below.
#   crates/faas/src/engine.rs: `counter(if reused { "batch.arena.reuse" }
#   else { "batch.arena.alloc" }, 1)`.
RUNTIME_NAMES="batch.arena.reuse
batch.arena.alloc"

# Names documented in the spec: the backticked tokens of each table
# row's first column, between the "### Counters and gauges" heading and
# the next heading, with `.x` shorthand expanded.
spec_names=$(awk '/^### Counters and gauges/{f=1; next} /^#/{f=0} f' "$SPEC" \
    | awk -F'|' '/^\| `/{print $2}' \
    | perl -ne '
        my $full;
        for my $tok (/`([^`]+)`/g) {
            if ($tok =~ /^\./) {
                defined $full or die "shorthand $tok without a full name\n";
                (my $prefix = $full) =~ s/\.[^.]+$//;
                print "$prefix$tok\n";
            } else {
                $full = $tok;
                print "$tok\n";
            }
        }' \
    | sort -u)

# Names the source emits: string-literal first arguments of `.counter(`
# / `.gauge(` calls (possibly on the next line), outside test modules.
src_names=$( (
    for f in crates/*/src/**/*.rs; do
        [ -f "$f" ] || continue
        perl -0777 -ne '
            s/^#\[cfg\(test\)\]\s*\nmod tests\b.*//ms;
            print "$1\n" while /\.(?:counter|gauge)\(\s*"([^"]+)"/g;
        ' "$f"
    done
    echo "$RUNTIME_NAMES"
) | sort -u)

[ -n "$spec_names" ] || { echo "no names parsed from $SPEC" >&2; exit 1; }
[ -n "$src_names" ] || { echo "no names parsed from crates/*/src" >&2; exit 1; }

status=0
for name in $RUNTIME_NAMES; do
    if ! grep -rqF "\"$name\"" crates/*/src; then
        echo "runtime name $name no longer appears in crates/*/src" >&2
        status=1
    fi
done
undocumented=$(comm -13 <(echo "$spec_names") <(echo "$src_names"))
if [ -n "$undocumented" ]; then
    echo "counters/gauges emitted under crates/*/src missing from $SPEC's table:" >&2
    echo "$undocumented" >&2
    status=1
fi
phantom=$(comm -23 <(echo "$spec_names") <(echo "$src_names"))
if [ -n "$phantom" ]; then
    echo "counters/gauges documented in $SPEC but never emitted:" >&2
    echo "$phantom" >&2
    status=1
fi

if [ "$status" -eq 0 ]; then
    n=$(echo "$spec_names" | wc -l)
    echo "$SPEC and crates/*/src agree on $n counter and gauge names."
fi
exit "$status"
