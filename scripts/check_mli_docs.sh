#!/bin/sh
# Doc-coverage lint for the public interfaces of lib/adversary, lib/apps,
# lib/core,
# lib/asim, lib/audit, lib/cluster, lib/monitor, lib/scenario,
# lib/simkernel and lib/telemetry, plus the JSON codec lib/metrics/json.mli:
# every .mli must open with a module-level
# (** ... *) header, and every top-level `val`/`type`/`exception` item
# must carry an odoc comment — either ending within the three lines above
# the item (doc-above style) or following the item before the next item
# (doc-after / inline style).  This runs without odoc installed and
# complements the `dune build @doc` job in CI.
set -eu

cd "$(dirname "$0")/.."

fail=0

check_file() {
    f=$1
    if ! awk -v file="$f" '
        BEGIN { pending = ""; pending_line = 0; last_doc = -10; in_doc = 0; bad = 0 }
        {
            if (in_doc) {
                if ($0 ~ /\*\)/) { in_doc = 0; last_doc = NR; pending = "" }
                next
            }
            if ($0 ~ /\(\*\*/) {
                pending = ""
                if ($0 ~ /\*\)/) last_doc = NR; else in_doc = 1
                next
            }
            if ($0 ~ /^(val|type|exception) /) {
                if (pending != "") {
                    printf "%s:%d: undocumented: %s\n", file, pending_line, pending
                    bad = 1
                }
                pending = $0; sub(/[ \t]*$/, "", pending); pending_line = NR
                if (NR - last_doc <= 3) pending = ""
            }
        }
        END {
            if (pending != "") {
                printf "%s:%d: undocumented: %s\n", file, pending_line, pending
                bad = 1
            }
            exit bad
        }
    ' "$f"; then fail=1; fi

    case "$(head -n 1 "$f")" in
        "(**"*) ;;
        *) echo "$f:1: missing module-level (** ... *) header"; fail=1 ;;
    esac
}

for f in lib/adversary/*.mli lib/core/*.mli lib/apps/*.mli lib/asim/*.mli lib/audit/*.mli lib/cluster/*.mli lib/monitor/*.mli lib/scenario/*.mli lib/simkernel/*.mli lib/telemetry/*.mli lib/metrics/json.mli; do
    check_file "$f"
done

if [ "$fail" -ne 0 ]; then
    echo "doc coverage check FAILED"
    exit 1
fi
echo "doc coverage OK: all public interfaces documented"
