#!/bin/sh
# Doc-coverage lint for the public interfaces of lib/adversary, lib/apps,
# lib/core,
# lib/asim, lib/audit, lib/cluster, lib/monitor, lib/scenario and
# lib/simkernel, plus lib/graph/graph.mli, lib/metrics/json.mli and
# lib/metrics/histogram.mli:
# every .mli must open with a module-level
# (** ... *) header, and every top-level `val`/`type`/`exception` item
# must carry an odoc comment — either ending within the three lines above
# the item (doc-above style) or following the item before the next item
# (doc-after / inline style).  The engine and cluster-table operations
# are declared once, in the `module type S = sig ... end` of
# lib/core/engine_impl.ml and lib/core/table_intf.ml, which the .mli
# files include; the items of those two signatures are checked under the
# same rule.  This runs without odoc installed and complements the
# `dune build @doc` job in CI.
set -eu

cd "$(dirname "$0")/.."

fail=0

# check_items FILE [sig]: with "sig", only the items of FILE's
# `module type S = sig ... end` are checked (indented by two spaces).
check_items() {
    if ! awk -v file="$1" -v sig_only="${2:-}" '
        BEGIN {
            pending = ""; pending_line = 0; last_doc = -10; in_doc = 0; bad = 0
            inside = (sig_only == "")
            item = (sig_only == "") ? "^(val|type|exception) " : "^  (val|type|exception) "
        }
        function flush() {
            if (pending != "") {
                printf "%s:%d: undocumented: %s\n", file, pending_line, pending
                bad = 1
            }
            pending = ""
        }
        sig_only != "" && /^module type S = sig/ { inside = 1; found = 1; next }
        sig_only != "" && inside && /^end/ { flush(); inside = 0; next }
        !inside { next }
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
            if ($0 ~ item) {
                flush()
                pending = $0; sub(/^[ \t]*/, "", pending); sub(/[ \t]*$/, "", pending)
                pending_line = NR
                if (NR - last_doc <= 3) pending = ""
            }
        }
        END {
            flush()
            if (sig_only != "" && !found) {
                printf "%s: no module type S = sig ... end\n", file
                bad = 1
            }
            exit bad
        }
    ' "$1"; then fail=1; fi
}

check_file() {
    f=$1
    check_items "$f"
    case "$(head -n 1 "$f")" in
        "(**"*) ;;
        *) echo "$f:1: missing module-level (** ... *) header"; fail=1 ;;
    esac
}

for f in lib/adversary/*.mli lib/core/*.mli lib/apps/*.mli lib/asim/*.mli lib/audit/*.mli lib/cluster/*.mli lib/monitor/*.mli lib/scenario/*.mli lib/simkernel/*.mli lib/graph/graph.mli lib/metrics/json.mli lib/metrics/histogram.mli; do
    check_file "$f"
done

for f in lib/core/engine_impl.ml lib/core/table_intf.ml; do
    check_items "$f" sig
done

if [ "$fail" -ne 0 ]; then
    echo "doc coverage check FAILED"
    exit 1
fi
echo "doc coverage OK: all public interfaces documented"
