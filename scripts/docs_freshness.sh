#!/bin/sh
# docs_freshness.sh — fail when an HTTP route exported by internal/server
# is not documented in docs/API.md, or when a cmd/secreta-serve flag is
# missing from both docs/API.md and docs/OPERATIONS.md. Run from the
# repository root; CI runs it on every push so the endpoint and flag
# references cannot silently drift from the code.
set -eu

server_src="internal/server"
serve_main="cmd/secreta-serve/main.go"
api_doc="docs/API.md"
ops_doc="docs/OPERATIONS.md"

# Routes can be registered from any file in the server package (the
# dashboard ones live in dashboard.go), so scan them all, not just
# server.go. `|| true` keeps set -e from aborting on grep's no-match
# exit before the diagnostic below can fire.
routes=$(grep -hoE 'HandleFunc\("[A-Z]+ [^"]+"' "$server_src"/*.go | sed -E 's/HandleFunc\("([A-Z]+) ([^"]+)"/\1 \2/' | sort -u || true)
if [ -z "$routes" ]; then
    echo "docs_freshness: no routes found in $server_src/*.go (pattern drift?)" >&2
    exit 1
fi

missing=0
while IFS= read -r route; do
    method=${route%% *}
    path=${route#* }
    # A route is documented when its path literal appears in the API doc
    # (ServeMux {id} wildcards included, so the doc must spell the real
    # pattern, not a prose paraphrase).
    if ! grep -qF "$path" "$api_doc"; then
        echo "docs_freshness: $method $path is served but not mentioned in $api_doc" >&2
        missing=1
    fi
done <<EOF
$routes
EOF

if [ "$missing" -ne 0 ]; then
    echo "docs_freshness: update $api_doc to cover every route." >&2
    exit 1
fi
echo "docs_freshness: all $(printf '%s\n' "$routes" | wc -l | tr -d ' ') routes documented."

# Every operator flag of secreta-serve must appear (as `-name`) in the API
# reference or the operations runbook.
flags=$(grep -oE 'flag\.[A-Za-z0-9]+\("[a-z][a-z0-9-]*"' "$serve_main" | sed -E 's/.*\("([^"]+)"/\1/' | sort -u || true)
if [ -z "$flags" ]; then
    echo "docs_freshness: no flags found in $serve_main (pattern drift?)" >&2
    exit 1
fi
if [ ! -f "$ops_doc" ]; then
    echo "docs_freshness: $ops_doc is missing" >&2
    exit 1
fi

missing=0
for f in $flags; do
    # Require the backtick-quoted `-flag` form, so incidental hyphenated
    # prose cannot satisfy the gate for an undocumented flag.
    if ! grep -qF -- "\`-$f\`" "$api_doc" && ! grep -qF -- "\`-$f\`" "$ops_doc"; then
        echo "docs_freshness: secreta-serve flag -$f is not documented (want \`-$f\` in $api_doc or $ops_doc)" >&2
        missing=1
    fi
done

if [ "$missing" -ne 0 ]; then
    echo "docs_freshness: update $api_doc / $ops_doc to cover every secreta-serve flag." >&2
    exit 1
fi
echo "docs_freshness: all $(printf '%s\n' "$flags" | wc -l | tr -d ' ') secreta-serve flags documented."

# The Prometheus metric families of GET /metrics are checked against the
# runbook by a Go test that walks the family table itself
# (TestMetricFamiliesDocumented in internal/server/metrics_test.go).

# The fault/degraded-mode observability fields of GET /stats must stay in
# the runbook's "/stats field reference". These are the fields an operator
# reaches for during a disk incident, so they are pinned by name rather
# than trusting the table to keep up.
stats_fields="trim_errors io_retries degraded orphans_swept disk_transient"
missing=0
for field in $stats_fields; do
    if ! grep -qF "$field" "$ops_doc"; then
        echo "docs_freshness: /stats field $field is not mentioned in $ops_doc" >&2
        missing=1
    fi
done
if [ "$missing" -ne 0 ]; then
    echo "docs_freshness: update $ops_doc (/stats field reference) to cover the fault-observability fields." >&2
    exit 1
fi
echo "docs_freshness: all fault-observability /stats fields documented."
