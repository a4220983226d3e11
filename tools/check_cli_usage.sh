#!/usr/bin/env sh
# mokasim_cli name validation: an unknown --scheme or --prefetcher is
# a usage error (exit 2, message on stderr) instead of a silent run of
# a default, and every registered scheme name is accepted.
#
# Usage: check_cli_usage.sh <path-to-mokasim_cli>
CLI=${1:?usage: check_cli_usage.sh <mokasim_cli>}

expect_usage() { # args: expected message, cli flags...
    want=$1
    shift
    out=$("$CLI" "$@" 2>&1)
    rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "FAIL: '$*' exited $rc, want 2" >&2
        exit 1
    fi
    case $out in
        *"$want"*) ;;
        *) echo "FAIL: '$*' printed '$out', want '$want'" >&2; exit 1 ;;
    esac
}

expect_usage "usage: unknown scheme 'driper'" --scheme driper
expect_usage "usage: unknown prefetcher 'bertii'" --prefetcher bertii

# dripper-meta is registered but was missing from the CLI's own table.
"$CLI" --scheme dripper-meta --warmup 1000 --insts 2000 --csv > /dev/null || {
    echo "FAIL: --scheme dripper-meta did not run" >&2
    exit 1
}
echo "PASS: mokasim_cli rejects unknown names with exit 2"
