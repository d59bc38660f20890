#!/usr/bin/env bash
# Run every command of tests/determinism.txt twice and diff the two runs.
#   bash tests/determinism.sh       this tree forked, then this tree under taskset -c 0
#   bash tests/determinism.sh REV   this tree, then a detached git worktree of REV
# Each run writes its output files, exit code and stderr into one directory.
# A command differs when the first run's exit code is not the listed one or
# `diff -r` of the two directories is not empty.  Exits 1 if any command differs.
# Each moved file is named with the largest absolute difference over its
# numeric cells (split at commas, colons and blanks; # lines skipped) when
# both copies have the same shape.
set -u
here=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
there=$here pin=(taskset -c 0)
if [ $# -gt 0 ]; then
    there=$tmp/base pin=()
    git -C "$here" worktree add --quiet --detach "$there" "$1" || exit 2
    trap 'git -C "$here" worktree remove --force "$there"; rm -rf "$tmp"' EXIT
fi
run() {  # run DIR TREE [PREFIX...]: the current command of TREE into DIR
    mkdir "$1"
    PYTHONPATH="$2/src" "${@:3}" python -m vicontrol.cli "${args[@]}" --out "$1/out" \
        < /dev/null 2> "$1/stderr"
    echo $? > "$1/code"
}
largest_diff() {  # each moved file named on stdin, with its largest numeric difference
    python -c '
import re, sys
def cells(path):
    with open(path) as fh:
        return [re.split(r"[\s,:]+", ln.strip()) for ln in fh if not ln.startswith("#")]
def number(x):
    try:
        return float(x)
    except ValueError:
        return None
for name in sys.stdin.read().splitlines():
    try:
        a, b = cells("a/" + name), cells("b/" + name)
    except (OSError, ValueError):  # only in one run, or not text
        a = b = None
    if a is None or [len(r) for r in a] != [len(r) for r in b]:
        print(name)
        continue
    pairs = [(number(x), number(y)) for r, s in zip(a, b) for x, y in zip(r, s)]
    d = max([abs(x - y) for x, y in pairs if None not in (x, y) and x != y], default=0.0)
    print(f"{name} (max |diff| {d:.3g})")'
}
total=0 differ=0
while read -r -a words; do
    [[ ${#words[@]} -eq 0 || ${words[0]} == \#* ]] && continue
    expected=${words[0]} args=("${words[@]:1}")
    rm -rf "$tmp/a" "$tmp/b"
    run "$tmp/a" "$here"
    run "$tmp/b" "$there" "${pin[@]}"
    code=$(< "$tmp/a/code")
    moved=$(cd "$tmp" && diff -rq a b | sed -E 's/^Files a\/(.*) and .*/\1/
        s/^Only in (a|b)(\/(.*))?: (.*)/\3\/\4 (only in \1)/; s/^\///')
    if [ "$code" != "$expected" ]; then verdict="exit $code != $expected"
    elif [ -n "$moved" ]; then
        verdict="moved: $(cd "$tmp" && largest_diff <<< "$moved" | paste -sd ' ' -)"
    else verdict=identical; fi
    total=$((total + 1))
    [ "$verdict" = identical ] || differ=$((differ + 1))
    echo "${args[*]}: $verdict"
done < "$here/tests/determinism.txt"
echo "$total commands, $differ differ"
[ "$differ" -eq 0 ]
