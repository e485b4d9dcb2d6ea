#!/bin/sh
# A reproducible fracode session: every report echoes the effective
# configuration, so feeding a report back in as --config replays the
# run bitwise.  Work happens in a scratch directory.
set -e
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"

echo '# one Mittag-Leffler value'
fracode ml --alpha 0.5 --z -1

echo '# solve D^0.5 u = -u, write the path, keep the report'
fracode solve --gamma 0.5 --rhs "-1*u" --u0 1 --T 1 --n 1024 --out u.csv > report.json
head -3 u.csv
echo "rows: $(wc -l < u.csv)"

echo '# replay from the report: byte-identical output'
fracode --config report.json --out u2.csv > /dev/null
cmp u.csv u2.csv
echo 'replay matches'
fracode --config report.json solve --out u3.csv > /dev/null
cmp u.csv u3.csv
echo 'config-first replay matches'

echo '# apply the memory-kernel transforms to the sampled path'
fracode caputo --gamma 0.5 --in u.csv --out du.csv > /dev/null
head -3 du.csv

echo '# blow-up report for D^0.5 u = u^2'
fracode blowup --gamma 0.5 --A 1 --p 2 --u0 1 | python3 -m json.tool | grep -E 'Tb|constant|drift'

echo '# extinction report for D^0.5 u = -1/u, replayed from its report'
fracode extinction --gamma 0.5 --A -1 --p -1 --u0 1 > extinction.json
grep -E 'touch|bound' extinction.json
fracode --config extinction.json > extinction2.json
cmp extinction.json extinction2.json
echo 'extinction replay matches'

echo '# stability in initial values on 4 corpus trials, replayed from its report'
fracode verify stability --trials 4 > stability.json
grep -E '"(pass|all_envelopes_ok)"' stability.json
fracode --config stability.json > stability2.json
cmp stability.json stability2.json
echo 'stability replay matches'

echo '# the verification gate: resolvent identities at n = 2048'
fracode verify resolvent --n 2048 | python3 -m json.tool | grep -E 'pass|residual|identity'
