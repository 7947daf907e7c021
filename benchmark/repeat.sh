#!/usr/bin/env bash
# Runs the benchmark the way its acceptance is judged: two sets of N runs
# per workload, every run on another seed, and for each end-to-end metric
# the spread of each set (interquartile range over median) and the gap
# between the two set medians, against the metric's bound.
#
#   benchmark/repeat.sh N [workload ...]
#
# Exits non-zero when a spread (setup_s excepted) or a gap exceeds its
# bound, or a run fails. Build products go to $CARGO_TARGET_DIR, or to
# benchmark/target; every run's result line is kept in
# benchmark/out/repeat-runs.txt.
set -euo pipefail

n="${1:?usage: benchmark/repeat.sh N [workload ...]}"
shift
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target"
bin="$target/release/lumos-benchmark"

workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(python3 -c '
import json, sys
print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")
fi
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"

mkdir -p "$here/out"
results="$here/out/repeat-runs.txt"
: > "$results"
cd "$root"
for set in A B; do
    # Set A runs seeds 1..N, set B seeds 101..100+N.
    offset=0
    [ "$set" = B ] && offset=100
    for i in $(seq 1 "$n"); do
        seed=$(( i + offset ))
        for w in "${workloads[@]}"; do
            line="$("$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
            echo "$set $w $seed $line" >> "$results"
            echo "set $set seed $seed $w done" >&2
        done
    done
done

python3 - "$results" "$root/BENCHMARK.json" <<'EOF'
import json, statistics, sys

manifest = json.load(open(sys.argv[2]))
metrics = {m["name"]: m for m in manifest["end_to_end"]}
runs = {}
failed = False
for row in open(sys.argv[1]):
    which, workload, seed, line = row.split(" ", 3)
    result = json.loads(line)
    if not result["correct"] or result["failed"]:
        print(f"FAILED RUN: {workload} seed {seed}")
        failed = True
    for name, m in result["metrics"].items():
        runs.setdefault((workload, name), {}).setdefault(which, []).append(m["value"])

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

print(f"{'workload':<19}{'metric':<12}{'median A':>14}{'spread A':>10}"
      f"{'median B':>14}{'spread B':>10}{'gap':>9}{'bound':>7}")
for (workload, name), sets in runs.items():
    m = metrics[name]
    a, b = sets["A"], sets["B"]
    med_a, med_b = statistics.median(a), statistics.median(b)
    # Positive when set B is worse than set A.
    gap = (med_b - med_a) / med_a
    if m["better"] == "higher":
        gap = -gap
    spreads = (spread(a), spread(b))
    flags = []
    if name != "setup_s" and max(spreads) > m["bound"]:
        flags.append("SPREAD")
    elif name != "setup_s" and max(spreads) > m["bound"] / 3:
        flags.append("(spread over a third of the bound)")
    if abs(gap) > m["bound"]:
        flags.append("GAP")
    failed |= any(f.isupper() for f in flags)
    print(f"{workload:<19}{name:<12}{med_a:>14.5g}{spreads[0]:>10.4f}"
          f"{med_b:>14.5g}{spreads[1]:>10.4f}{gap:>+9.4f}{m['bound']:>7} {' '.join(flags)}")
sys.exit(1 if failed else 0)
EOF
