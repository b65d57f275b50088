#!/usr/bin/env bash
# End-to-end checks of the installed console script, run by both CI jobs.
# Writes its files into the current directory.  Run it from the root of a
# checkout after `pip install -e .`, or with `groverdyn` on PATH standing
# for `python -m groverdyn`.
set -e
groverdyn classify --state eta --n 4 --marked 0,1,2,3 --max-period 12
# 2^16 amplitudes: the state writer encodes them in several chunks.
groverdyn state make haar --n 16 --seed 1 --out s.json
groverdyn simulate --state s.json --n 16 --marked 3,77,40000 --steps 20 --out traj.csv
groverdyn compare --state s.json --n 16 --marked 3,77,40000 --steps 20 --out cmp.json
# Simulation and closed form agree within the 1e-10 acceptance bound.
python -c 'import json; e = json.load(open("cmp.json"))["max_abs_err"]; assert e <= 1e-10, e'
# The simulated P at the last step matches the closed form within the same bound.
python -c 'import csv; from groverdyn import MarkedSet, analytic_success, compute_params, load_state; last = list(csv.DictReader(open("traj.csv")))[-1]; p = analytic_success(compute_params(load_state("s.json"), MarkedSet(1 << 16, (3, 77, 40000))), int(last["t"])); e = abs(float(last["p_marked"]) - p); assert e <= 1e-10, e'
groverdyn avg-success --state eta --n 6 --r 2 --out avg-all.json
groverdyn avg-success --state ghz --n 10 --r 2 --samples 500 --seed 7 --out avg-sampled.json
# The sweep size the benchmark times: 4096 sets, 8 rows of 2^12 amplitudes a block.
groverdyn avg-success --state eta --n 12 --r 1 --out avg-n12.json
# Every marked set gives eta the same P(tau), so the sweep mean is the closed form's.
python -c 'import json; from groverdyn import MarkedSet, analytic_success, build_state, compute_params; a = json.load(open("avg-n12.json")); p = analytic_success(compute_params(build_state("eta", 12), MarkedSet(4096, (0,))), a["tau"]); assert abs(a["mean_p"] - p) <= 1e-10, (a["mean_p"], p)'
groverdyn groverian --state w --n 3 --restarts 8 --oracle-check
# 100001 sampled sets exceed the sweep limit: configuration error, exit code 3.
code=0
groverdyn avg-success --state eta --n 12 --r 2 --samples 100001 --seed 0 --out over.json || code=$?
test "$code" -eq 3
# 100001 steps exceed the trajectory limit: invalid input, exit code 2.
code=0
groverdyn simulate --state eta --n 1 --marked 0 --steps 100001 --out over.csv || code=$?
test "$code" -eq 2
# A cycle search of 100001 steps exceeds the same limit: exit code 2.
code=0
groverdyn classify --state eta --n 4 --marked 1 --max-period 100001 || code=$?
test "$code" -eq 2
# A state file nested 100,000 lists deep is malformed: invalid input, exit code 2.
python -c 'open("deep.json", "w").write("[" * 100000 + "]" * 100000)'
code=0
groverdyn classify --state deep.json --n 2 --marked 0 || code=$?
test "$code" -eq 2
