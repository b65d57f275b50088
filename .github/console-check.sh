#!/usr/bin/env bash
# End-to-end checks of the installed console script, run by both CI jobs.
# Writes its files into the current directory.  Run it from the root of a
# checkout after `pip install -e .`, or with `groverdyn` on PATH standing
# for `python -m groverdyn`.
set -e
# The parser is built once, when the CLI module is imported.
groverdyn --help > /dev/null
groverdyn simulate --help > /dev/null
groverdyn classify --state eta --n 4 --marked 0,1,2,3 --max-period 12
# 2^16 amplitudes: the state writer encodes them in several chunks.
groverdyn state make haar --n 16 --seed 1 --out s.json
# Its bytes are those of json.dumps on the state's pairs, plus a newline,
# and load_state hands back the builder's amplitudes bit for bit: it
# rescales only a norm the constructor would refuse.
python -c 'import json; from groverdyn import build_state; a = build_state("haar", 16, seed=1).amplitudes; t = json.dumps({"n": 16, "amplitudes": [[float(z.real), float(z.imag)] for z in a]}) + "\n"; assert open("s.json", "rb").read() == t.encode(), "state file differs from json.dumps"'
python -c 'from groverdyn import build_state, load_state; assert load_state("s.json").amplitudes.tobytes() == build_state("haar", 16, seed=1).amplitudes.tobytes(), "loaded state differs from the builder"'
# 2^18 amplitudes: on two or more CPUs the writer cuts the list into parts
# and helper interpreters format all but the first.  The bytes are still
# those of json.dumps, plus a newline.
groverdyn state make haar --n 18 --seed 1 --out s18.json
python -c 'import json; from groverdyn import build_state; a = build_state("haar", 18, seed=1).amplitudes; t = json.dumps({"n": 18, "amplitudes": [[float(z.real), float(z.imag)] for z in a]}) + "\n"; assert open("s18.json", "rb").read() == t.encode(), "split state file differs from json.dumps"'
# Development mode prints a ResourceWarning for a pipe left open or a helper
# left running, so the split writer, in a state file and in the snapshot
# side file, must exit 0 with nothing on stderr, and write the same bytes.
python -X dev -W error -m groverdyn state make haar --n 18 --seed 1 --out s18-dev.json 2> s18-dev.err
test ! -s s18-dev.err
cmp s18-dev.json s18.json
python -X dev -W error -m groverdyn simulate --state s18.json --n 18 --marked 3 --steps 1 --full-snapshots --out snap18.csv 2> snap18.err
test ! -s snap18.err
# So a sweep from the file writes the bytes the sweep from the builder writes.
groverdyn avg-success --state s.json --n 16 --r 3 --samples 2000 --seed 1 --out avg-file.json
groverdyn avg-success --state haar --n 16 --r 3 --samples 2000 --seed 1 --out avg-builder.json
cmp avg-file.json avg-builder.json
groverdyn simulate --state s.json --n 16 --marked 3,77,40000 --steps 20 --out traj.csv
groverdyn compare --state s.json --n 16 --marked 3,77,40000 --steps 20 --out cmp.json
# Simulation and closed form agree within the 1e-10 acceptance bound.
python -c 'import json; e = json.load(open("cmp.json"))["max_abs_err"]; assert e <= 1e-10, e'
# The north star's compare at n = 20 over 4 tau (r = 1): P(t) steps only the
# marked cells, so 3217 steps of a 2^20 register take well under a second;
# the bound is far above that.
timeout 60 groverdyn compare --state ghz --n 20 --marked 1 --steps 3216 --out cmp-n20.json
python -c 'import json; e = json.load(open("cmp-n20.json"))["max_abs_err"]; assert e <= 1e-10, e'
# The simulated P at the last step matches the closed form within the same bound.
python -c 'import csv; from groverdyn import MarkedSet, analytic_success, compute_params, load_state; last = list(csv.DictReader(open("traj.csv")))[-1]; p = analytic_success(compute_params(load_state("s.json"), MarkedSet(1 << 16, (3, 77, 40000))), int(last["t"])); e = abs(float(last["p_marked"]) - p); assert e <= 1e-10, e'
# The snapshot side file lays out each amplitude list as a state file does:
# its first snapshot is the text save_state writes for the loaded state.
# 3 x 2^16 amplitudes, within the 2^22 snapshot limit.
groverdyn simulate --state s.json --n 16 --marked 3,77,40000 --steps 2 --full-snapshots --out snap.csv
python -c 'from groverdyn import load_state, save_state; save_state(load_state("s.json"), "s-again.json"); t = open("s-again.json").read(); side = open("snap.csv.states.json").read(); assert side.startswith("{\"n\": 16, \"states\": [" + t[t.index("[["):-len("}\n")] + ", [["), side[:80]'
# Flags over a limit are refused before the state file loads: a sweep of
# 100001 sets is a configuration error (exit code 3), and the grid oracle
# at n > 3 is invalid input (exit code 2).
code=0
groverdyn avg-success --state s.json --n 16 --r 2 --samples 100001 --out over-s.json || code=$?
test "$code" -eq 3
code=0
groverdyn groverian --state s.json --n 16 --oracle-check || code=$?
test "$code" -eq 2
# So is a restart count over MAX_RESTARTS (10000), in the one wording of
# an integer out of range.
code=0
groverdyn groverian --state s.json --n 16 --restarts 10001 2> restarts.err || code=$?
test "$code" -eq 2
grep -q "restarts must be in \[1, 10000\], got 10001" restarts.err
groverdyn avg-success --state eta --n 6 --r 2 --out avg-all.json
groverdyn avg-success --state ghz --n 10 --r 2 --samples 500 --seed 7 --out avg-sampled.json
# The sweep size the benchmark times: all 4096 sets of r = 1, one block
# of marked amplitudes.
groverdyn avg-success --state eta --n 12 --r 1 --out avg-n12.json
# Every marked set gives eta the same P(tau), so the sweep mean is the closed form's.
python -c 'import json; from groverdyn import MarkedSet, analytic_success, build_state, compute_params; a = json.load(open("avg-n12.json")); p = analytic_success(compute_params(build_state("eta", 12), MarkedSet(4096, (0,))), a["tau"]); assert abs(a["mean_p"] - p) <= 1e-10, (a["mean_p"], p)'
# A sweep steps only the marked amplitudes, so 2000 sets at n = 16 take
# well under a second; the bound is far above that.
timeout 30 groverdyn avg-success --state eta --n 16 --r 1 --samples 2000 --seed 0 --out avg-n16.json
python -c 'import json; from groverdyn import MarkedSet, analytic_success, build_state, compute_params; a = json.load(open("avg-n16.json")); p = analytic_success(compute_params(build_state("eta", 16), MarkedSet(65536, (0,))), a["tau"]); assert abs(a["mean_p"] - p) <= 1e-10, (a["mean_p"], p)'
# Sampled sets of r <= 64 are drawn a block of sets at a time, the same
# draws as one rng.choice call a set: 20,000 sets take well under a
# second, and a rerun writes the same bytes.
timeout 30 groverdyn avg-success --state s.json --n 16 --r 3 --samples 20000 --seed 4 --out avg-blocked.json
timeout 30 groverdyn avg-success --state s.json --n 16 --r 3 --samples 20000 --seed 4 --out avg-blocked-again.json
cmp avg-blocked.json avg-blocked-again.json
python -c 'import json; a = json.load(open("avg-blocked.json")); assert a["num_sets"] == 20000 and not a["exhaustive"], a'
# Above the cap each set is one choice call.
groverdyn avg-success --state ghz --n 10 --r 100 --samples 500 --seed 4 --out avg-r100.json
python -c 'import json; a = json.load(open("avg-r100.json")); assert a["num_sets"] == 500 and a["r"] == 100, a'
# r = N - 1 at n = 11: the largest exhaustive sweep the limits admit at
# n = 11, 2048 sets of 2047 indices.  tau = 0, so every set gives P = r/N.
groverdyn avg-success --state eta --n 11 --r 2047 --out avg-rN-1.json
python -c 'import json; a = json.load(open("avg-rN-1.json")); assert a["num_sets"] == 2048, a; assert abs(a["mean_p"] - 2047 / 2048) <= 1e-12, a'
groverdyn groverian --state w --n 3 --restarts 8 --oracle-check
# GHZ at n = 3: theta = 0 is on the oracle's grid, so both the oracle and
# the optimizer find P_max = 1/2.
groverdyn groverian --state ghz --n 3 --oracle-check > ghz3-groverian.json
python -c 'import json; d = json.load(open("ghz3-groverian.json")); o = d["oracle"]; assert o["consistent"] is True, d; assert abs(o["p_max"] - 0.5) <= 1e-12 and abs(d["p_max"] - 0.5) <= 1e-12, d'
# On the largest grid MAX_RESOLUTION admits, the oracle stays a lower
# bound on W's P_max = 4/9.
python -c 'from groverdyn import build_state, grid_search_oracle; v = grid_search_oracle(build_state("w", 3), 1000); assert v <= 4 / 9 + 1e-12, v'
# The optimizer ascends its starts in lockstep, _ASCENT_CELLS >> n = 1024
# a group at n = 8, so these 301 starts are one group.  A rerun prints the
# same bytes, and GHZ's P_max is 1/2.
groverdyn groverian --state ghz --n 8 --restarts 300 --seed 5 > ghz8-groverian.json
groverdyn groverian --state ghz --n 8 --restarts 300 --seed 5 > ghz8-groverian-again.json
cmp ghz8-groverian.json ghz8-groverian-again.json
python -c 'import json; d = json.load(open("ghz8-groverian.json")); assert abs(d["p_max"] - 0.5) <= 1e-12, d'
# The screen stops the starts that end far below the best.  In these Haar
# states (n, build_state seed, optimizer seed) a random start stalls on a
# plateau far below the best start, then climbs and wins, so the screen
# must keep it: p_max and argmax are those of the full ascent, the
# optimizer with SCREEN_MARGIN = inf.  The last runs the CLI's default
# 32 restarts.
for plateau in "12 515 15 8" "10 1083 83 8" "12 105316 8316 8" "11 74447 54447 8" "11 76711 56711 32"; do
  set -- $plateau
  groverdyn state make haar --n "$1" --seed "$2" --out "plateau-$2.json"
  groverdyn groverian --state "plateau-$2.json" --n "$1" --restarts "$4" --seed "$3" > "plateau-$2-groverian.json"
  python -c 'import json, math, sys; from groverdyn import groverian, load_state; name, seed, restarts = sys.argv[1:]; d = json.load(open(f"{name}-groverian.json")); groverian.SCREEN_MARGIN = math.inf; r = groverian.optimize_product(load_state(f"{name}.json"), restarts=int(restarts), seed=int(seed)); assert d["p_max"] == r.p_max, (d["p_max"], r.p_max); assert d["argmax"] == [[c0.real, c0.imag, c1.real, c1.imag] for c0, c1 in r.argmax.qubit_states], "argmax differs from the full ascent"' "plateau-$2" "$3" "$4"
done
# All 10,001 starts at n = 3 in one group; W's P_max is 4/9.
timeout 60 groverdyn groverian --state w --n 3 --restarts 10000 > w3-groverian.json
python -c 'import json; d = json.load(open("w3-groverian.json")); assert abs(d["p_max"] - 4 / 9) <= 1e-9, d'
# At n = 14 a group holds _ASCENT_CELLS >> 14 = 16 starts, so the 33 starts
# of 32 restarts ascend in three groups, and the best screened value
# carries from each group to the next.  A rerun prints the same bytes, and
# p_max and argmax are those of the optimizer with all 33 in one group.
groverdyn state make haar --n 14 --seed 1 --out haar14.json
groverdyn groverian --state haar14.json --n 14 --restarts 32 --seed 1 > haar14-groverian.json
groverdyn groverian --state haar14.json --n 14 --restarts 32 --seed 1 > haar14-groverian-again.json
cmp haar14-groverian.json haar14-groverian-again.json
python -c 'import json; from groverdyn import groverian, load_state; d = json.load(open("haar14-groverian.json")); groverian._ASCENT_CELLS = 33 << 14; r = groverian.optimize_product(load_state("haar14.json"), restarts=32, seed=1); assert d["p_max"] == r.p_max, (d["p_max"], r.p_max); assert d["argmax"] == [[c0.real, c0.imag, c1.real, c1.imag] for c0, c1 in r.argmax.qubit_states], "argmax differs from one group"'
# 100001 sampled sets exceed the sweep limit: configuration error, exit code 3.
code=0
groverdyn avg-success --state eta --n 12 --r 2 --samples 100001 --seed 0 --out over.json || code=$?
test "$code" -eq 3
# An r = N/2 sweep at n = 22 is over the index limit: exit code 3 at once,
# without the exact C(2^22, 2^21), which alone took minutes.
code=0
timeout 30 groverdyn avg-success --state eta --n 22 --r 2097152 --out big.json || code=$?
test "$code" -eq 3
# A negative seed is invalid input, exit code 2, even where no random
# number is drawn.
code=0
groverdyn avg-success --state eta --n 3 --r 1 --seed -1 --out neg-seed.json || code=$?
test "$code" -eq 2
# So is a negative seed given to a builder that draws none.
code=0
groverdyn state make eta --n 3 --seed -1 --out neg-seed-eta.json || code=$?
test "$code" -eq 2
# 100001 steps exceed the trajectory limit: invalid input, exit code 2.
code=0
groverdyn simulate --state eta --n 1 --marked 0 --steps 100001 --out over.csv || code=$?
test "$code" -eq 2
# A cycle search of 100001 steps is out of --max-period's range: exit code 2.
code=0
groverdyn classify --state eta --n 4 --marked 1 --max-period 100001 || code=$?
test "$code" -eq 2
# No exact cycle is longer than 6 steps (Niven's theorem), so near-returns
# of a state that never returns are not reported: this one passed the
# overlap check at k = 82.
groverdyn state make zero_mean --n 9 --seed 3 --out zm9.json
groverdyn classify --state zm9.json --n 9 --marked 65,400,436 --max-period 100 > zm9-classify.json
python -c 'import json; d = json.load(open("zm9-classify.json")); assert d["kind"] == "Generic" and d["detected_period"] is None, d'
# And a search allowed 100000 steps stops after 6, at n = 16 too.
timeout 10 groverdyn classify --state s.json --n 16 --marked 3,77,40000 --max-period 100000 > s-classify.json
python -c 'import json; d = json.load(open("s-classify.json")); assert d["detected_period"] is None, d'
# A state file nested 100,000 lists deep is malformed: invalid input, exit code 2.
python -c 'open("deep.json", "w").write("[" * 100000 + "]" * 100000)'
code=0
groverdyn classify --state deep.json --n 2 --marked 0 || code=$?
test "$code" -eq 2
