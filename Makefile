# Convenience targets; everything is plain dune underneath.

.PHONY: all build test test-seeds report-smoke profile-smoke replay-smoke attack-smoke perf-smoke api-gate snapshot-gate ci campaign campaign-par bench alloc-gate clean

all: build

build:
	dune build

# Quick tests: the full suite, with the fault campaign in its 8-scenario
# quick mode (FAULT_CAMPAIGN_ITERS unset).  Includes the golden
# simulated-cycles regression (bench/golden_cycles.expected).
test:
	dune runtest

# Re-run every QCheck property suite under several explicit seeds
# (the suites read QCHECK_SEED; a failure prints the seed to replay).
SEEDS ?= 1 7 42 1234 987654321
PROP_TESTS = test_cap_props test_alloc_props test_mem_props test_obs_props \
	test_forensics test_interp_equiv test_snapshot_equiv test_attack test_isa \
	test_replay test_audit test_jsvm test_alloc test_cap test_loader test_mem \
	test_packet

test-seeds: build
	@for s in $(SEEDS); do \
	  for t in $(PROP_TESTS); do \
	    echo "== QCHECK_SEED=$$s $$t =="; \
	    QCHECK_SEED=$$s dune exec test/$$t.exe >/dev/null || exit 1; \
	  done; \
	done; echo "test-seeds: all property suites passed under seeds: $(SEEDS)"

# Flight-recorder smoke: a crash replay of a campaign seed must produce
# dumps without erroring.  (The health report's golden,
# test/golden_report.expected, is diffed by `dune runtest`.)
report-smoke: build
	dune exec bench/main.exe -- crashdump 7 >/dev/null
	@echo "report-smoke: crashdump replays"

# Profiler smoke: sampled mode must produce well-formed output without
# erroring.  (The exact-mode folded stacks' golden,
# test/golden_profile.expected, is diffed by `dune runtest`.)
profile-smoke: build
	@dune exec bench/main.exe -- profile producer_consumer --interval 100 >/dev/null 2>&1
	@echo "profile-smoke: sampled profile runs"

# Record-replay smoke: journal a campaign scenario's input stream,
# re-run it under bit-exact verification, and diff the journal against
# the committed golden (any drift in IRQ timing, frame delivery or
# fault-injection order fails; regenerate the golden with the same
# record command after a deliberate model change).
replay-smoke: build
	@dune exec bench/main.exe -- replay record 7 _build/replay7.journal >/dev/null
	@dune exec bench/main.exe -- replay verify 7 _build/replay7.journal
	@diff test/golden_campaign7.journal _build/replay7.journal
	@echo "replay-smoke: journal verified and matches golden"

# Differential-security smoke: the containment matrix at --jobs 4 must
# be byte-identical to the sequential run (CHERIoT scenarios fork from
# a shared post-boot snapshot per chunk, so this also pins the
# snapshot-fork == fresh-boot equivalence).  (Its golden,
# test/golden_attack_matrix.expected, is diffed by `dune runtest`.)
attack-smoke: build
	@dune exec bench/main.exe -- attack-matrix --seed 1 --n 6 --jobs 1 2>/dev/null > _build/attack_j1.out
	@dune exec bench/main.exe -- attack-matrix --seed 1 --n 6 --jobs 4 2>/dev/null > _build/attack_j4.out
	@diff _build/attack_j1.out _build/attack_j4.out
	@dune exec bench/main.exe -- attack-matrix --seed 1 --n 6 --jobs 1 --fleet-metrics 2>/dev/null > _build/attack_fm_j1.out
	@dune exec bench/main.exe -- attack-matrix --seed 1 --n 6 --jobs 4 --fleet-metrics 2>/dev/null > _build/attack_fm_j4.out
	@diff _build/attack_fm_j1.out _build/attack_fm_j4.out
	@echo "attack-smoke: --jobs 4 identical to --jobs 1 (with and without fleet metrics)"

# Host-benchmark smoke: one short perfbench run per workload must check
# every op it ran against perfbench/expect.txt (the pinned simulated
# outputs, Fig. 7's phase/cycle string included): the last JSON line
# must say "correct": true and "failed": 0.
PERF_WORKLOADS = fig7_paper fault_campaign api_mix

perf-smoke: build
	@for w in $(PERF_WORKLOADS); do \
	  python3 perfbench/run.py --workload $$w --seed 0 --seconds 1 2>/dev/null \
	    | tail -n 1 \
	    | python3 -c 'import json, sys; r = json.loads(sys.stdin.read()); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' \
	    || { echo "perf-smoke: $$w is not correct or has failed ops"; exit 1; }; \
	done; echo "perf-smoke: $(PERF_WORKLOADS) correct, no failed ops"

ci: build test test-seeds report-smoke profile-smoke replay-smoke campaign-par attack-smoke perf-smoke alloc-gate api-gate snapshot-gate

# Interface gate: every `val` a library interface (lib/*/*.mli) exports
# must be used by another compilation unit in lib, test, bench, examples,
# perfbench or bin.  tools/api_gate.ml reads the typed trees dune writes
# (.cmt/.cmti, built by `dune build @check`): a use counts when a
# reference resolves, through any open, alias or include, to the val's
# declaration in the .mli; a name that merely appears elsewhere does not.
# An unused export either leaves the .mli (still used inside its module)
# or is deleted (the build then reports warning 32).
api-gate: build
	@dune build @check
	@dune exec tools/api_gate.exe

# Snapshot gate: in every library unit that registers a
# Machine.on_snapshot capture or defines a value named `snapshot`, each
# `mutable` record field must be read or written inside a capture, or
# inside a function of the same unit a capture calls.  tools/snapshot_gate.ml
# reads the same typed trees as api-gate.  A forgotten field is fixed by
# capturing it, or by moving it into the component's immutable state
# record (whose one mutable field the capture already keeps).
snapshot-gate: build
	@dune build @check
	@dune exec tools/snapshot_gate.exe

# Long mode: 200 seeded scenarios (override with FAULT_CAMPAIGN_ITERS=n).
# Farmed across all cores by default; --jobs 1 forces the sequential path.
campaign:
	dune exec bench/main.exe -- campaign

# Farm determinism smoke: an 8-scenario campaign at --jobs 4 must be
# byte-identical to the sequential run (the farm's ordering contract,
# plus the no-cross-machine-global-state invariant from DESIGN.md).
campaign-par: build
	@FAULT_CAMPAIGN_ITERS=8 dune exec bench/main.exe -- campaign --jobs 1 2>/dev/null > _build/campaign_j1.out
	@FAULT_CAMPAIGN_ITERS=8 dune exec bench/main.exe -- campaign --jobs 4 2>/dev/null > _build/campaign_j4.out
	@diff _build/campaign_j1.out _build/campaign_j4.out
	@FAULT_CAMPAIGN_ITERS=8 dune exec bench/main.exe -- campaign --jobs 1 --fleet-metrics 2>/dev/null > _build/campaign_fm_j1.out
	@FAULT_CAMPAIGN_ITERS=8 dune exec bench/main.exe -- campaign --jobs 4 --fleet-metrics 2>/dev/null > _build/campaign_fm_j4.out
	@diff _build/campaign_fm_j1.out _build/campaign_fm_j4.out
	@echo "campaign-par: --jobs 4 output identical to --jobs 1 (with and without fleet metrics)"

bench:
	dune exec bench/main.exe

# Allocation gate for the packed capability register file: the warm
# (second) run of the tight loop — segments decoded, blocks compiled —
# must allocate at most 0.01 minor-heap words per simulated
# instruction; the committed baseline is exactly 0.  Also gates the
# warm minor words per compartment-call round trip (0 B and 1024 B
# stack), the compiled blocks the switcher segment holds after calls of
# every arity, posture and stack shape, per slow tick with the revoker
# sweeping (0, like the loop),
# per 16 B allocate/free pair, and the major-heap words one boot
# allocates directly (SRAM and its tag store), each under a fixed
# ceiling; see alloc_gate_cmd in bench/main.ml.
# Then three checks on the compiled code:
# - the default build must compile lib/isa without -opaque (dune's dev
#   profile adds it, and it stops every cross-unit inlining, so the
#   Capability/Memory/Machine accessors would be calls again);
# - the compiled unit holding the register file
#   (Superblock.Packed_cap) must contain no element-polymorphic array
#   access: such code compares the array's tag with Double_array_tag
#   (0xfe) on every read and write, and calls caml_modify on every
#   write.  Every register-file access is compiled against int array,
#   so the count is 0 (x86-64 and arm64 disassembly);
# - the switcher's compiled blocks and the interpreter must not call the
#   generic runtime: Array.fill (the C caml_array_fill) or the
#   polymorphic Stdlib.min/max, which go through compare_val.
ISA_OBJS = _build/default/lib/isa/.cheriot_isa.objs/native
SB_OBJ = $(ISA_OBJS)/superblock.o
INTERP_OBJ = $(ISA_OBJS)/interp.o

alloc-gate: build
	dune exec bench/main.exe -- alloc-gate
	@r=$$(dune rules $(SB_OBJ:.o=.cmx)) || { echo "alloc-gate: cannot print the rule for $(SB_OBJ:.o=.cmx)"; exit 1; }; \
	printf '%s\n' "$$r" | grep -q 'ocamlopt' || { echo "alloc-gate: no ocamlopt rule for $(SB_OBJ:.o=.cmx)"; exit 1; }; \
	if printf '%s\n' "$$r" | grep -q -- '-opaque'; then \
	  echo "alloc-gate: FAIL — lib/isa is compiled with -opaque (no cross-unit inlining)"; exit 1; \
	fi; \
	echo "alloc-gate: lib/isa compiled without -opaque"
	@d=$$(objdump -d $(SB_OBJ)) || { echo "alloc-gate: cannot disassemble $(SB_OBJ)"; exit 1; }; \
	n=$$(printf '%s\n' "$$d" | grep -cE 'cmp.*[$$#]0xfe([^0-9a-f]|$$)'); \
	if [ "$$n" -ne 0 ]; then \
	  echo "alloc-gate: FAIL — $$n generic array tag tests in $(SB_OBJ)"; exit 1; \
	fi; \
	echo "alloc-gate: no generic array access in $(SB_OBJ)"
	@for o in $(SB_OBJ) $(INTERP_OBJ); do \
	  d=$$(objdump -dr $$o) || { echo "alloc-gate: cannot disassemble $$o"; exit 1; }; \
	  n=$$(printf '%s\n' "$$d" | grep -cE 'caml_array_fill|camlStdlib__Array[._]fill_|camlStdlib[._]+(min|max)_'); \
	  if [ "$$n" -ne 0 ]; then \
	    echo "alloc-gate: FAIL — $$n calls to Array.fill or Stdlib.min/max in $$o"; exit 1; \
	  fi; \
	done; \
	echo "alloc-gate: no Array.fill or Stdlib.min/max calls in $(SB_OBJ) $(INTERP_OBJ)"

clean:
	dune clean
