package main

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// heldOutSeed is kept out of tuning: a later claim made on the benchmark's
// workloads must also hold with --seed 9001.
const heldOutSeed = 9001

// shortRun is a small sim-kv run: 20ms of virtual time at 40 kops.
func shortRun(seed int64, tr *tracer) simRun {
	r := simKV.run(seed, 0, 1, tr)
	r.window = 20 * sim.Millisecond
	r.marks = []sim.Duration{r.window / 3}
	return r
}

func virtualMetrics(t *testing.T, r simRun) (map[string]metric, uint64) {
	t.Helper()
	res, err := runSim(r)
	if err != nil {
		t.Fatal(err)
	}
	defer res.d.Stop()
	if len(res.errs) > 0 {
		t.Fatalf("checks failed: %s", strings.Join(res.errs, "; "))
	}
	m, _, _ := e2eMetrics([]*simResult{res}, float64(r.window)/float64(sim.Second))
	return m, res.events
}

func sameMetrics(t *testing.T, what string, a, b map[string]metric) {
	t.Helper()
	for k, v := range a {
		if b[k].Value != v.Value {
			t.Errorf("%s: %s = %v, then %v", what, k, v.Value, b[k].Value)
		}
	}
}

func TestSameSeedBitIdentical(t *testing.T) {
	a, ea := virtualMetrics(t, shortRun(7, nil))
	b, eb := virtualMetrics(t, shortRun(7, nil))
	sameMetrics(t, "rerun", a, b)
	if ea != eb {
		t.Errorf("rerun executed %d events, then %d", ea, eb)
	}
	c, _ := virtualMetrics(t, shortRun(8, nil))
	if c["write_p50_us"].Value == a["write_p50_us"].Value && c["read_p99_us"].Value == a["read_p99_us"].Value {
		t.Errorf("seeds 7 and 8 gave the same latencies; the seed does not reach the workload")
	}
}

func TestTracedMatchesUntraced(t *testing.T) {
	a, ea := virtualMetrics(t, shortRun(7, nil))
	tr := newTracer()
	b, eb := virtualMetrics(t, shortRun(7, tr))
	sameMetrics(t, "traced", a, b)
	if ea != eb {
		t.Errorf("untraced run executed %d events, traced %d", ea, eb)
	}
	rpc := tr.chanTotals()["rpc"]
	if rpc.frames == 0 || rpc.deliver.n == 0 {
		t.Errorf("tracer saw no RPC frames")
	}
	linked := 0
	for _, s := range tr.spans {
		if s.Kind == "frame" && s.Op >= 0 {
			linked++
		}
	}
	if linked == 0 {
		t.Errorf("no frame span is linked to its request")
	}
}

func TestHeldOutSeedPassesChecks(t *testing.T) {
	virtualMetrics(t, shortRun(heldOutSeed, nil))
}

func TestCheckerRejectsForeignValues(t *testing.T) {
	ks := newKeyspace(2, 8, 32)
	ops := []op{
		{kind: opSet, keys: [2]int32{0}, due: 10},
		{kind: opGet, keys: [2]int32{0}, due: 5},
		{kind: opGet, keys: [2]int32{1}, due: 20},
	}
	c := &checker{ks: ks, ops: ops}
	c.readValue(1, 0, ks.value(0, 0), 20) // a concurrent write: fine
	if len(c.errs) != 0 {
		t.Fatalf("a read of a write issued before it completed was rejected: %v", c.errs)
	}
	c.readValue(1, 0, ks.value(0, 0), 8)  // returned before the write was issued
	c.readValue(2, 1, ks.value(0, 0), 30) // another key's value
	bad := ks.value(0, 0)
	bad[20] ^= 1
	c.readValue(1, 0, bad, 20) // corrupted
	if len(c.errs) != 3 {
		t.Fatalf("want 3 findings, got %v", c.errs)
	}
}
