package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/sim"
)

// simSpec is a sim workload: its deployment shape, its load (open loop at
// rate, or closed loop at depth), how many independent runs one benchmark
// run makes, and the window and fault schedule of each per second of
// --seconds.
type simSpec struct {
	name      string
	shape     shape
	rate      float64 // offered ops per virtual second (open loop)
	depth     int     // outstanding requests per client (closed loop)
	runs      int     // independent runs, each with its own seed
	perSecond sim.Duration
	drain     sim.Duration
	// slo is the slo_kops search on the workload's shape; workloads
	// without one (the fault workloads) do not report slo_kops.
	slo *sloSearch
	// faults and marks scale a window of w.
	faults func(w sim.Duration) faults
	marks  func(w sim.Duration) []sim.Duration
}

// evenMarks are the fault instants of a workload without a fault: ten
// evenly spaced instants, from which outage_ms measures the floor of write
// service time.
func evenMarks(w sim.Duration) []sim.Duration {
	const n = 10
	m := make([]sim.Duration, n)
	for i := range m {
		m[i] = w * sim.Duration(i+1) / (n + 1)
	}
	return m
}

func noFaults(sim.Duration) faults { return faults{} }

// simKV is the healthy serving path at 40 kops, about 55% of the knee.
var simKV = simSpec{
	name:      "sim-kv",
	shape:     servingShape,
	rate:      40000,
	runs:      14,
	perSecond: 25 * sim.Millisecond / 2,
	drain:     20 * sim.Millisecond,
	slo:       &sloSearch{start: 32, step: 8, window: 100 * sim.Millisecond},
	faults:    noFaults,
	marks:     evenMarks,
}

// simKVOrdered is the ordered path: one group, fast reads off, one client
// host keeping 4 requests outstanding; every read is ordered and two-key
// operations stay on one group, so it bypasses the read fast path, the
// scatter read and 2PC that sim-kv exercises. It is net-kv's shape.
var simKVOrdered = simSpec{
	name:      "sim-kv-ordered",
	shape:     orderedShape,
	depth:     4,
	runs:      10,
	perSecond: 6 * sim.Millisecond,
	drain:     20 * sim.Millisecond,
	// The ordered path's write p99 rises slowly with load (about 190 us
	// at 16 kops, 300 us at 32), so the search needs longer probes to
	// place the limit within a few percent.
	slo:    &sloSearch{start: 16, step: 8, window: 300 * sim.Millisecond},
	faults: noFaults,
	marks:  evenMarks,
}

// simKVLossy runs the mix at 5 kops with 2% drops and up to 500us of extra
// delay before GST at half the window; outage is measured from GST.
var simKVLossy = simSpec{
	name:      "sim-kv-lossy",
	shape:     servingShape,
	rate:      5000,
	runs:      1,
	perSecond: 5 * sim.Millisecond,
	drain:     20 * sim.Millisecond,
	faults: func(w sim.Duration) faults {
		return faults{gst: w / 2, drop: 0.02, extraMax: 500 * sim.Microsecond}
	},
	marks: func(w sim.Duration) []sim.Duration { return []sim.Duration{w / 2} },
}

// simKVCrash runs the mix at 10 kops on a clean fabric, kills shard 0's
// view-0 leader at a third of the window and cold-rejoins it at two
// thirds; outage is measured from the kill.
var simKVCrash = simSpec{
	name:      "sim-kv-crash",
	shape:     servingShape,
	rate:      10000,
	runs:      1,
	perSecond: 15 * sim.Millisecond / 2,
	drain:     20 * sim.Millisecond,
	faults: func(w sim.Duration) faults {
		return faults{kill: w / 3, restart: 2 * w / 3}
	},
	marks: func(w sim.Duration) []sim.Duration { return []sim.Duration{w / 3} },
}

// The SLO of the rate search, and its probes.
const (
	sloWriteP99 = 250 * sim.Microsecond
	sloRuns     = 5
	sloDrain    = 10 * sim.Millisecond
	sloMaxKops  = 128.0
	sloBacklog  = 2000
	setupReps   = 41
	setupWarmup = 3
)

// run is the j-th run of the workload for a benchmark seed.
func (s simSpec) run(seed int64, j, seconds int, tr *tracer) simRun {
	w := s.perSecond * sim.Duration(seconds)
	return simRun{
		shape: s.shape, seed: seed*int64(s.runs) + int64(j), rate: s.rate, depth: s.depth,
		window: w, drain: s.drain, faults: s.faults(w), marks: s.marks(w), tr: tr,
	}
}

// latencies splits the run's operations by kind into latency samples in
// microseconds, leaving out the outage probes. A failed or unanswered
// operation enters at its censored age, the time from its due time to the
// end of the run.
func latencies(ops []op, end sim.Time) (read, write, xshard []float64) {
	for i := range ops {
		o := &ops[i]
		if o.probe {
			continue
		}
		lat := end - o.due
		if o.ok {
			lat = o.at - o.due
		}
		us := float64(lat) / 1e3
		switch o.kind {
		case opGet:
			read = append(read, us)
		case opSet:
			write = append(write, us)
		default:
			xshard = append(xshard, us)
		}
	}
	return
}

// outages are, for each of the run's fault instants, the time until the
// first completion of a shard-0 write issued at or after it, censored at
// the end of the run.
func outages(res *simResult) []float64 {
	var outs []float64
	for _, mark := range res.marks {
		best := res.end.Sub(mark)
		for i := range res.ops {
			o := &res.ops[i]
			if o.ok && o.due >= mark && shard0Write(res.ks, o) {
				if d := o.at.Sub(mark); d < best {
					best = d
				}
			}
		}
		outs = append(outs, float64(best))
	}
	return outs
}

// e2eMetrics computes the end-to-end metrics of a set of runs: answered
// fraction and goodput over all their operations, each latency percentile
// as the median over the runs, and the outage as the mean over all their
// fault instants (steadier than their median, which sits where the
// distribution leaves its floor). window is each run's load window in
// seconds.
func e2eMetrics(runs []*simResult, window float64) (map[string]metric, int, int) {
	var (
		n, ok                   int
		reads, writes, xshards  int
		r50, r90, r99           []float64
		w50, w90, w99, x50, x99 []float64
		out                     []float64
	)
	for _, res := range runs {
		for i := range res.ops {
			if res.ops[i].ok {
				ok++
			}
		}
		n += len(res.ops)
		read, write, xshard := latencies(res.ops, res.end)
		reads, writes, xshards = reads+len(read), writes+len(write), xshards+len(xshard)
		r50, r90, r99 = append(r50, quantile(read, 0.5)), append(r90, quantile(read, 0.9)), append(r99, quantile(read, 0.99))
		w50, w90, w99 = append(w50, quantile(write, 0.5)), append(w90, quantile(write, 0.9)), append(w99, quantile(write, 0.99))
		x50, x99 = append(x50, quantile(xshard, 0.5)), append(x99, quantile(xshard, 0.99))
		for _, o := range outages(res) {
			out = append(out, o/1e6)
		}
	}
	m := map[string]metric{
		"answered_frac": {float64(ok) / float64(n), "frac", n},
		"goodput_kops":  {float64(ok) / (window * float64(len(runs))) / 1e3, "kops/s", ok},
		"read_p50_us":   {median(r50), "us", reads},
		"read_p90_us":   {median(r90), "us", reads},
		"read_p99_us":   {median(r99), "us", reads},
		"write_p50_us":  {median(w50), "us", writes},
		"write_p90_us":  {median(w90), "us", writes},
		"write_p99_us":  {median(w99), "us", writes},
		"xshard_p50_us": {median(x50), "us", xshards},
		"xshard_p99_us": {median(x99), "us", xshards},
		"outage_ms":     {mean(out), "ms", len(out)},
	}
	return m, n, n - ok
}

// setupSim builds the workload's deployment setupWarmup times untimed,
// for the heap to grow to its working size, then setupReps times, and
// returns the median construction time in seconds.
func setupSim(sh shape, seed int64, f faults) (float64, error) {
	var ts []float64
	for i := -setupWarmup; i < setupReps; i++ {
		settle()
		t0 := time.Now()
		d, err := sh.build(seed, f, nil)
		if err != nil {
			return 0, err
		}
		if i >= 0 {
			ts = append(ts, time.Since(t0).Seconds())
		}
		d.Stop()
	}
	return median(ts), nil
}

// sloSearch is a workload's slo_kops rate search: the rates it probes
// start at start kops and rise in step kops steps, and each probe run
// lasts window.
type sloSearch struct {
	start, step float64
	window      sim.Duration
}

// sloKops finds the highest open-loop rate of the shape's mix at which a
// healthy deployment of it keeps write p99 (failed and unanswered writes
// at their censored age) within sloWriteP99. At each rate it runs sloRuns
// short runs with their own seeds, the same for every rate so each arrival
// stream is only time-scaled, and takes their median p99. It interpolates
// linearly between the last rate within the limit and the first past it.
// A run past the knee stops once sloBacklog operations are outstanding.
func sloKops(sh shape, s sloSearch, seed int64) (float64, int, error) {
	lim := sloWriteP99.Micros()
	prevK, prevP := 0.0, 0.0
	probes := 0
	for k := s.start; k <= sloMaxKops; k += s.step {
		var p99s []float64
		for j := int64(0); j < sloRuns; j++ {
			res, err := runSim(simRun{shape: sh, seed: seed*sloRuns + j, rate: k * 1000, window: s.window, drain: sloDrain, backlogCap: sloBacklog})
			if err != nil {
				return 0, 0, err
			}
			res.d.Stop()
			if len(res.errs) > 0 {
				return 0, 0, fmt.Errorf("slo probe at %.0f kops: %s", k, res.errs[0])
			}
			probes++
			_, write, _ := latencies(res.ops, res.end)
			p := quantile(write, 0.99)
			if res.aborted {
				p = math.Inf(1)
			}
			p99s = append(p99s, p)
		}
		p := median(p99s)
		if math.IsInf(p, 1) {
			return prevK, probes, nil
		}
		if p > lim {
			return prevK + (k-prevK)*(lim-prevP)/(p-prevP), probes, nil
		}
		prevK, prevP = k, p
	}
	return sloMaxKops, probes, nil
}

// unreplWriteP50 replays the run's point GETs and SETs, open loop at the
// same due times, against the unreplicated baseline, and returns its
// write p50 in microseconds.
func unreplWriteP50(res *simResult) float64 {
	u := cluster.NewUnrepl(int64(len(res.ops)), func() app.StateMachine { return app.NewKV(0) })
	var write []float64
	for i := range res.ops {
		o := &res.ops[i]
		if o.multi() {
			continue
		}
		p := payload(res.ks, i, o)
		due := o.due
		set := o.kind == opSet
		u.Eng.Post(due, func() {
			u.Client.Invoke(p, func(_ []byte, _ sim.Duration) {
				if set {
					write = append(write, float64(u.Eng.Now()-due)/1e3)
				}
			})
		})
	}
	u.Eng.RunUntil(res.end)
	return quantile(write, 0.5)
}

// simRunner runs one sim workload. The untraced run reports the
// end-to-end metrics. The traced run repeats the workload's first run
// untraced and traced, checks that their virtual metrics are equal, and
// reports the per-layer metrics and the tracing overhead on host time.
// sim-kv's traced run also runs the two fault workloads traced, reporting
// their per-layer metrics under lossy.* and crash.*, and a short traced
// net-kv run, reporting the real-socket layers.
func simRunner(spec simSpec) runner {
	return func(seed int64, seconds int, trace bool, out string) (*report, error) {
		setup, err := setupSim(spec.shape, seed, spec.run(seed, 0, seconds, nil).faults)
		if err != nil {
			return nil, err
		}
		if trace {
			return traceSim(spec, seed, seconds, out)
		}
		rep := &report{}
		var runs []*simResult
		for j := 0; j < spec.runs; j++ {
			res, err := runSim(spec.run(seed, j, seconds, nil))
			if err != nil {
				return nil, err
			}
			rep.errs = append(rep.errs, res.errs...)
			rep.errs = append(rep.errs, checkReplicas(res.d)...)
			res.d.Stop()
			res.d = nil
			runs = append(runs, res)
		}
		w := spec.run(seed, 0, seconds, nil).window
		e2e, n, failed := e2eMetrics(runs, float64(w)/float64(sim.Second))
		if spec.slo != nil {
			slo, probes, err := sloKops(spec.shape, *spec.slo, seed)
			if err != nil {
				return nil, err
			}
			e2e["slo_kops"] = metric{slo, "kops/s", probes}
		}
		e2e["setup_s"] = metric{setup, "s", setupReps}
		rep.Metrics, rep.Attempted, rep.Failed = e2e, n, failed
		rep.Correct = len(rep.errs) == 0
		return rep, nil
	}
}

// faultLayerNames are the per-layer metrics sim-kv's traced run reports
// for each fault workload, prefixed lossy. and crash.
var faultLayerNames = []struct{ name, unit string }{
	{"answered_frac", "frac"},
	{"outage_ms", "ms"},
	{"events_per_op", "count"},
	{"pending_end", "count"},
	{"drops_per_op", "count"},
	{"ring_frames_per_op", "count"},
	{"ringack_frames_per_op", "count"},
	{"direct_frames_per_op", "count"},
	{"mem_frames_per_op", "count"},
	{"view_changes", "count"},
	{"rejoin_ms", "ms"},
	{"fast_frac", "frac"},
	{"host_s", "s"},
}

// traceSim is the traced run of a sim workload.
func traceSim(spec simSpec, seed int64, seconds int, out string) (*report, error) {
	rep := &report{}
	res, err := runSim(spec.run(seed, 0, seconds, nil))
	if err != nil {
		return nil, err
	}
	res.d.Stop()
	tres, err := runSim(spec.run(seed, 0, seconds, newTracer()))
	if err != nil {
		return nil, err
	}
	tres.d.Stop()
	rep.errs = append(append(rep.errs, res.errs...), tres.errs...)
	w := float64(spec.run(seed, 0, seconds, nil).window) / float64(sim.Second)
	e2e, n, failed := e2eMetrics([]*simResult{res}, w)
	te2e, _, _ := e2eMetrics([]*simResult{tres}, w)
	for k, v := range e2e {
		if te2e[k].Value != v.Value {
			rep.errs = append(rep.errs, fmt.Sprintf("traced run changed %s: %v untraced, %v traced", k, v.Value, te2e[k].Value))
		}
	}
	if tres.events != res.events {
		rep.errs = append(rep.errs, fmt.Sprintf("traced run executed %d events, untraced %d", tres.events, res.events))
	}
	lm := simLayerMetrics(tres, unreplWriteP50(tres))
	lm["sim.host_s"] = float64(res.hostNs) / 1e9 // untraced
	lm["sim.host_ns_per_event"] = float64(res.hostNs) / float64(res.events)
	lm["trace.host_overhead_frac"] = float64(tres.hostNs)/float64(res.hostNs) - 1
	if err := tres.layers.tr.writeSpans(filepath.Join(out, fmt.Sprintf("spans-%s-%d.jsonl", spec.name, seed)), tres.end); err != nil {
		return nil, err
	}
	rep.Attempted, rep.Failed = n, failed
	if spec.name == simKV.name {
		for _, f := range []struct {
			prefix string
			spec   simSpec
		}{{"lossy.", simKVLossy}, {"crash.", simKVCrash}} {
			fres, err := runSim(f.spec.run(seed, 0, seconds, newTracer()))
			if err != nil {
				return nil, err
			}
			fres.d.Stop()
			rep.errs = append(rep.errs, fres.errs...)
			fw := float64(f.spec.run(seed, 0, seconds, nil).window) / float64(sim.Second)
			fe2e, _, _ := e2eMetrics([]*simResult{fres}, fw)
			fl := simLayerMetrics(fres, 0)
			vals := map[string]float64{
				"answered_frac":         fe2e["answered_frac"].Value,
				"outage_ms":             fe2e["outage_ms"].Value,
				"events_per_op":         fl["sim.events_per_op"],
				"pending_end":           fl["sim.pending_end"],
				"drops_per_op":          fl["net.drops_per_op"],
				"ring_frames_per_op":    fl["ring.frames_per_op"],
				"ringack_frames_per_op": fl["ringack.frames_per_op"],
				"direct_frames_per_op":  fl["direct.frames_per_op"],
				"mem_frames_per_op":     fl["mem.frames_per_op"],
				"view_changes":          fl["consensus.view_changes"],
				"rejoin_ms":             fl["consensus.rejoin_ms"],
				"fast_frac":             fl["ctbcast.fast_frac"],
				"host_s":                float64(fres.hostNs) / 1e9,
			}
			for _, l := range faultLayerNames {
				lm[f.prefix+l.name] = vals[l.name]
			}
		}
		nrep, err := runNetWorkload(seed, netTraceSeconds, true, out)
		if err != nil {
			return nil, err
		}
		rep.errs = append(rep.errs, nrep.errs...)
		for name, v := range nrep.Metrics {
			if netLayer(name) {
				lm[name] = v.Value
			}
		}
	}
	rep.Metrics = layerReport(lm)
	rep.Correct = len(rep.errs) == 0
	return rep, nil
}

// layerReport turns computed per-layer values into the reported set:
// every per-layer metric, 0 where the workload has no such layer.
func layerReport(vals map[string]float64) map[string]metric {
	m := map[string]metric{}
	for _, l := range perLayerNames {
		m[l.name] = metric{Value: vals[l.name], Unit: l.unit, samples: 1}
	}
	for _, prefix := range []string{"lossy.", "crash."} {
		for _, l := range faultLayerNames {
			m[prefix+l.name] = metric{Value: vals[prefix+l.name], Unit: l.unit, samples: 1}
		}
	}
	return m
}
