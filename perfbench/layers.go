package main

import (
	"repro/internal/shard"
	"repro/internal/sim"
)

// perLayerNames lists every per-layer metric, in output order, with its
// unit. Every traced run reports each of them; a metric of a layer the
// workload does not run (a node process's CPU on a sim workload, say)
// reads 0.
var perLayerNames = []struct{ name, unit string }{
	{"sim.events_per_op", "count"},
	{"sim.host_s", "s"},
	{"sim.host_ns_per_event", "ns"},
	{"sim.pending_peak", "count"},
	{"sim.pending_end", "count"},
	{"sim.backlog_max_us", "us"},
	{"net.msgs_per_op", "count"},
	{"net.bytes_per_op", "B"},
	{"net.drops_per_op", "count"},
	{"ring.frames_per_op", "count"},
	{"ring.handler_ns_per_op", "ns"},
	{"ring.deliver_p50_us", "us"},
	{"ringack.frames_per_op", "count"},
	{"ringack.handler_ns_per_op", "ns"},
	{"ringack.deliver_p50_us", "us"},
	{"mem.frames_per_op", "count"},
	{"mem.handler_ns_per_op", "ns"},
	{"mem.deliver_p50_us", "us"},
	{"rpc.frames_per_op", "count"},
	{"rpc.handler_ns_per_op", "ns"},
	{"rpc.deliver_p50_us", "us"},
	{"direct.frames_per_op", "count"},
	{"direct.handler_ns_per_op", "ns"},
	{"direct.deliver_p50_us", "us"},
	{"summary.frames_per_op", "count"},
	{"summary.handler_ns_per_op", "ns"},
	{"summary.deliver_p50_us", "us"},
	{"ctbcast.fast_frac", "frac"},
	{"ctbcast.summaries_per_kop", "count"},
	{"consensus.slots_per_kop", "count"},
	{"consensus.view_changes", "count"},
	{"consensus.rejoin_ms", "ms"},
	{"consensus.follower_lag_slots", "count"},
	{"consensus.local_bytes", "B"},
	{"memnode.bytes_per_group", "B"},
	{"client.invoke_host_ns", "ns"},
	{"read.fast_frac", "frac"},
	{"read.fallbacks_per_kread", "count"},
	{"txn.commit_frac", "frac"},
	{"unrepl.write_p50_us", "us"},
	{"nettrans.frames_per_op", "count"},
	{"nettrans.bytes_per_op", "B"},
	{"nettrans.dups_per_kop", "count"},
	{"nettrans.redials_per_kop", "count"},
	{"replica.cpu_user_us_per_op", "us"},
	{"replica.cpu_sys_us_per_op", "us"},
	{"memnode.cpu_us_per_op", "us"},
	{"replica.ctxsw_per_op", "count"},
	{"client.cpu_us_per_op", "us"},
	{"client.allocs_per_op", "count"},
	{"client.hostloop_wait_us", "us"},
	{"fleet.launch_retries", "count"},
	{"netkv.goodput_kops", "kops/s"},
	{"netkv.read_p50_us", "us"},
	{"netkv.read_p90_us", "us"},
	{"trace.host_overhead_frac", "frac"},
}

// simLayers samples the gauges of a traced sim run at every completion
// and every step of the run loop: nothing it reads changes the simulation.
type simLayers struct {
	d          *shard.Deployment
	tr         *tracer
	pendPeak   int
	pendEnd    int
	backlogMax sim.Duration
	restartAt  sim.Time
	rejoinedAt sim.Time
	lagSum     float64
	lagN       int
	net0       [3]uint64
}

func newSimLayers(d *shard.Deployment, tr *tracer) *simLayers {
	l := &simLayers{d: d, tr: tr, restartAt: -1, rejoinedAt: -1}
	l.net0 = [3]uint64{d.Net.MsgsSent, d.Net.BytesSent, d.Net.Dropped}
	return l
}

func (l *simLayers) sample(eng *sim.Engine) {
	if p := eng.Pending(); p > l.pendPeak {
		l.pendPeak = p
	}
	now := eng.Now()
	for _, p := range l.tr.procs {
		if b := p.BusyUntil().Sub(now); b > l.backlogMax && !p.Crashed() {
			l.backlogMax = b
		}
	}
	if l.restartAt >= 0 && l.rejoinedAt < 0 && !l.d.Groups[0].Replicas[0].Recovering() {
		l.rejoinedAt = now
	}
	for _, g := range l.d.Groups {
		lo, hi := int64(-1), int64(0)
		for i, r := range g.Replicas {
			if r.Recovering() || l.d.Net.Node(g.ReplicaIDs[i]) == nil {
				continue
			}
			a := int64(r.LastApplied())
			if lo < 0 || a < lo {
				lo = a
			}
			if a > hi {
				hi = a
			}
		}
		if lo >= 0 {
			l.lagSum += float64(hi - lo)
			l.lagN++
		}
	}
}

func (l *simLayers) finish(eng *sim.Engine) {
	l.sample(eng)
	l.pendEnd = eng.Pending()
}

// simLayerMetrics computes the per-layer metrics of a traced sim run.
func simLayerMetrics(res *simResult, unreplP50 float64) map[string]float64 {
	m := map[string]float64{}
	l := res.layers
	d := res.d
	n := float64(len(res.ops))
	kops := n / 1000
	m["sim.events_per_op"] = float64(res.events) / n
	m["sim.pending_peak"] = float64(l.pendPeak)
	m["sim.pending_end"] = float64(l.pendEnd)
	m["sim.backlog_max_us"] = l.backlogMax.Micros()
	m["net.msgs_per_op"] = float64(d.Net.MsgsSent-l.net0[0]) / n
	m["net.bytes_per_op"] = float64(d.Net.BytesSent-l.net0[1]) / n
	m["net.drops_per_op"] = float64(d.Net.Dropped-l.net0[2]) / n
	for name, cs := range l.tr.chanTotals() {
		m[name+".frames_per_op"] = float64(cs.frames) / n
		m[name+".handler_ns_per_op"] = float64(cs.handlerNs) / n
		m[name+".deliver_p50_us"] = float64(cs.deliver.quantile(0.5)) / 1e3
	}

	var fast, slow, summaries uint64
	var localBytes int
	views := 0
	for _, g := range d.Groups {
		maxView := 0
		for _, r := range g.Replicas {
			f, s, sm := r.GroupStats()
			fast, slow, summaries = fast+f, slow+s, summaries+sm
			if lb := r.LocalBytes(); lb > localBytes {
				localBytes = lb
			}
			if v := int(r.View()); v > maxView {
				maxView = v
			}
		}
		views += maxView
	}
	if fast+slow > 0 {
		m["ctbcast.fast_frac"] = float64(fast) / float64(fast+slow)
	}
	m["ctbcast.summaries_per_kop"] = float64(summaries) / kops
	m["consensus.slots_per_kop"] = float64(d.DecidedTotal()) / kops
	m["consensus.view_changes"] = float64(views)
	if l.restartAt >= 0 {
		stop := res.end
		if l.rejoinedAt >= 0 {
			stop = l.rejoinedAt
		}
		m["consensus.rejoin_ms"] = float64(stop-l.restartAt) / 1e6
	}
	if l.lagN > 0 {
		m["consensus.follower_lag_slots"] = l.lagSum / float64(l.lagN)
	}
	m["consensus.local_bytes"] = float64(localBytes)
	m["memnode.bytes_per_group"] = float64(d.DisaggregatedBytesOf(0))
	m["client.invoke_host_ns"] = float64(l.tr.invokeNs) / n

	var rfast, rfall uint64
	for _, c := range d.Clients {
		f, fb := c.ReadStats()
		rfast, rfall = rfast+f, rfall+fb
	}
	reads, msets, commits := 0, 0, 0
	for i := range res.ops {
		o := &res.ops[i]
		switch o.kind {
		case opGet, opMGet:
			reads++
		case opMSet:
			msets++
			if o.ok {
				commits++
			}
		}
	}
	if rfast+rfall > 0 {
		m["read.fast_frac"] = float64(rfast) / float64(rfast+rfall)
	}
	if reads > 0 {
		m["read.fallbacks_per_kread"] = float64(rfall) / float64(reads) * 1000
	}
	if msets > 0 {
		m["txn.commit_frac"] = float64(commits) / float64(msets)
	}
	m["unrepl.write_p50_us"] = unreplP50
	return m
}
