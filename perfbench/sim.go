package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

const (
	// probeWrites are SETs to distinct shard-0 keys issued together at each
	// of the workload's fault instants; the first of them (or of any later
	// shard-0 write) to complete ends the outage. Without a fault, their
	// first completion is the floor of write service time.
	probeWrites = 4
	// viewChangeTimeout arms leader suspicion as in wall-clock deployments.
	viewChangeTimeout = 2 * sim.Millisecond
	// step is the granularity at which the run loop takes control back
	// between engine events: to check for completion and, when
	// tracing, to sample gauges. It schedules nothing.
	step = 100 * sim.Microsecond
	// maxClosedRate bounds a closed-loop run's rate, for sizing its log.
	maxClosedRate = 400000
)

// shape is a simulated deployment and the requests it serves.
type shape struct {
	shards       int
	clients      int
	fastReads    bool
	keysPerShard int // small enough that most GETs hit
	valBytes     int
	mix          mix
}

// servingShape is sim-kv's: 2 shards of the Memcached-style store, fast
// reads on, 4 client hosts; 16 B keys and 32 B values, the paper's
// Memcached workload.
var servingShape = shape{shards: 2, clients: 4, fastReads: true, keysPerShard: 256, valBytes: 32, mix: servingMix}

// orderedShape is net-kv's: one group, fast reads off, one client host; 64
// keys with 64 B values.
var orderedShape = shape{shards: 1, clients: 1, keysPerShard: 64, valBytes: 64, mix: pairMix}

// faults is a workload's fault schedule, relative to the window start.
type faults struct {
	gst      sim.Duration // pre-GST loss window [0, gst); 0 = none
	drop     float64      // pre-GST drop probability
	extraMax sim.Duration // pre-GST extra delay bound
	kill     sim.Duration // crash shard 0's view-0 leader; 0 = never
	restart  sim.Duration // cold-rejoin it; 0 = never
}

// simRun is one run on a simulated deployment: open loop at rate, or
// closed loop with depth requests outstanding per client.
type simRun struct {
	shape  shape
	seed   int64
	rate   float64 // offered ops per virtual second (open loop)
	depth  int     // outstanding requests per client (closed loop)
	window sim.Duration
	drain  sim.Duration // extra time the run waits for answers after the window
	faults faults
	// marks are the fault instants outage_ms is measured from: the run
	// issues a burst of probe writes at each.
	marks []sim.Duration
	// backlogCap ends the run early, as a failure, once this many
	// operations are outstanding (a rate probe past the knee); 0 = never.
	backlogCap int
	tr         *tracer // nil for an untraced run
}

// simResult is what one run measured.
type simResult struct {
	ops     []op
	ks      *keyspace
	errs    []string
	end     sim.Time   // when the run stopped: all answered, or the drain ran out
	marks   []sim.Time // the fault instants, jittered
	hostNs  int64      // the process's CPU time over the window plus drain
	events  uint64
	aborted bool // stopped by backlogCap
	d       *shard.Deployment
	layers  *simLayers // per-layer gauges; nil when untraced
}

// options is the shape's deployment with a fault schedule.
func (sh shape) options(seed int64, f faults, fab transport.Fabric) shard.Options {
	net := simnet.RDMAOptions()
	if f.gst > 0 {
		net.GST = sim.Time(f.gst)
		net.AsyncDropProb = f.drop
		net.AsyncExtraMax = f.extraMax
	}
	return shard.Options{
		Seed:       seed,
		Shards:     sh.shards,
		NumClients: sh.clients,
		FastReads:  sh.fastReads,
		NewApp:     func(int) app.StateMachine { return app.NewKV(0) },
		NetOptions: &net,
		Group: cluster.Options{
			ViewChangeTimeout: viewChangeTimeout,
			Fabric:            fab,
		},
	}
}

// build assembles the deployment. A traced run builds the same engine and
// network shard.Build would, and injects them through the tracing fabric,
// so both runs execute identical event sequences.
func (sh shape) build(seed int64, f faults, tr *tracer) (*shard.Deployment, error) {
	opts := sh.options(seed, f, nil)
	if tr == nil {
		return shard.Build(opts)
	}
	fab := tr.wrap(simnet.AsFabric(simnet.New(sim.NewEngine(seed), *opts.NetOptions)))
	return shard.Build(sh.options(seed, f, fab))
}

// shard0Write reports whether o writes a key shard 0 owns.
func shard0Write(ks *keyspace, o *op) bool {
	if !o.write() {
		return false
	}
	for j := 0; j < o.nkeys(); j++ {
		if app.ShardOfKey(ks.keys[o.keys[j]], len(ks.byShard)) == 0 {
			return true
		}
	}
	return false
}

// markInstant jitters a nominal fault instant by up to 50us, drawn from
// the seed, so it does not fall on the generator's phase.
func markInstant(seed int64, nominal sim.Duration) sim.Time {
	return sim.Time(nominal) + sim.Time(rand.New(rand.NewSource(seed^int64(nominal))).Int63n(int64(50*sim.Microsecond)))
}

// runSim executes one run and checks every response.
func runSim(r simRun) (*simResult, error) {
	sh := r.shape
	d, err := sh.build(r.seed, r.faults, r.tr)
	if err != nil {
		return nil, err
	}
	ks := newKeyspace(sh.shards, sh.keysPerShard, sh.valBytes)
	g := &gen{rng: rand.New(rand.NewSource(r.seed)), ks: ks, mix: sh.mix, clients: sh.clients}
	var arrivals []op
	capacity := len(r.marks) * probeWrites
	if r.depth == 0 {
		arrivals = poisson(g, r.rate, r.window)
		capacity += len(arrivals)
	} else {
		capacity += int(float64(r.window) / float64(sim.Second) * maxClosedRate)
	}
	res := &simResult{ks: ks, d: d}
	chk := &checker{ks: ks, ops: make([]op, 0, capacity)}
	eng := d.Eng
	if r.tr != nil {
		for _, id := range d.ClientIDs {
			r.tr.clients[id] = true
		}
		res.layers = newSimLayers(d, r.tr)
	}

	if r.faults.kill > 0 {
		kill := markInstant(r.seed, r.faults.kill)
		eng.At(kill, func() {
			if err := d.KillReplica(0, 0); err != nil {
				chk.fail("kill: %v", err)
			}
		})
		if r.faults.restart > 0 {
			eng.At(sim.Time(r.faults.restart), func() {
				if err := d.RestartReplica(0, 0); err != nil {
					chk.fail("restart: %v", err)
				}
				if res.layers != nil {
					res.layers.restartAt = eng.Now()
				}
			})
		}
	}

	outstanding := 0
	var issue func(o op)
	issue = func(o op) {
		if len(chk.ops) == cap(chk.ops) {
			chk.fail("operation log full")
			return
		}
		i := len(chk.ops)
		o.due = eng.Now()
		chk.ops = append(chk.ops, o)
		p := payload(ks, i, &o)
		outstanding++
		var t0 time.Time
		if r.tr != nil {
			r.tr.cur = i
			t0 = time.Now()
		}
		_, err := d.Clients[o.client].Invoke(p, func(result []byte, _ sim.Duration) {
			oo := &chk.ops[i]
			if oo.answered {
				chk.fail("op %d answered twice", i)
				return
			}
			oo.answered, oo.at = true, eng.Now()
			oo.ok = chk.outcome(i, result, oo.at)
			outstanding--
			if res.layers != nil {
				res.layers.sample(eng)
			}
			if r.depth > 0 && !oo.probe && oo.at < sim.Time(r.window) {
				next := g.next()
				next.client = oo.client
				issue(next)
			}
		})
		if r.tr != nil {
			r.tr.invokeNs += time.Since(t0).Nanoseconds()
			r.tr.cur = -1
		}
		if err != nil {
			chk.fail("op %d (%s): invoke: %v", i, kindNames[o.kind], err)
			outstanding--
		}
	}
	for _, nominal := range r.marks {
		mark := markInstant(r.seed, nominal)
		res.marks = append(res.marks, mark)
		eng.Post(mark, func() {
			for j := 0; j < probeWrites; j++ {
				issue(op{kind: opSet, client: int32(j % sh.clients), keys: [2]int32{ks.byShard[0][j]}, probe: true})
			}
		})
	}
	if r.depth == 0 {
		var next func(k int)
		next = func(k int) {
			issue(arrivals[k])
			if k+1 < len(arrivals) {
				eng.Post(arrivals[k+1].due, func() { next(k + 1) })
			}
		}
		if len(arrivals) > 0 {
			eng.Post(arrivals[0].due, func() { next(0) })
		}
	} else {
		eng.Post(0, func() {
			for c := 0; c < sh.clients; c++ {
				for k := 0; k < r.depth; k++ {
					o := g.next()
					o.client = int32(c)
					issue(o)
				}
			}
		})
	}

	settle()
	cpu0 := rusageSelf()
	ev0 := eng.Executed()
	end := sim.Time(r.window + r.drain)
	for t := sim.Time(0); t < end; {
		t += sim.Time(step)
		eng.RunUntil(t)
		if res.layers != nil {
			res.layers.sample(eng)
		}
		if t >= sim.Time(r.window) && outstanding == 0 {
			break
		}
		if r.backlogCap > 0 && outstanding > r.backlogCap {
			res.aborted = true
			break
		}
	}
	res.hostNs = int64(rusageSelf() - cpu0)
	res.events = eng.Executed() - ev0
	res.end = eng.Now()
	if res.layers != nil {
		res.layers.finish(eng)
		r.tr.ops = chk.ops
	}
	res.ops = chk.ops
	res.errs = chk.errs
	return res, nil
}

// settle lets the garbage collector finish before a timed section.
func settle() {
	runtime.GC()
	runtime.GC()
}

// checkReplicas compares the application snapshots of every group's
// replicas that applied the same prefix: they must be identical.
func checkReplicas(d *shard.Deployment) []string {
	var errs []string
	for s, g := range d.Groups {
		byApplied := map[uint64]string{}
		for i, rep := range g.Replicas {
			if rep.Recovering() {
				continue
			}
			la := uint64(rep.LastApplied())
			snap := string(g.Apps[i].Snapshot())
			if prev, ok := byApplied[la]; ok && prev != snap {
				errs = append(errs, fmt.Sprintf("shard %d: replicas at applied slot %d hold different state", s, la))
			}
			byApplied[la] = snap
		}
	}
	return errs
}
