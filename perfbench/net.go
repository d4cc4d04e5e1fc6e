package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/nettrans"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wallclock"
)

// The net-kv workload: a fleet of 3 replica and 2 memory-node processes on
// loopback (the bench-wallclock shape), driven closed loop by one client
// host inside this process over real sockets, in wall-clock time.
const (
	netDepth = 4
	// netTraceSeconds is the window of the net-kv run sim-kv's traced run
	// makes for the real-socket layers.
	netTraceSeconds = 5
	netProbes       = 16
	netMarks        = 12 // probe bursts in the measured window
	netSlices       = 4  // slices of the measured window
	netWarmup       = time.Second
	netDrain        = 10 * time.Second
	netLaunches     = 9 // fleet launches timed for setup_s; the last one serves
	netMaxLaunch    = 4 // attempts per launch (the port-allocation race)
	// netNodeProcs pins GOMAXPROCS in each node process: five node
	// processes share the machine's cores with the client.
	netNodeProcs = 1
)

func netConfig(seed int64) wallclock.NodeConfig {
	return wallclock.NodeConfig{App: "kv", Seed: seed, F: 1, Fm: 1, MemNodes: 2, Clients: 1}
}

// runNodeMode is the node-process entry: the launcher re-executes this
// binary as `perfbench -node <node flags>`.
func runNodeMode(args []string) {
	var cfg wallclock.NodeConfig
	fs := flag.NewFlagSet("perfbench -node", flag.ExitOnError)
	cfg.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench node:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(netNodeProcs)
	if err := wallclock.RunNode(cfg, nil); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench node:", err)
		os.Exit(1)
	}
}

// nodeProc is one of this run's node processes, found in /proc.
type nodeProc struct {
	pid  int
	role string
}

// procArgs reads a process's argv; nil if it is gone.
func procArgs(pid int) []string {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/cmdline", pid))
	if err != nil || len(b) == 0 {
		return nil
	}
	return strings.Split(strings.TrimRight(string(b), "\x00"), "\x00")
}

// procStat returns a process's parent PID and user and system CPU ticks.
func procStat(pid int) (ppid int, utime, stime uint64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, 0, err
	}
	// The command name may hold spaces; the fields after it do not.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ppid, _ = strconv.Atoi(f[1])
	utime, _ = strconv.ParseUint(f[11], 10, 64)
	stime, _ = strconv.ParseUint(f[12], 10, 64)
	return ppid, utime, stime, nil
}

// procCtxSwitches returns the voluntary plus involuntary context switches
// of all of a process's threads.
func procCtxSwitches(pid int) uint64 {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0
	}
	var n uint64
	for _, t := range tasks {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/status", pid, t.Name()))
		if err != nil {
			continue // the thread exited
		}
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.HasSuffix(k, "ctxt_switches") {
				c, _ := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
				n += c
			}
		}
	}
	return n
}

// nodeProcs lists the node processes running exe; with parent > 0 only
// that parent's children.
func nodeProcs(exe string, parent int) []nodeProc {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var out []nodeProc
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		args := procArgs(pid)
		if len(args) < 2 || args[0] != exe || args[1] != "-node" {
			continue
		}
		if parent > 0 {
			if ppid, _, _, err := procStat(pid); err != nil || ppid != parent {
				continue
			}
		}
		np := nodeProc{pid: pid}
		for i := range args[:len(args)-1] {
			if args[i] == "-role" {
				np.role = args[i+1]
			}
		}
		out = append(out, np)
	}
	return out
}

// awaitNoStrayNodes confirms no node process of an earlier run is alive,
// waiting a few seconds for stragglers to exit.
func awaitNoStrayNodes(exe string) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		stray := nodeProcs(exe, 0)
		if len(stray) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node processes of an earlier run are still alive: %v", stray)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// launch starts the fleet, retrying a launch that fails (a port taken
// between allocation and bind), and reports the retries it took.
func launch(exe []string, cfg wallclock.NodeConfig) (*wallclock.LocalCluster, int, error) {
	var err error
	for attempt := 0; attempt < netMaxLaunch; attempt++ {
		var lc *wallclock.LocalCluster
		if lc, err = wallclock.LaunchLocal(exe, cfg, ""); err == nil {
			return lc, attempt, nil
		}
		fmt.Fprintln(os.Stderr, "perfbench: fleet launch failed, retrying:", err)
	}
	return nil, netMaxLaunch, err
}

// cpuSample is the CPU time of this process and its node processes.
type cpuSample struct {
	self      time.Duration
	user, sys map[int]uint64 // per node PID, clock ticks
	ctxsw     map[int]uint64
	mallocs   uint64 // only when tracing: ReadMemStats stops the world
	stats     nettrans.Stats
}

// rusageSelf returns the CPU time of this process, all its threads
// (the garbage collector's included), user plus system.
func rusageSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func sampleCPU(nodes []nodeProc, nt *nettrans.Net, withMallocs bool) cpuSample {
	s := cpuSample{self: rusageSelf(), user: map[int]uint64{}, sys: map[int]uint64{}, ctxsw: map[int]uint64{}, stats: nt.Stats()}
	for _, n := range nodes {
		if _, u, st, err := procStat(n.pid); err == nil {
			s.user[n.pid], s.sys[n.pid] = u, st
		}
		s.ctxsw[n.pid] = procCtxSwitches(n.pid)
	}
	if withMallocs {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.mallocs = ms.Mallocs
	}
	return s
}

// clockTick is the kernel's USER_HZ, the unit of /proc CPU times.
const clockTick = 100

func runNetWorkload(seed int64, seconds int, trace bool, out string) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := awaitNoStrayNodes(exe); err != nil {
		return nil, err
	}
	cfg := netConfig(seed)
	cmd := []string{exe, "-node"}

	// setup_s: the median of several fleet launches; the last one serves.
	var (
		lc       *wallclock.LocalCluster
		launches []float64
		retries  int
	)
	for i := 0; i < netLaunches; i++ {
		settle()
		t0 := time.Now()
		c, r, err := launch(cmd, cfg)
		retries += r
		if err != nil {
			return nil, err
		}
		launches = append(launches, time.Since(t0).Seconds())
		if i < netLaunches-1 {
			c.Stop()
		} else {
			lc = c
		}
	}
	defer lc.Stop()
	nodes := nodeProcs(exe, os.Getpid())
	if len(nodes) != 5 {
		return nil, fmt.Errorf("found %d node processes of this run, want 5", len(nodes))
	}

	res, err := driveNet(seed, seconds, trace, lc, nodes, out)
	if err != nil {
		return nil, err
	}
	lc.Stop()
	if stray := nodeProcs(exe, os.Getpid()); len(stray) > 0 {
		return nil, fmt.Errorf("node processes still alive after the fleet stopped: %v", stray)
	}
	rep := res.rep
	if trace {
		res.layers["fleet.launch_retries"] = float64(retries)
		res.layers["netkv.goodput_kops"] = rep.Metrics["goodput_kops"].Value
		res.layers["netkv.read_p50_us"] = rep.Metrics["read_p50_us"].Value
		res.layers["netkv.read_p90_us"] = rep.Metrics["read_p90_us"].Value
		rep.Metrics = layerReport(res.layers)
		rep.Correct = len(rep.errs) == 0
		return rep, nil
	}
	rep.Metrics["setup_s"] = metric{median(launches), "s", len(launches)}
	rep.Correct = len(rep.errs) == 0
	fmt.Printf("fleet launches: %d, retries: %d\n", netLaunches, retries)
	return rep, nil
}

// netLayer reports whether a per-layer metric belongs to the real-socket
// layers only net-kv runs.
func netLayer(name string) bool {
	for _, p := range []string{"nettrans.", "replica.", "memnode.cpu", "client.cpu", "client.allocs", "client.hostloop", "fleet.", "netkv."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

type netResult struct {
	rep    *report
	layers map[string]float64
}

// driveNet runs the closed loop against a launched fleet.
func driveNet(seed int64, seconds int, trace bool, lc *wallclock.LocalCluster, nodes []nodeProc, out string) (*netResult, error) {
	cfg := netConfig(seed)
	opts, err := cfg.Options()
	if err != nil {
		return nil, err
	}
	h := nettrans.NewHost(seed + 1)
	nt, err := nettrans.Listen(h, nettrans.Options{
		ListenAddr: lc.ClientAddr,
		Resolve:    nettrans.NewAddrTable(lc.Table).Resolve,
	})
	if err != nil {
		return nil, err
	}
	defer nt.Close()
	var (
		fab transport.Fabric = nt
		tr  *tracer
	)
	if trace {
		tr = newTracer()
		fab = tr.wrap(nt)
	}
	m, err := cluster.NewMember(opts, fab, cluster.MemberSpec{Role: cluster.RoleClient, Index: 0})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.clients[m.ID] = true
	}

	measure := time.Duration(seconds) * time.Second
	sh := orderedShape
	ks := newKeyspace(sh.shards, sh.keysPerShard, sh.valBytes)
	g := &gen{rng: rand.New(rand.NewSource(seed)), ks: ks, mix: sh.mix, clients: sh.clients}
	maxOps := int((netWarmup + measure).Seconds()) * 20000
	chk := &checker{ks: ks, ops: make([]op, 0, maxOps)}
	base := time.Now()
	now := func() sim.Time { return sim.Time(time.Since(base)) }

	// Closed-loop state: host-loop goroutine only.
	const (
		phaseWarmup = iota
		phaseMeasure
		phaseDrain
	)
	var (
		phase       = phaseWarmup
		outstanding int
		mStart      sim.Time
		mEnd        sim.Time
		marks       []sim.Time
		overflow    bool
	)
	done := make(chan struct{})
	var submit func(o op)
	submit = func(o op) {
		if len(chk.ops) == cap(chk.ops) {
			overflow = true
			return
		}
		i := len(chk.ops)
		o.due = now()
		chk.ops = append(chk.ops, o)
		p := payload(ks, i, &o)
		outstanding++
		if tr != nil {
			tr.cur = i
		}
		m.Client.Invoke(p, func(res []byte, _ sim.Duration) {
			oo := &chk.ops[i]
			oo.answered, oo.at = true, now()
			oo.ok = chk.outcome(i, res, oo.at)
			outstanding--
			if phase != phaseDrain && !oo.probe {
				submit(g.next())
			} else if phase == phaseDrain && outstanding == 0 {
				close(done)
			}
		})
		if tr != nil {
			tr.cur = -1
		}
	}

	h.Start()
	defer h.Stop()
	h.Do(func() {
		for d := 0; d < netDepth; d++ {
			submit(g.next())
		}
	})
	var waits []time.Duration
	stopWaits := make(chan struct{})
	waitsDone := make(chan struct{})
	go func() {
		defer close(waitsDone)
		if tr == nil {
			return
		}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopWaits:
				return
			case <-tick.C:
				t0 := time.Now()
				h.Do(func() { waits = append(waits, time.Since(t0)) })
			}
		}
	}()

	time.Sleep(netWarmup)
	c0 := sampleCPU(nodes, nt, trace)
	h.Do(func() { phase, mStart = phaseMeasure, now() })
	// Probe bursts at netMarks evenly spaced instants.
	slice := measure / (netMarks + 1)
	for b := 0; b < netMarks; b++ {
		time.Sleep(slice)
		h.Do(func() {
			marks = append(marks, now())
			for j := 0; j < netProbes; j++ {
				submit(op{kind: opSet, keys: [2]int32{int32(j)}, probe: true})
			}
		})
	}
	time.Sleep(measure - netMarks*slice)
	var c1 cpuSample
	ended := make(chan struct{})
	h.Do(func() {
		c1 = sampleCPU(nodes, nt, trace)
		phase, mEnd = phaseDrain, now()
		if outstanding == 0 {
			close(done)
		}
		close(ended)
	})
	<-ended
	close(stopWaits)
	<-waitsDone
	select {
	case <-done:
	case <-time.After(netDrain):
	}
	// Stop the host loop: from here on nothing touches the closed-loop state.
	h.Stop()
	ops, endT := chk.ops, now()
	rep := &report{errs: chk.errs}
	if overflow {
		rep.errs = append(rep.errs, "operation log full")
	}
	// The measured operations, issued inside the window, in netSlices
	// slices of it: the latency percentiles are medians over the slices,
	// as sim-kv's are over its runs.
	slices := make([]*simResult, netSlices)
	width := (mEnd - mStart) / netSlices
	for j := range slices {
		slices[j] = &simResult{ks: ks, end: endT}
	}
	for _, o := range ops {
		if o.due >= mStart && o.due < mStart+netSlices*width {
			j := int((o.due - mStart) / width)
			slices[j].ops = append(slices[j].ops, o)
		}
	}
	for _, mk := range marks {
		j := min(int((mk-mStart)/width), netSlices-1)
		slices[j].marks = append(slices[j].marks, mk)
	}
	for _, sl := range slices {
		if len(sl.ops) == 0 {
			return nil, fmt.Errorf("net-kv: no operation issued in a slice of the measured window")
		}
	}
	e2e, n, failed := e2eMetrics(slices, float64(width)/float64(sim.Second))
	rep.Metrics, rep.Attempted, rep.Failed = e2e, n, failed

	nr := &netResult{rep: rep}
	if tr != nil {
		nops := float64(n)
		l := map[string]float64{}
		st0, st1 := c0.stats, c1.stats
		l["nettrans.frames_per_op"] = float64(st1.MsgsSent-st0.MsgsSent) / nops
		l["nettrans.bytes_per_op"] = float64(st1.BytesSent-st0.BytesSent) / nops
		l["nettrans.dups_per_kop"] = float64(st1.Dups-st0.Dups) / nops * 1000
		l["nettrans.redials_per_kop"] = float64(st1.Redials-st0.Redials) / nops * 1000
		var ru, rs, mc, cs float64
		for _, nd := range nodes {
			u := float64(c1.user[nd.pid]-c0.user[nd.pid]) / clockTick * 1e6
			s := float64(c1.sys[nd.pid]-c0.sys[nd.pid]) / clockTick * 1e6
			if nd.role == string(cluster.RoleReplica) {
				ru, rs = ru+u, rs+s
				cs += float64(c1.ctxsw[nd.pid] - c0.ctxsw[nd.pid])
			} else {
				mc += u + s
			}
		}
		l["replica.cpu_user_us_per_op"] = ru / nops
		l["replica.cpu_sys_us_per_op"] = rs / nops
		l["memnode.cpu_us_per_op"] = mc / nops
		l["replica.ctxsw_per_op"] = cs / nops
		l["client.cpu_us_per_op"] = float64((c1.self - c0.self).Microseconds()) / nops
		l["client.allocs_per_op"] = float64(c1.mallocs-c0.mallocs) / nops
		var wus []float64
		for _, w := range waits {
			wus = append(wus, float64(w.Nanoseconds())/1e3)
		}
		l["client.hostloop_wait_us"] = median(wus)
		for name, cs := range tr.chanTotals() {
			l[name+".frames_per_op"] = float64(cs.frames) / nops
			l[name+".handler_ns_per_op"] = float64(cs.handlerNs) / nops
		}
		tr.ops = ops
		if err := tr.writeSpans(filepath.Join(out, fmt.Sprintf("spans-net-kv-%d.jsonl", seed)), endT); err != nil {
			return nil, err
		}
		nr.layers = l
	}
	return nr, nil
}
