package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
	"unsafe"

	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The tracer observes a deployment from outside the program: it wraps the
// transport fabric (the seam the Byzantine injector also uses), so it sees
// every frame at send and at its handler. It charges no virtual CPU,
// schedules no events and draws no randomness, so a traced run executes
// the very event sequence of the untraced one.

// channels are the wire channel tags the per-layer metrics report.
var channels = []struct {
	tag  uint8
	name string
}{
	{wire.ChanRing, "ring"},
	{wire.ChanRingAck, "ringack"},
	{wire.ChanMemReq, "mem"},
	{wire.ChanMemResp, "mem"},
	{wire.ChanRPC, "rpc"},
	{wire.ChanDirect, "direct"},
	{wire.ChanSummary, "summary"},
}

// maxSpans bounds the frame and handler spans kept in memory; a storm
// sends tens of millions of frames. The per-channel aggregates cover all.
const maxSpans = 200000

type chanStats struct {
	frames    uint64
	handlerNs int64
	deliver   hist // send -> handler, virtual ns
}

type sendKey struct {
	p  *byte
	to ids.ID
}

type sendRec struct {
	at sim.Time
	op int32
}

type reqKey struct {
	client ids.ID
	num    uint64
}

// span is one record of the span file. Times are nanoseconds: virtual for
// requests and frames, host for handlers.
type span struct {
	Kind  string `json:"kind"` // request | frame | handler
	Name  string `json:"name"`
	Op    int32  `json:"op"` // the request a span belongs to; -1 if unknown
	Start int64  `json:"start"`
	End   int64  `json:"end"`
	From  int    `json:"from,omitempty"`
	To    int    `json:"to,omitempty"`
}

type tracer struct {
	cur      int   // the request whose client code is running; -1 if none
	invokeNs int64 // host time inside client Invoke calls
	ops      []op

	clients  map[ids.ID]bool // client hosts' endpoints
	procs    []*sim.Proc
	net      *simnet.Network // nil on a real transport
	ch       [256]chanStats
	inflight map[sendKey][]sendRec
	reqs     map[reqKey]int32
	spans    []span
}

func newTracer() *tracer {
	return &tracer{
		cur:      -1,
		clients:  map[ids.ID]bool{},
		inflight: map[sendKey][]sendRec{},
		reqs:     map[reqKey]int32{},
	}
}

func chanName(tag uint8) string {
	for _, c := range channels {
		if c.tag == tag {
			return c.name
		}
	}
	return "other"
}

func (t *tracer) keep(s span) {
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	}
}

// wrap returns a fabric whose endpoints report to t.
func (t *tracer) wrap(inner transport.Fabric) transport.Fabric {
	f := &traceFabric{Fabric: inner, tr: t}
	if nf, ok := inner.(interface{ Network() *simnet.Network }); ok {
		t.net = nf.Network()
	}
	return f
}

type traceFabric struct {
	transport.Fabric
	tr *tracer
}

// Network exposes the simulated network underneath, as simnet.Fabric
// does, so KillReplica and RestartReplica keep working.
func (f *traceFabric) Network() *simnet.Network { return f.tr.net }

func (f *traceFabric) NewEndpoint(id ids.ID, name string) (transport.Endpoint, error) {
	ep, err := f.Fabric.NewEndpoint(id, name)
	if err != nil {
		return nil, err
	}
	f.tr.procs = append(f.tr.procs, ep.Proc())
	return &traceEndpoint{Endpoint: ep, tr: f.tr}, nil
}

type traceEndpoint struct {
	transport.Endpoint
	tr *tracer
}

// isClient reports whether the endpoint belongs to a client host; the
// run registers those once the deployment is built.
func (e *traceEndpoint) isClient() bool { return e.tr.clients[e.ID()] }

// rpcNum decodes the request number of a client RPC frame (after the
// channel byte), if it is one.
func rpcNum(p []byte) (num uint64, request, ok bool) {
	if len(p) < 2 || p[0] != wire.ChanRPC {
		return 0, false, false
	}
	rd := wire.NewReader(p[2:])
	switch p[1] {
	case wire.TagRequest:
		rd.I64()
		num = rd.U64()
		request = true
	case wire.TagReadRequest:
		num = rd.U64()
		request = true
	case wire.TagResponse, wire.TagReadResponse:
		num = rd.U64()
	default:
		return 0, false, false
	}
	return num, request, rd.Err() == nil
}

func (e *traceEndpoint) Send(to ids.ID, payload []byte) {
	t := e.tr
	if len(payload) == 0 {
		e.Endpoint.Send(to, payload)
		return
	}
	tag := payload[0]
	cs := &t.ch[tag]
	cs.frames++
	op := int32(-1)
	if t.cur >= 0 && e.isClient() {
		op = int32(t.cur)
		if num, req, ok := rpcNum(payload); ok && req {
			t.reqs[reqKey{e.ID(), num}] = op
		}
	} else if num, req, ok := rpcNum(payload); ok && !req {
		if o, found := t.reqs[reqKey{to, num}]; found {
			op = o
		}
	}
	var drops uint64
	if t.net != nil {
		drops = t.net.Dropped
	}
	now := e.Proc().Now()
	e.Endpoint.Send(to, payload)
	if t.net != nil && t.net.Dropped == drops {
		k := sendKey{unsafe.SliceData(payload), to}
		t.inflight[k] = append(t.inflight[k], sendRec{at: now, op: op})
	}
}

func (e *traceEndpoint) SetHandler(h transport.Handler) {
	t := e.tr
	self := e.ID()
	proc := e.Proc()
	e.Endpoint.SetHandler(func(from ids.ID, payload []byte) {
		if len(payload) == 0 {
			h(from, payload)
			return
		}
		tag := payload[0]
		cs := &t.ch[tag]
		op := int32(-1)
		if t.net != nil {
			k := sendKey{unsafe.SliceData(payload), self}
			if recs := t.inflight[k]; len(recs) > 0 {
				r := recs[0]
				if len(recs) == 1 {
					delete(t.inflight, k)
				} else {
					t.inflight[k] = recs[1:]
				}
				op = r.op
				now := proc.Now()
				cs.deliver.add(int64(now - r.at))
				t.keep(span{Kind: "frame", Name: chanName(tag), Op: op, Start: int64(r.at), End: int64(now), From: int(from), To: int(self)})
			}
		}
		client := e.isClient()
		if op < 0 && client {
			if num, req, ok := rpcNum(payload); ok && !req {
				if o, found := t.reqs[reqKey{self, num}]; found {
					op = o
				}
			}
		}
		prev := t.cur
		if client {
			t.cur = int(op)
		}
		t0 := time.Now()
		h(from, payload)
		ns := time.Since(t0).Nanoseconds()
		t.cur = prev
		cs.handlerNs += ns
		t.keep(span{Kind: "handler", Name: chanName(tag), Op: op, Start: t0.UnixNano(), End: t0.UnixNano() + ns, To: int(self)})
	})
}

// chanTotals sums the per-tag statistics of each reported channel name.
func (t *tracer) chanTotals() map[string]*chanStats {
	out := map[string]*chanStats{}
	for _, c := range channels {
		s, ok := out[c.name]
		if !ok {
			s = &chanStats{}
			out[c.name] = s
		}
		src := &t.ch[c.tag]
		s.frames += src.frames
		s.handlerNs += src.handlerNs
		for i, n := range src.deliver.counts {
			s.deliver.counts[i] += n
		}
		s.deliver.n += src.deliver.n
	}
	return out
}

// writeSpans writes the request spans and the kept frame and handler spans
// as JSON lines.
func (t *tracer) writeSpans(path string, end sim.Time) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.ops {
		o := &t.ops[i]
		stop := end
		if o.answered {
			stop = o.at
		}
		if err := enc.Encode(span{Kind: "request", Name: kindNames[o.kind], Op: int32(i), Start: int64(o.due), End: int64(stop)}); err != nil {
			f.Close()
			return err
		}
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
