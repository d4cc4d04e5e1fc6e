package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/app"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Operation kinds of the Memcached-style mix.
const (
	opGet  uint8 = iota // point GET
	opSet               // point SET
	opMGet              // two-key MGET, one key per shard (scatter read)
	opMSet              // two-key MSET, one key per shard (2PC)
)

var kindNames = [...]string{"get", "set", "mget", "mset"}

// mix is a request mix: the share of each operation kind.
type mix [4]float64

// servingMix is sim-kv's mix: 70% GET, 20% SET, 5% two-shard MGET, 5%
// two-shard MSET.
var servingMix = mix{0.70, 0.20, 0.05, 0.05}

// pairMix is the ordered workloads' mix: 40/40 GET/SET plus 10% each of
// two-key MGET and MSET. The two-key share keeps at least 10 two-key
// operations beyond their p99 in a run.
var pairMix = mix{0.40, 0.40, 0.10, 0.10}

// op is one generated request and, once run, its outcome.
type op struct {
	kind   uint8
	client int32
	keys   [2]int32 // indices into keyspace.keys; keys[1] only for multi-key ops
	due    sim.Time // when the open loop issues it (closed loop: when it was issued)

	probe bool // an outage probe: kept out of the latency percentiles

	answered bool
	ok       bool     // a success outcome: stored, read, or committed
	at       sim.Time // completion time
}

func (o *op) write() bool { return o.kind == opSet || o.kind == opMSet }
func (o *op) multi() bool { return o.kind == opMGet || o.kind == opMSet }
func (o *op) nkeys() int {
	if o.multi() {
		return 2
	}
	return 1
}

// keyspace holds the benchmark's 16-byte keys, bucketed by the shard the
// store's router places them on, so two-key operations can span both
// shards, and the size of the values written to them.
type keyspace struct {
	keys     [][]byte
	byShard  [][]int32
	valBytes int
}

// newKeyspace makes perShard keys for each of shards shards.
func newKeyspace(shards, perShard, valBytes int) *keyspace {
	ks := &keyspace{byShard: make([][]int32, shards), valBytes: valBytes}
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("key-%012d", i))
		s := app.ShardOfKey(k, shards)
		if len(ks.byShard[s]) == perShard {
			full := true
			for _, b := range ks.byShard {
				full = full && len(b) == perShard
			}
			if full {
				return ks
			}
			continue
		}
		ks.byShard[s] = append(ks.byShard[s], int32(len(ks.keys)))
		ks.keys = append(ks.keys, k)
	}
}

// value is the value write w stores under key k: it names the write and
// the key, so a read can be traced back to the write it saw.
func (ks *keyspace) value(w int, k int32) []byte {
	v := make([]byte, ks.valBytes)
	binary.LittleEndian.PutUint64(v, uint64(w))
	binary.LittleEndian.PutUint32(v[8:], uint32(k))
	h := uint64(w)*0x9e3779b97f4a7c15 ^ uint64(k)*0xc2b2ae3d27d4eb4f
	for i := 12; i+4 <= len(v); i += 4 {
		h = h*6364136223846793005 + 1442695040888963407
		binary.LittleEndian.PutUint32(v[i:], uint32(h>>32))
	}
	return v
}

// gen draws operations of a mix over a keyspace. Point operations and
// MGETs pick keys at random; MSETs take their keys round-robin, so two
// transactions in flight never lock the same key (a lock conflict aborts
// one of them by design).
type gen struct {
	rng     *rand.Rand
	ks      *keyspace
	mix     mix
	clients int
	msets   int
}

func (g *gen) next() op {
	u := g.rng.Float64()
	kind := opMSet
	for k, share := range g.mix {
		if u < share {
			kind = uint8(k)
			break
		}
		u -= share
	}
	o := op{kind: kind, client: int32(g.rng.Intn(g.clients))}
	if o.multi() {
		// One key from each of the first two shards; with one shard, two
		// distinct keys of it.
		a, b := g.ks.byShard[0], g.ks.byShard[len(g.ks.byShard)-1]
		i, j := g.rng.Intn(len(a)), g.rng.Intn(len(b))
		if o.kind == opMSet {
			i, j = g.msets%len(a), (g.msets+len(b)/2)%len(b)
			g.msets++
		}
		o.keys[0], o.keys[1] = a[i], b[j]
		if o.keys[0] == o.keys[1] {
			o.keys[1] = b[(j+1)%len(b)]
		}
	} else {
		o.keys[0] = int32(g.rng.Intn(len(g.ks.keys)))
	}
	return o
}

// poisson draws open-loop arrivals at rate ops per virtual second over
// [0, window).
func poisson(g *gen, rate float64, window sim.Duration) []op {
	var ops []op
	t := 0.0
	for {
		t += g.rng.ExpFloat64() / rate * float64(sim.Second)
		if sim.Duration(t) >= window {
			return ops
		}
		o := g.next()
		o.due = sim.Time(t)
		ops = append(ops, o)
	}
}

// payload encodes op i of ops as a store request.
func payload(ks *keyspace, i int, o *op) []byte {
	k0 := ks.keys[o.keys[0]]
	switch o.kind {
	case opGet:
		return app.EncodeKVGet(k0)
	case opSet:
		return app.EncodeKVSet(k0, ks.value(i, o.keys[0]))
	case opMGet:
		return app.EncodeKVMGet(k0, ks.keys[o.keys[1]])
	default:
		return app.EncodeKVMSet(
			app.Pair{Key: k0, Val: ks.value(i, o.keys[0])},
			app.Pair{Key: ks.keys[o.keys[1]], Val: ks.value(i, o.keys[1])})
	}
}

// checker validates every response against the operations issued so far.
type checker struct {
	ks   *keyspace
	ops  []op
	errs []string
}

func (c *checker) fail(format string, args ...any) {
	if len(c.errs) < 20 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// outcome classifies the response to op i (answered at time at) and
// checks it: a read must return a miss or a value some write issued no
// later than the read's completion stored under that key; every response
// must parse. It reports whether the outcome is a success.
func (c *checker) outcome(i int, res []byte, at sim.Time) bool {
	o := &c.ops[i]
	if len(res) == 0 {
		c.fail("op %d (%s): empty response", i, kindNames[o.kind])
		return false
	}
	switch o.kind {
	case opSet:
		switch res[0] {
		case app.KVStored:
			return len(res) == 1 || c.bad(i, res)
		case app.StatusLocked, app.StatusConflict, app.StatusAborted:
			return false // refused: a failure, not an error
		}
	case opMSet:
		switch res[0] {
		case app.StatusOK:
			return len(res) == 1 || c.bad(i, res)
		case app.StatusLocked, app.StatusConflict, app.StatusAborted:
			return false
		}
	case opGet:
		switch res[0] {
		case app.KVMiss:
			return len(res) == 1 || c.bad(i, res)
		case app.KVOK:
			rd := wire.NewReader(res[1:])
			v := rd.Bytes()
			if rd.Done() != nil {
				return c.bad(i, res)
			}
			c.readValue(i, o.keys[0], v, at)
			return true
		case app.StatusLocked:
			return false
		}
	case opMGet:
		switch res[0] {
		case app.StatusOK:
			rd := wire.NewReader(res[1:])
			if rd.Uvarint() != 2 {
				return c.bad(i, res)
			}
			for j := 0; j < 2; j++ {
				if rd.Bool() {
					c.readValue(i, o.keys[j], rd.Bytes(), at)
				}
			}
			if rd.Done() != nil {
				return c.bad(i, res)
			}
			return true
		case app.StatusLocked, app.StatusConflict, app.StatusAborted:
			return false
		}
	}
	return c.bad(i, res)
}

func (c *checker) bad(i int, res []byte) bool {
	c.fail("op %d (%s): malformed response % x", i, kindNames[c.ops[i].kind], res)
	return false
}

// readValue checks that read i saw a value a real write stored under key k.
func (c *checker) readValue(i int, k int32, v []byte, at sim.Time) {
	if len(v) != c.ks.valBytes {
		c.fail("op %d: read of key %d returned %d bytes", i, k, len(v))
		return
	}
	w := int(binary.LittleEndian.Uint64(v))
	if w < 0 || w >= len(c.ops) {
		c.fail("op %d: read of key %d returned a value no write made", i, k)
		return
	}
	wo := &c.ops[w]
	if !wo.write() || (wo.keys[0] != k && !(wo.multi() && wo.keys[1] == k)) {
		c.fail("op %d: read of key %d returned op %d's value, which did not write it", i, k, w)
		return
	}
	if wo.due > at {
		c.fail("op %d: read of key %d at %v returned op %d's value, issued later at %v", i, k, at, w, wo.due)
		return
	}
	if string(v) != string(c.ks.value(w, k)) {
		c.fail("op %d: read of key %d returned a corrupted value of op %d", i, k, w)
	}
}
