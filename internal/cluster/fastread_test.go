package cluster_test

import (
	"bytes"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/sim"
)

// syncSubmit drives one Submit from client 0 to completion.
func syncSubmit(t *testing.T, u *cluster.UBFT, op consensus.Op) consensus.Reply {
	t.Helper()
	var (
		reply consensus.Reply
		fired bool
	)
	u.Client(0).Submit(op, func(r consensus.Reply) { reply, fired = r, true })
	if err := cluster.SyncWait(u.Eng, 100*sim.Millisecond, func() bool { return fired }); err != nil {
		t.Fatalf("request did not complete: %v", err)
	}
	return reply
}

// TestClientSubmitModes: every Submit mode returns the bytes the ordered
// path produces, and fills each Reply field as documented. Only Ordered
// consumes a consensus slot; the reads are answered by their own quorum
// rule without falling back.
func TestClientSubmitModes(t *testing.T) {
	key, val := []byte("k"), []byte("v")
	for _, tc := range []struct {
		name   string
		mode   consensus.Mode
		pinned bool // pin the read at the read floor the seed write left
	}{
		{"ordered", consensus.Ordered, false},
		{"fast", consensus.Fast, false},
		{"fast-pinned", consensus.Fast, true},
		{"strong", consensus.Strong, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u := cluster.NewUBFT(cluster.Options{Seed: 1, NewApp: func() app.StateMachine { return app.NewKV(0) }})
			defer u.Stop()
			c := u.Client(0)
			if res, _ := u.InvokeSync(0, app.EncodeKVSet(key, val), 50*sim.Millisecond); len(res) != 1 || res[0] != app.KVStored {
				t.Fatalf("seed write: %v", res)
			}
			floor := c.ReadFloor(0)
			if floor == 0 {
				t.Fatal("an ordered write did not ratchet the read floor")
			}
			decidedBefore := u.Replicas[0].DecidedCount()

			op := consensus.Op{Payload: app.EncodeKVGet(key), Mode: tc.mode}
			if tc.pinned {
				op.At = floor
			}
			r := syncSubmit(t, u, op)

			wantSlots := 0
			if tc.mode == consensus.Ordered {
				wantSlots = 1
			}
			if decided := u.Replicas[0].DecidedCount() - decidedBefore; decided != wantSlots {
				t.Fatalf("consumed %d consensus slots, want %d", decided, wantSlots)
			}
			if r.FellBack || r.Crossed {
				t.Fatalf("FellBack=%v Crossed=%v, want false/false on a quiet cluster", r.FellBack, r.Crossed)
			}
			if r.Latency <= 0 {
				t.Fatalf("Latency = %v, want > 0", r.Latency)
			}
			if r.Slot < floor || r.Slot > r.Frontier {
				t.Fatalf("Slot %d outside [floor %d, Frontier %d]", r.Slot, floor, r.Frontier)
			}
			if got := c.ReadFloor(0); got < r.Slot {
				t.Fatalf("read floor %d below the accepted Slot %d", got, r.Slot)
			}
			switch {
			case tc.mode == consensus.Ordered:
				// The request executed after the seed write, at the version
				// the floor now holds; the ordered path reveals no other.
				if r.Slot <= floor || r.Slot != r.Frontier || r.Slot != c.ReadFloor(0) {
					t.Fatalf("ordered Slot %d Frontier %d floor %d->%d", r.Slot, r.Frontier, floor, c.ReadFloor(0))
				}
			case tc.pinned:
				if r.Slot != op.At {
					t.Fatalf("pinned read answered at Slot %d, want the pin %d", r.Slot, op.At)
				}
			case tc.mode == consensus.Strong:
				// Unanimous at one version, or pinned at the revealed
				// frontier: either way the accepted version is the frontier.
				if r.Slot != r.Frontier {
					t.Fatalf("strong Slot %d != Frontier %d", r.Slot, r.Frontier)
				}
			}
			wantFast, wantStrong := uint64(0), uint64(0)
			switch tc.mode {
			case consensus.Fast:
				wantFast = 1
			case consensus.Strong:
				wantStrong = 1
			}
			if c.FastReads != wantFast || c.StrongReads != wantStrong || c.ReadFallbacks != 0 {
				t.Fatalf("read stats: fast=%d strong=%d fallbacks=%d, want %d/%d/0",
					c.FastReads, c.StrongReads, c.ReadFallbacks, wantFast, wantStrong)
			}
			if c.PendingCount() != 0 {
				t.Fatalf("%d pending after completion", c.PendingCount())
			}
			want, _ := u.InvokeSync(0, app.EncodeKVGet(key), 50*sim.Millisecond)
			if !bytes.Equal(r.Result, want) {
				t.Fatalf("%s result %x != ordered %x", tc.name, r.Result, want)
			}
		})
	}
}

// TestClientSubmitFastRefusalFallsBack: an application without the
// ReadExecutor capability (Flip) refuses unordered reads deterministically
// on every replica; f+1 refusals fall back to the ordered path immediately
// and the caller still gets the correct result, flagged FellBack.
func TestClientSubmitFastRefusalFallsBack(t *testing.T) {
	u := cluster.NewUBFT(cluster.Options{Seed: 1})
	defer u.Stop()
	c := u.Client(0)
	r := syncSubmit(t, u, consensus.Op{Payload: []byte("ab"), Mode: consensus.Fast})
	if string(r.Result) != "ba" {
		t.Fatalf("fallback read = %q, want %q", r.Result, "ba")
	}
	if !r.FellBack || r.Crossed {
		t.Fatalf("FellBack=%v Crossed=%v, want true/false", r.FellBack, r.Crossed)
	}
	// A fallback reports one version as both Slot and Frontier, at or
	// above the floor its ordered execution ratcheted.
	if r.Slot == 0 || r.Slot != r.Frontier || r.Slot < c.ReadFloor(0) {
		t.Fatalf("fallback Slot %d Frontier %d floor %d", r.Slot, r.Frontier, c.ReadFloor(0))
	}
	if c.FastReads != 0 || c.ReadFallbacks != 1 {
		t.Fatalf("read stats: fast=%d fallbacks=%d, want 0/1", c.FastReads, c.ReadFallbacks)
	}
	if c.PendingCount() != 0 {
		t.Fatalf("%d pending after fallback completion", c.PendingCount())
	}
}
