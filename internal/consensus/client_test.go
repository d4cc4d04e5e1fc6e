package consensus

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/sim"
)

// TestClientCancelOrdered: a cancelled ordered request leaves no pending
// state, never fires done — not even when a full matching quorum arrives
// afterwards — and its late responses do not ratchet the read floor.
func TestClientCancelOrdered(t *testing.T) {
	eng, c := sinkClient()
	fired := false
	num := c.Submit(Op{Payload: []byte("w")}, func(Reply) { fired = true })
	if got := c.PendingCount(); got != 1 {
		t.Fatalf("PendingCount = %d after Submit, want 1", got)
	}
	if !c.Cancel(num) {
		t.Fatal("Cancel of a pending request reported false")
	}
	if got := c.PendingCount(); got != 0 {
		t.Fatalf("PendingCount = %d after Cancel, want 0", got)
	}
	for rep := ids.ID(0); rep < 3; rep++ {
		c.onRPC(rep, encodeReply(tagResponse, num, 4, 0, []byte("ok")))
	}
	eng.RunFor(sim.Millisecond)
	if fired {
		t.Fatal("done fired for a cancelled request")
	}
	if c.Cancel(num) {
		t.Fatal("second Cancel reported the request still pending")
	}
	if got := c.ReadFloor(0); got != 0 {
		t.Fatalf("a cancelled request's responses moved the read floor to %d", got)
	}
}

// TestClientCancelFastRead: cancelling a fast read drops its pending
// entry and disarms its fallback timer — before the fallback, and during
// it, where the inner ordered request is dropped too. done never fires.
func TestClientCancelFastRead(t *testing.T) {
	t.Run("before-fallback", func(t *testing.T) {
		eng, c := sinkClient()
		fired := false
		num := c.Submit(Op{Payload: []byte("r"), Mode: Fast}, func(Reply) { fired = true })
		if !c.Cancel(num) {
			t.Fatal("Cancel of a pending read reported false")
		}
		eng.RunFor(2 * defaultReadTimeout)
		if fired || c.ReadFallbacks != 0 || c.PendingCount() != 0 {
			t.Fatalf("fired=%v fallbacks=%d pending=%d after Cancel, want false/0/0",
				fired, c.ReadFallbacks, c.PendingCount())
		}
	})
	t.Run("during-fallback", func(t *testing.T) {
		eng, c := sinkClient()
		fired := false
		num := c.Submit(Op{Payload: []byte("r"), Mode: Fast}, func(Reply) { fired = true })
		// f+1 refusals prove no fast quorum can form: the read falls back.
		for rep := ids.ID(0); rep < 2; rep++ {
			c.onRPC(rep, encodeReply(tagReadResponse, num, 0, 0, nil))
		}
		p := c.pendingReads[num]
		if c.ReadFallbacks != 1 || p == nil || !p.fellBack {
			t.Fatalf("read did not fall back: fallbacks=%d", c.ReadFallbacks)
		}
		if got := c.PendingCount(); got != 2 {
			t.Fatalf("PendingCount = %d in fallback, want 2 (read + inner ordered request)", got)
		}
		if !c.Cancel(num) {
			t.Fatal("Cancel of a read in fallback reported false")
		}
		if got := c.PendingCount(); got != 0 {
			t.Fatalf("PendingCount = %d after Cancel, want 0", got)
		}
		for rep := ids.ID(0); rep < 3; rep++ {
			c.onRPC(rep, encodeReply(tagResponse, p.ordNum, 4, 0, []byte("ok")))
		}
		eng.RunFor(2 * defaultReadTimeout)
		if fired {
			t.Fatal("done fired for a read cancelled during its fallback")
		}
	})
}
