package coord

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/resultstore"
)

// fakeClock is an injectable Options.Now for deterministic expiry tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// testKeys builds n distinct unit keys.
func testKeys(n int) []resultstore.Key {
	out := make([]resultstore.Key, n)
	for i := range out {
		out[i] = resultstore.Key{Snapshot: "snap", Spec: fmt.Sprintf("spec%d", i), Method: "m", Split: "s", Seed: 1}
	}
	return out
}

func TestNewRejectsEmptyAndDuplicateUnits(t *testing.T) {
	if _, err := New("fp", nil, Options{}); err == nil {
		t.Fatal("want error for empty unit list")
	}
	keys := testKeys(2)
	keys[1] = keys[0]
	if _, err := New("fp", keys, Options{}); err == nil {
		t.Fatal("want error for duplicate unit key")
	}
}

func TestLeaseExpiryRequeuesUnits(t *testing.T) {
	clk := newFakeClock()
	c, err := New("fp", testKeys(3), Options{LeaseTTL: 10 * time.Second, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	ga := c.Lease("a", 0)
	if ga.ID == "" || len(ga.Units) != 1 {
		t.Fatalf("cold-start grant %+v, want 1 unit (batch probes cost first)", ga)
	}
	// Before expiry the unit stays with worker a.
	clk.Advance(9 * time.Second)
	gb := c.Lease("b", 0)
	if len(gb.Units) != 1 || gb.Units[0] == ga.Units[0] {
		t.Fatalf("b leased %+v, want a fresh unit while a's lease is live", gb.Units)
	}
	// t=11s: a's lease (granted t=0, TTL 10s) has expired and its unit is
	// back in the queue; b's (granted t=9s) is still live.
	clk.Advance(2 * time.Second)
	st := c.Stats()
	if st.Expired != 1 || st.Recovered != 1 || st.Pending != 2 || st.Leased != 1 {
		t.Fatalf("after expiry: %+v", st)
	}
	gc := c.Lease("c", 0)
	if len(gc.Units) != 1 {
		t.Fatalf("c got %d units after recovery", len(gc.Units))
	}
	if _, err := c.Heartbeat(ga.ID); err == nil {
		t.Fatal("heartbeat on an expired lease must error")
	}
}

func TestHeartbeatExtendsLease(t *testing.T) {
	clk := newFakeClock()
	c, err := New("fp", testKeys(1), Options{LeaseTTL: 10 * time.Second, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	g := c.Lease("a", 0)
	clk.Advance(8 * time.Second)
	if _, err := c.Heartbeat(g.ID); err != nil {
		t.Fatal(err)
	}
	// t=17s: past the original expiry (t=10s) but inside the extension
	// (t=18s) — the lease must still be live.
	clk.Advance(9 * time.Second)
	if st := c.Stats(); st.Expired != 0 || st.Leased != 1 {
		t.Fatalf("extended lease expired early: %+v", st)
	}
	if _, err := c.Heartbeat(g.ID); err != nil {
		t.Fatal(err)
	}
}

func TestCompleteIsIdempotent(t *testing.T) {
	clk := newFakeClock()
	c, err := New("fp", testKeys(2), Options{LeaseTTL: 10 * time.Second, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	g := c.Lease("a", 0)
	res, err := c.Complete(g.ID, g.Units, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 || res.Duplicates != 0 || res.Done {
		t.Fatalf("first complete: %+v", res)
	}
	// The same units completed again (a recovered lease whose original
	// worker was slow, not dead) count as duplicates, never as an error.
	res, err = c.Complete(g.ID, g.Units, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 || res.Duplicates != 1 {
		t.Fatalf("second complete: %+v", res)
	}
	st := c.Stats()
	if st.Dup != 1 || st.Late != 1 || st.Completed != 1 {
		t.Fatalf("counters after double complete: %+v", st)
	}
}

func TestCompleteAfterExpiryStillLands(t *testing.T) {
	clk := newFakeClock()
	c, err := New("fp", testKeys(1), Options{LeaseTTL: 10 * time.Second, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	g := c.Lease("a", 0)
	clk.Advance(11 * time.Second)
	res, err := c.Complete(g.ID, g.Units, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 || !res.Done {
		t.Fatalf("late complete: %+v", res)
	}
	st := c.Stats()
	if st.Done != 1 || st.Late != 1 || st.Pending != 0 {
		t.Fatalf("after late complete: %+v", st)
	}
	if g2 := c.Lease("b", 0); !g2.Done || len(g2.Units) != 0 {
		t.Fatalf("lease after completion: %+v, want Done", g2)
	}
}

func TestCompleteRejectsUnknownUnit(t *testing.T) {
	c, err := New("fp", testKeys(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := c.Lease("a", 0)
	alien := resultstore.Key{Snapshot: "other", Spec: "x", Method: "m", Split: "s"}
	if _, err := c.Complete(g.ID, []resultstore.Key{alien}, ""); err == nil || !strings.Contains(err.Error(), "not in the plan") {
		t.Fatalf("complete of an alien unit: %v", err)
	}
	// Validation failed before any mutation: the unit is still leased.
	if st := c.Stats(); st.Done != 0 || st.Leased != 1 {
		t.Fatalf("state mutated by rejected complete: %+v", st)
	}
}

func TestAdaptiveBatchGrowsWithObservedCost(t *testing.T) {
	clk := newFakeClock()
	c, err := New("fp", testKeys(30), Options{LeaseTTL: 40 * time.Second, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	// Cold start: batch of 1 probes the unit cost.
	g := c.Lease("a", 0)
	if len(g.Units) != 1 {
		t.Fatalf("cold-start batch %d, want 1", len(g.Units))
	}
	clk.Advance(1 * time.Second)
	if _, err := c.Complete(g.ID, g.Units, ""); err != nil {
		t.Fatal(err)
	}
	// EWMA is now 1 s/unit; TTL/4 = 10 s → batch of 10.
	g = c.Lease("a", 0)
	if len(g.Units) != 10 {
		t.Fatalf("adaptive batch %d, want 10 at 1s/unit and 40s TTL", len(g.Units))
	}
	// The worker-side cap still wins.
	g2 := c.Lease("b", 3)
	if len(g2.Units) != 3 {
		t.Fatalf("worker-capped batch %d, want 3", len(g2.Units))
	}
	if st := c.Stats(); st.EWMAUnitMillis != 1000 {
		t.Fatalf("ewma %v ms, want 1000", st.EWMAUnitMillis)
	}
}

func TestLeaseEmptyGrantWhileAllUnitsHeld(t *testing.T) {
	clk := newFakeClock()
	c, err := New("fp", testKeys(1), Options{LeaseTTL: 8 * time.Second, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	c.Lease("a", 0)
	g := c.Lease("b", 0)
	if g.Done || g.ID != "" || len(g.Units) != 0 {
		t.Fatalf("grant while all units held: %+v", g)
	}
	if g.RetryAfter != 2*time.Second {
		t.Fatalf("RetryAfter %v, want TTL/4", g.RetryAfter)
	}
	if g.Remaining != 1 {
		t.Fatalf("Remaining %d, want 1", g.Remaining)
	}
}

func TestGrantEchoesPlanFingerprint(t *testing.T) {
	c, err := New("deadbeef", testKeys(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g := c.Lease("a", 0); g.Plan != "deadbeef" {
		t.Fatalf("grant plan %q", g.Plan)
	}
	if c.Plan() != "deadbeef" {
		t.Fatalf("Plan() %q", c.Plan())
	}
}

// TestCompleteRequeuesUnnamedUnits: a complete that names only part of
// its lease ends the lease and returns the rest to the queue; before,
// they stayed leased to a lease that no longer existed, so the run could
// never finish.
func TestCompleteRequeuesUnnamedUnits(t *testing.T) {
	c, err := New("fp", testKeys(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := c.Lease("a", 0)
	if _, err := c.Complete(g.ID, g.Units, ""); err != nil {
		t.Fatal(err)
	}
	g = c.Lease("a", 2)
	if len(g.Units) != 2 {
		t.Fatalf("second grant %+v, want 2 units", g)
	}
	if _, err := c.Complete(g.ID, g.Units[:1], ""); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Done != 2 || st.Leased != 0 || st.Pending != 1 || st.Leases != 0 {
		t.Fatalf("after a partial complete: %+v", st)
	}
	if g2 := c.Lease("b", 0); len(g2.Units) != 1 || g2.Units[0] != g.Units[1] {
		t.Fatalf("b leased %+v, want the unit the partial complete left out", g2.Units)
	}
}
