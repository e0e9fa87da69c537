package ishare

import (
	"fmt"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("machine-%04d", i)
	}
	return keys
}

func buildRing(t *testing.T, vnodes int, ids ...string) *Ring {
	t.Helper()
	r := NewRing(vnodes)
	for _, id := range ids {
		if err := r.Add(Peer{ID: id, Addr: id + ":0"}); err != nil {
			t.Fatalf("Add(%s): %v", id, err)
		}
	}
	return r
}

// TestRingBalance checks the ISSUE's balance target: across 1000 keys at 64
// vnodes, every peer's share stays within ±15% of fair share, for several
// fleet sizes.
func TestRingBalance(t *testing.T) {
	keys := ringKeys(1000)
	cases := []struct {
		name  string
		peers []string
	}{
		{"3-peers", []string{"gw-a", "gw-b", "gw-c"}},
		{"4-peers", []string{"gw-a", "gw-b", "gw-c", "gw-d"}},
		{"5-peers", []string{"fed1", "fed2", "fed3", "fed4", "fed5"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := buildRing(t, 64, tc.peers...)
			counts := make(map[string]int)
			for _, k := range keys {
				owner, ok := r.Owner(k)
				if !ok {
					t.Fatalf("Owner(%s): empty ring", k)
				}
				counts[owner.ID]++
			}
			fair := float64(len(keys)) / float64(len(tc.peers))
			for _, id := range tc.peers {
				got := float64(counts[id])
				dev := (got - fair) / fair
				t.Logf("%s: %d keys (%+.1f%% of fair share %.0f)", id, counts[id], dev*100, fair)
				if dev > 0.15 || dev < -0.15 {
					t.Errorf("%s owns %d keys, outside ±15%% of fair share %.0f", id, counts[id], fair)
				}
			}
		})
	}
}

// TestRingJoinMovesKeysOnlyToJoiner checks the consistent-hashing contract:
// when a peer joins, the only keys that change owner are those that move TO
// the joiner, and roughly 1/N of the keyspace moves.
func TestRingJoinMovesKeysOnlyToJoiner(t *testing.T) {
	keys := ringKeys(1000)
	before := buildRing(t, 64, "gw-a", "gw-b", "gw-c", "gw-d")
	after := buildRing(t, 64, "gw-a", "gw-b", "gw-c", "gw-d", "gw-e")

	moved := 0
	for _, k := range keys {
		ob, _ := before.Owner(k)
		oa, _ := after.Owner(k)
		if ob.ID == oa.ID {
			continue
		}
		moved++
		if oa.ID != "gw-e" {
			t.Errorf("key %s moved %s -> %s, not to the joining peer", k, ob.ID, oa.ID)
		}
	}
	// Fair share for the joiner is 1000/5 = 200; allow 2x slack but insist
	// the vast majority of keys did not move.
	if moved == 0 || moved > 400 {
		t.Errorf("join moved %d/1000 keys, want (0, 400]", moved)
	}
	t.Logf("join moved %d/1000 keys", moved)
}

// TestRingLeaveMovesKeysOnlyFromLeaver checks the mirror property: when a
// peer leaves, only the keys it owned change hands.
func TestRingLeaveMovesKeysOnlyFromLeaver(t *testing.T) {
	keys := ringKeys(1000)
	before := buildRing(t, 64, "gw-a", "gw-b", "gw-c", "gw-d", "gw-e")
	after := buildRing(t, 64, "gw-a", "gw-b", "gw-c", "gw-d", "gw-e")
	after.Remove("gw-c")

	moved := 0
	for _, k := range keys {
		ob, _ := before.Owner(k)
		oa, _ := after.Owner(k)
		if ob.ID == oa.ID {
			continue
		}
		moved++
		if ob.ID != "gw-c" {
			t.Errorf("key %s moved %s -> %s though %s did not leave", k, ob.ID, oa.ID, ob.ID)
		}
	}
	if moved == 0 || moved > 400 {
		t.Errorf("leave moved %d/1000 keys, want (0, 400]", moved)
	}
	t.Logf("leave moved %d/1000 keys", moved)
}

// TestRingSuccessors checks the replica-set contract used by the
// federation routing layer.
func TestRingSuccessors(t *testing.T) {
	r := buildRing(t, 64, "gw-a", "gw-b", "gw-c")
	for _, k := range ringKeys(50) {
		succ := r.Successors(k, 3)
		if len(succ) != 3 {
			t.Fatalf("Successors(%s, 3) = %d peers, want 3", k, len(succ))
		}
		owner, _ := r.Owner(k)
		if succ[0].ID != owner.ID {
			t.Errorf("Successors(%s)[0] = %s, want owner %s", k, succ[0].ID, owner.ID)
		}
		seen := map[string]bool{}
		for _, p := range succ {
			if seen[p.ID] {
				t.Errorf("Successors(%s) repeats peer %s", k, p.ID)
			}
			seen[p.ID] = true
		}
	}
	// Asking for more peers than exist returns all of them, once each.
	if got := len(r.Successors("machine-0001", 10)); got != 3 {
		t.Errorf("Successors(n=10) on 3-peer ring = %d, want 3", got)
	}
	if r.Successors("machine-0001", 0) != nil {
		t.Error("Successors(n=0) should be nil")
	}
	if NewRing(0).Successors("x", 2) != nil {
		t.Error("Successors on empty ring should be nil")
	}
}

// TestRingInsertionOrderIrrelevant checks that ownership depends only on
// membership, not on the order peers were added — required for peers that
// each build their ring from a differently-ordered -peers flag.
func TestRingInsertionOrderIrrelevant(t *testing.T) {
	a := buildRing(t, 64, "gw-a", "gw-b", "gw-c")
	b := buildRing(t, 64, "gw-c", "gw-a", "gw-b")
	for _, k := range ringKeys(200) {
		oa, _ := a.Owner(k)
		ob, _ := b.Owner(k)
		if oa.ID != ob.ID {
			t.Fatalf("owner of %s differs by insertion order: %s vs %s", k, oa.ID, ob.ID)
		}
	}
}

// TestRingAddRemoveValidation covers the edge cases around membership
// mutation.
func TestRingAddRemoveValidation(t *testing.T) {
	r := NewRing(0)
	if r.vnodes != DefaultVnodes {
		t.Fatalf("vnodes = %d, want default %d", r.vnodes, DefaultVnodes)
	}
	if err := r.Add(Peer{ID: "", Addr: "x"}); err == nil {
		t.Error("Add without ID should fail")
	}
	if err := r.Add(Peer{ID: "x", Addr: ""}); err == nil {
		t.Error("Add without address should fail")
	}
	if err := r.Add(Peer{ID: "gw-a", Addr: "a:1"}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	// Re-adding refreshes the address without moving keys.
	ownerBefore, _ := r.Owner("machine-1")
	if err := r.Add(Peer{ID: "gw-a", Addr: "a:2"}); err != nil {
		t.Fatalf("re-Add: %v", err)
	}
	ownerAfter, _ := r.Owner("machine-1")
	if ownerAfter.Addr != "a:2" || ownerAfter.ID != ownerBefore.ID {
		t.Errorf("re-Add: owner = %+v, want same ID with refreshed addr", ownerAfter)
	}
	if len(r.peers) != 1 {
		t.Errorf("peers = %d, want 1", len(r.peers))
	}
	r.Remove("nope") // no-op
	r.Remove("gw-a")
	if len(r.peers) != 0 {
		t.Errorf("peers after remove = %d, want 0", len(r.peers))
	}
	if _, ok := r.Owner("machine-1"); ok {
		t.Error("Owner on emptied ring should report false")
	}
}
