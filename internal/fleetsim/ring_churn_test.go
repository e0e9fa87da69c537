package fleetsim

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"fgcs/internal/faultnet"
	"fgcs/internal/ishare"
	"fgcs/internal/rng"
	"fgcs/internal/simclock"
)

// TestRingChurnKeyMovement pins the consistent-hashing contract under
// join/leave storms at several fleet shapes: a join moves keys only TO the
// joiner and roughly one fair share of them; a leave moves exactly the
// keys the leaver owned.
func TestRingChurnKeyMovement(t *testing.T) {
	cases := []struct {
		peers  int
		vnodes int
		keys   int
	}{
		{4, 64, 5_000},
		{8, 64, 20_000},
		{16, 64, 20_000},
		{8, 128, 20_000},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("p%d-v%d-k%d", tc.peers, tc.vnodes, tc.keys), func(t *testing.T) {
			peers := make([]ishare.Peer, tc.peers)
			for i := range peers {
				id := fmt.Sprintf("gw%02d", i)
				peers[i] = ishare.Peer{ID: id, Addr: "fed/" + id}
			}
			base := buildRing(tc.vnodes, peers)
			owner := make(map[string]string, tc.keys)
			keys := make([]string, tc.keys)
			for i := range keys {
				keys[i] = fmt.Sprintf("m%06d", i)
				o, ok := base.Owner(keys[i])
				if !ok {
					t.Fatal("empty ring")
				}
				owner[keys[i]] = o.ID
			}

			// Join storm: one new peer enters.
			grown := buildRing(tc.vnodes, peers)
			if err := grown.Add(ishare.Peer{ID: "gw-new", Addr: "fed/gw-new"}); err != nil {
				t.Fatal(err)
			}
			moved := 0
			for _, k := range keys {
				o, _ := grown.Owner(k)
				if o.ID == owner[k] {
					continue
				}
				moved++
				if o.ID != "gw-new" {
					t.Fatalf("key %s moved %s -> %s on join: keys may move only to the joiner",
						k, owner[k], o.ID)
				}
			}
			fair := float64(tc.keys) / float64(tc.peers+1)
			if f := float64(moved); f > 2*fair {
				t.Errorf("join moved %d keys, > 2x fair share %.0f", moved, fair)
			}
			if moved == 0 {
				t.Error("join moved no keys")
			}

			// Leave storm: the last peer exits.
			leaver := peers[len(peers)-1].ID
			shrunk := buildRing(tc.vnodes, peers)
			shrunk.Remove(leaver)
			for _, k := range keys {
				o, _ := shrunk.Owner(k)
				if owner[k] == leaver {
					if o.ID == leaver {
						t.Fatalf("key %s still owned by removed peer", k)
					}
					continue
				}
				if o.ID != owner[k] {
					t.Fatalf("key %s moved %s -> %s on leave: only the leaver's keys may move",
						k, owner[k], o.ID)
				}
			}
		})
	}
}

// TestFedConvergenceAfterRestart rebuilds one peer from empty state in
// fleets of several shapes and asserts anti-entropy restores its full shard
// within a bounded number of sync rounds: one round to repopulate, one to
// observe quiescence.
func TestFedConvergenceAfterRestart(t *testing.T) {
	cases := []struct {
		gateways int
		replicas int
		machines int
	}{
		{4, 1, 500},
		{8, 2, 2_000},
		{16, 3, 2_000},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("g%d-k%d-m%d", tc.gateways, tc.replicas, tc.machines), func(t *testing.T) {
			ctx := context.Background()
			clock := simclock.NewVirtual(time.Date(2026, 6, 1, 12, 0, 0, 0, time.UTC))
			net := faultnet.New(1, faultnet.Config{})
			peers := make([]ishare.Peer, tc.gateways)
			for i := range peers {
				id := fmt.Sprintf("gw%02d", i)
				peers[i] = ishare.Peer{ID: id, Addr: "fed/" + id}
				defer net.Handle(peers[i].Addr, nil)
			}
			newCaller := func() *ishare.Caller {
				return &ishare.Caller{Dialer: net, Retry: ishare.RetryPolicy{MaxAttempts: 1}, Clock: clock}
			}
			newFed := func(i int) *ishare.FedGateway {
				fed, err := ishare.NewFedGateway(ishare.FedConfig{
					Self: peers[i], Peers: peers, Replicas: tc.replicas,
					Caller: newCaller(), Timeout: time.Second, Clock: clock,
				})
				if err != nil {
					t.Fatal(err)
				}
				return fed
			}
			feds := make([]*ishare.FedGateway, tc.gateways)
			for i := range feds {
				feds[i] = newFed(i)
				handle(net, peers[i].Addr, feds[i].Handler(), new(atomic.Int64))
			}
			caller := newCaller()
			st := rng.New(42).Split("register")
			for i := 0; i < tc.machines; i++ {
				id := fmt.Sprintf("m%06d", i)
				entry := peers[st.Intn(len(peers))].Addr
				if err := ishare.RegisterWithTTL(ctx, caller, entry, id, "node/"+id, 0, time.Second); err != nil {
					t.Fatalf("register %s: %v", id, err)
				}
			}

			before := feds[0].RingStats().Entries
			if before == 0 {
				t.Fatal("peer 0 holds no entries before the crash")
			}

			// Crash and restart peer 0 with an empty shard.
			net.Partition(peers[0].Addr)
			net.Heal(peers[0].Addr)
			feds[0] = newFed(0)
			handle(net, peers[0].Addr, feds[0].Handler(), new(atomic.Int64))

			sumAccepted := func() uint64 {
				var n uint64
				for _, f := range feds {
					n += f.RingStats().SyncAccepted
				}
				return n
			}
			rounds := 0
			for rounds < 8 {
				prev := sumAccepted()
				for _, f := range feds {
					f.SyncOnce(ctx)
				}
				rounds++
				if sumAccepted() == prev {
					break
				}
			}
			if rounds > 2 {
				t.Errorf("convergence took %d rounds, want <= 2 (repopulate + quiesce)", rounds)
			}
			if after := feds[0].RingStats().Entries; after != before {
				t.Errorf("restarted peer holds %d entries, held %d before the crash", after, before)
			}
		})
	}
}
