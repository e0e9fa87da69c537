package ishare

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"fgcs/internal/simclock"
)

// ringOfOne builds the standalone-registry configuration: a federation ring
// whose only member is the peer itself.
func ringOfOne(t *testing.T, cfg FedConfig) *FedGateway {
	t.Helper()
	cfg.Self = Peer{ID: "reg", Addr: "reg.invalid:1"}
	cfg.Peers = []Peer{cfg.Self}
	gw, err := NewFedGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gw
}

// regTTL registers a machine in-process (ttl 0 = never expires).
func regTTL(t *testing.T, gw *FedGateway, machine, addr string, ttl time.Duration) {
	t.Helper()
	req := registerReq{MachineID: machine, Addr: addr, TTLSeconds: ttl.Seconds()}
	if err := gw.register(context.Background(), req); err != nil {
		t.Fatal(err)
	}
}

// stored counts the shard's map entries, expired or not.
func stored(gw *FedGateway) int {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return len(gw.entries)
}

func TestRegistryTTLExpiry(t *testing.T) {
	clock := simclock.NewVirtual(monday)
	reg := ringOfOne(t, FedConfig{Clock: clock})
	regTTL(t, reg, "a", "10.0.0.1:1", time.Minute)
	regTTL(t, reg, "b", "10.0.0.3:1", 2*time.Minute)
	regTTL(t, reg, "forever", "10.0.0.2:1", 0)
	if got := len(reg.localResources()); got != 3 {
		t.Fatalf("live resources = %d", got)
	}
	// Just before expiry: still live.
	clock.Advance(time.Minute - time.Second)
	if got := len(reg.localResources()); got != 3 {
		t.Fatalf("resources before expiry = %d", got)
	}
	// At expiry, the TTL'd entry vanishes from discovery, and discovery
	// itself evicts it; the TTL-less registration stays forever.
	clock.Advance(time.Second)
	if res := reg.localResources(); len(res) != 2 || res[0].MachineID != "b" || res[1].MachineID != "forever" {
		t.Fatalf("resources after expiry = %+v", res)
	}
	if n := stored(reg); n != 2 {
		t.Fatalf("stored entries after discover = %d, want 2", n)
	}
	// Without any query, the anti-entropy round is the sweep.
	clock.Advance(time.Minute)
	reg.SyncOnce(context.Background())
	if n := stored(reg); n != 1 {
		t.Fatalf("stored entries after sync round = %d, want 1", n)
	}
}

func TestRegistryReRegisterRefreshesTTL(t *testing.T) {
	clock := simclock.NewVirtual(monday)
	reg := ringOfOne(t, FedConfig{Clock: clock})
	regTTL(t, reg, "a", "10.0.0.1:1", time.Minute)
	// Heartbeat at t+40s pushes expiry to t+100s.
	clock.Advance(40 * time.Second)
	regTTL(t, reg, "a", "10.0.0.1:1", time.Minute)
	clock.Advance(50 * time.Second) // t+90s: past the original expiry
	if got := len(reg.localResources()); got != 1 {
		t.Fatal("refreshed registration expired on the original TTL")
	}
	clock.Advance(10 * time.Second) // t+100s
	if got := len(reg.localResources()); got != 0 {
		t.Fatalf("resources after refreshed TTL = %d", got)
	}
}

func TestRegistryTTLOverTCP(t *testing.T) {
	clock := simclock.NewVirtual(monday)
	srv := buildFederation(t, 1, 0, clock)[0].srv // a ring of one over TCP
	if err := RegisterWithTTL(context.Background(), nil, srv.Addr(), "lab-01", "10.0.0.1:9000", 30*time.Second, time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := FedClient{Addr: srv.Addr(), Timeout: time.Second}.discover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("discovered = %+v", res)
	}
	clock.Advance(31 * time.Second)
	res, err = FedClient{Addr: srv.Addr(), Timeout: time.Second}.discover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("expired gateway still discoverable: %+v", res)
	}
}

// TestTTLDuration pins the ttl_seconds conversion: the unchecked
// float-to-Duration conversion it replaces stored 1e10 s as "never expires"
// on the owner and as an expiry in 1733 on its replicas.
func TestTTLDuration(t *testing.T) {
	for _, tc := range []struct {
		seconds float64
		want    time.Duration
		ok      bool
	}{
		{60, time.Minute, true},
		{0, 0, true},
		{-5, -5 * time.Second, true}, // <= 0: no expiry to every caller
		{9.3e9, 0, false},
		{1e300, 0, false},
		{math.NaN(), 0, false},
		{math.Inf(1), 0, false},
	} {
		got, err := ttlDuration(tc.seconds)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ttlDuration(%v) = %v, %v; want %v, ok=%v", tc.seconds, got, err, tc.want, tc.ok)
		}
	}
	// Through the two call sites: register refuses, fed-sync skips.
	reg := ringOfOne(t, FedConfig{Clock: simclock.NewVirtual(monday)})
	for _, ttl := range []float64{-5, 9.3e9} {
		err := reg.register(context.Background(), registerReq{MachineID: "m", Addr: "a:1", TTLSeconds: ttl})
		if (err == nil) != (ttl < 0) {
			t.Errorf("register ttl_seconds=%v: err = %v", ttl, err)
		}
	}
	if e, ok := reg.lookup("m"); !ok || !e.Expires.IsZero() {
		t.Errorf("ttl_seconds=-5 stored as %+v, want a never-expiring entry", e)
	}
	sr := reg.fedSync(fedSyncReq{Entries: []fedEntry{
		{MachineID: "huge", Addr: "b:1", TTLSeconds: 1e10},
		{MachineID: "fine", Addr: "c:1", TTLSeconds: 60},
	}})
	if _, ok := reg.lookup("huge"); ok || sr.Accepted != 1 {
		t.Errorf("fed-sync applied an out-of-range ttl (accepted=%d)", sr.Accepted)
	}
}

// waitFor polls cond with a real-time deadline; used to sync with
// goroutines driven by the virtual clock.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestHostNodeHeartbeat(t *testing.T) {
	clock := simclock.NewVirtual(monday)
	ring := buildFederation(t, 1, 0, clock)[0]
	reg, regSrv := ring.gw, ring.srv

	node := testNode(t, clock, nil)
	gwSrv, err := node.Gateway.ServeConfig("127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer gwSrv.Close()

	ttl, every := 30*time.Second, 10*time.Second
	stop, err := node.Publish(regSrv.Addr(), gwSrv.Addr(), ttl, every)
	if err != nil {
		t.Fatal(err)
	}
	// Beats at 10/20/30/40s keep the registration alive far past the
	// original 30 s TTL.
	for i := 0; i < 4; i++ {
		waitFor(t, func() bool { return clock.PendingTimers() > 0 })
		clock.Advance(every)
		// Each beat is an RPC on a goroutine; wait until the refreshed
		// expiry lands so the next advance cannot race past it.
		deadline := clock.Now().Add(ttl)
		waitFor(t, func() bool {
			reg.mu.Lock()
			defer reg.mu.Unlock()
			e, ok := reg.entries["lab-01"]
			return ok && !e.Expires.Before(deadline)
		})
	}
	if got := len(reg.localResources()); got != 1 {
		t.Fatalf("heartbeating gateway dropped: resources = %d", got)
	}
	// Stop the heartbeat: the registration expires one TTL later — this is
	// exactly how a revoked host vanishes from discovery.
	stop()
	stop() // idempotent
	clock.Advance(ttl + time.Second)
	if got := len(reg.localResources()); got != 0 {
		t.Fatalf("dead gateway still discoverable after TTL: resources = %d", got)
	}
}

// TestRegistryConcurrentAccess hammers register/discover/export/sweep from
// many goroutines; run under -race this is the shard's thread-safety proof.
func TestRegistryConcurrentAccess(t *testing.T) {
	clock := simclock.NewVirtual(monday)
	reg := ringOfOne(t, FedConfig{Clock: clock})
	h := reg.Handler()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0:
					_ = reg.register(context.Background(), registerReq{
						MachineID:  fmt.Sprintf("m-%d-%d", w, i%16),
						Addr:       "10.0.0.1:1",
						TTLSeconds: float64(1 + i%30),
					})
				case 1:
					_, _ = h(Request{Type: msgDiscover})
				case 2:
					reg.SyncOnce(context.Background())
				case 3:
					reg.Export()
				}
			}
		}(w)
	}
	// Concurrent clock advances move expiry judgments while the above run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			clock.Advance(time.Second)
		}
	}()
	wg.Wait()
}
