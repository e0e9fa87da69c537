package ishare

import (
	"context"
	"fmt"
	"math"
	"time"
)

// RegEntry is one registry entry as a federation peer's shard stores it, in
// memory and in durable form: the machine, its gateway address, and the
// absolute expiry (zero = never). Absolute expiries make replay
// deterministic — a restart does not restart TTL clocks.
type RegEntry struct {
	Machine string
	Addr    string
	Expires time.Time
}

// newRegEntry builds an entry expiring ttl after now (ttl <= 0 = never).
func newRegEntry(machine, addr string, ttl time.Duration, now time.Time) RegEntry {
	e := RegEntry{Machine: machine, Addr: addr}
	if ttl > 0 {
		e.Expires = now.Add(ttl)
	}
	return e
}

// expired reports whether the entry's TTL has run out at now: a gateway that
// stops heartbeating is no longer handed out, so clients never rank it.
func (e RegEntry) expired(now time.Time) bool {
	return !e.Expires.IsZero() && !now.Before(e.Expires)
}

// ttlDuration converts a wire ttl_seconds into a Duration. Values <= 0 mean
// "no expiry" to every caller; NaN, infinities and anything that does not
// fit a Duration are refused, because Go leaves that conversion undefined.
func ttlDuration(seconds float64) (time.Duration, error) {
	ns := seconds * float64(time.Second)
	if !(ns >= math.MinInt64 && ns < math.MaxInt64) { // false for NaN too
		return 0, fmt.Errorf("fed: ttl_seconds %v does not fit a duration", seconds)
	}
	return time.Duration(ns), nil
}

// RegisterWithTTL publishes a gateway with a TTL through an optional Caller
// (registration is idempotent, so the caller's retry policy applies). The
// gateway must re-register within the TTL — see HostNode.Publish.
func RegisterWithTTL(ctx context.Context, caller *Caller, registryAddr, machineID, gatewayAddr string, ttl, timeout time.Duration) error {
	req := registerReq{MachineID: machineID, Addr: gatewayAddr, TTLSeconds: ttl.Seconds()}
	return caller.CallRetry(ctx, registryAddr, msgRegister, req, nil, timeout)
}
