package ishare

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/simclock"
	"fgcs/internal/trace"
)

// TestFedZeroConfigIsProduction holds a FedConfig set only in identity,
// ring and Obs to the federation ishared ran when it wired breakers and
// retries by hand: breakers at 3 failures / 30 s on the peer's clock, their
// transitions counted on Obs, and a 3-attempt caller over the real network
// counted into Obs.Caller. An explicit Caller, as fleetsim passes, replaces
// only the caller.
func TestFedZeroConfigIsProduction(t *testing.T) {
	peers := []Peer{{ID: "gw1", Addr: "gw1:7000"}, {ID: "gw2", Addr: "gw2:7000"}}
	clock := simclock.NewVirtual(monday)
	o := NewNodeObs()
	f, err := NewFedGateway(FedConfig{Self: peers[0], Peers: peers, Clock: clock, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	// What ishared passed explicitly before its FedConfig set neither.
	parentBreakers := BreakerConfig{Threshold: 3, Cooldown: 30 * time.Second}
	parentRetry := RetryPolicy{MaxAttempts: 3}
	bs := f.breakers
	if bs.cfg.threshold() != parentBreakers.Threshold || bs.cfg.cooldown() != parentBreakers.Cooldown || bs.clock != clock {
		t.Fatalf("breakers %+v on %v, want %+v on the peer's clock", bs.cfg, bs.clock, parentBreakers)
	}
	if bs.onTransition == nil || o.breakerOpens == nil {
		t.Fatal("default breakers not counted on Obs")
	}
	c := f.caller
	if c.Retry != parentRetry || c.Metrics != o.Caller || c.Dialer != nil || c.Pool != nil || c.Clock != nil || c.JitterSeed != 0 {
		t.Fatalf("caller retry %+v metrics %p dialer %v pool %v clock %v, want %+v counted into Obs.Caller on the real network",
			c.Retry, c.Metrics, c.Dialer, c.Pool, c.Clock, parentRetry)
	}

	// fleetsim's shape: its own caller, one attempt on its network.
	fo := NewNodeObs()
	fc := &Caller{Dialer: failingDialer{t}, Retry: RetryPolicy{MaxAttempts: 1}, Metrics: fo.Caller}
	g, err := NewFedGateway(FedConfig{Self: peers[0], Peers: peers, Clock: clock, Obs: fo, Caller: fc})
	if err != nil {
		t.Fatal(err)
	}
	if g.caller != fc {
		t.Fatal("an explicit Caller was replaced")
	}
	if g.breakers.cfg != bs.cfg || g.breakers.onTransition == nil || g.timeout != f.timeout || g.replicas != f.replicas {
		t.Fatal("an explicit Caller moved more than the caller")
	}
}

// TestHostNodeWithoutSource: a nil load source builds no monitor, the zero
// Cfg is the paper's model, and the caller feeds Gateway.Record itself.
func TestHostNodeWithoutSource(t *testing.T) {
	clock := simclock.NewVirtual(monday.Add(9 * time.Hour))
	n, err := NewHostNode(NodeConfig{MachineID: "m", Clock: clock}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.Monitor != nil {
		t.Fatal("a node without a load source built a monitor")
	}
	if n.SM.cfg != avail.DefaultConfig() {
		t.Fatalf("zero Cfg gave %+v, want avail.DefaultConfig", n.SM.cfg)
	}
	n.Start()
	defer n.Stop()
	n.Gateway.Record(clock.Now(), trace.Sample{CPU: 95, FreeMemMB: 500, Up: true})
	if got := n.Obs().Monitor.Samples.Value(); got != 1 {
		t.Fatalf("%d samples reached the state manager, want 1", got)
	}
}

// TestAssemblyHasOneHome guards the one assembly: outside this package and
// bench/, no non-test file of the module builds a state manager or gateway
// by hand (NewHostNode does) or sets FedConfig.Breakers (NewFedGateway's
// default is what ishared runs).
func TestAssemblyHasOneHome(t *testing.T) {
	root := filepath.Join("..", "..")
	banned := map[string]bool{"NewStateManager": true, "NewStateManagerShared": true, "NewGateway": true}
	fset := token.NewFileSet()
	var scanned int
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if e.IsDir() {
			switch rel {
			case "bench", filepath.Join("internal", "ishare"), ".git", ".bench_build":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		scanned++
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && banned[sel.Sel.Name] {
					t.Errorf("%s: calls %s; build machines with ishare.NewHostNode", fset.Position(n.Pos()), sel.Sel.Name)
				}
			case *ast.CompositeLit:
				if sel, ok := n.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "FedConfig" {
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Breakers" {
								t.Errorf("%s: sets FedConfig.Breakers; NewFedGateway's default is the production set", fset.Position(kv.Pos()))
							}
						}
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned < 50 {
		t.Fatalf("scanned %d files: the walk did not reach the module", scanned)
	}
}
