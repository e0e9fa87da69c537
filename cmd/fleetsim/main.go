// Command fleetsim runs the in-process fleet-scale simulation: a federated
// ring of gateways serving up to 100k simulated machines over an in-memory
// transport and a virtual clock (no sockets, no sleeps). One run drives the
// full lifecycle — registration storm, two simulated hours of monitor feeds
// and prediction queries crossing a day boundary, a leave/join churn storm
// with TTL reaping, a peer outage served by replicas, and a restart that
// must re-converge via anti-entropy — then emits a two-part JSON report:
// a deterministic "sim" section (byte-identical for the same seed, checked
// by -verify) and a measured "perf" section (throughput, latency, memory)
// that cmd/benchgate gates with -fleet.
//
//	fleetsim -machines 100000 -out .bench_build/fleet.json
//	fleetsim -machines 1000 -verify
//
// The report goes to -out (stdout with -out -); a human-readable summary
// always goes to stderr.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"time"

	"fgcs/internal/fleetsim"
)

func main() {
	var (
		machines    = flag.Int("machines", 100_000, "fleet size, including join-storm holdbacks")
		gateways    = flag.Int("gateways", 8, "federation peers in the ring")
		replicas    = flag.Int("replicas", 2, "registry replication factor K")
		vnodes      = flag.Int("vnodes", 64, "virtual nodes per peer on the hash ring")
		seed        = flag.Uint64("seed", 1, "seed for every random choice in the run")
		profiles    = flag.Int("profiles", 64, "shared machine behavior classes")
		historyDays = flag.Int("history-days", 3, "preloaded per-profile history days")
		period      = flag.Duration("period", 5*time.Minute, "monitoring sample period (one tick of virtual time)")
		ticks       = flag.Int("ticks", 24, "traffic ticks; default crosses midnight from the 23:00 start")
		queries     = flag.Int("queries-per-tick", 0, "fleet-wide queries per tick (0 = max(200, machines/50))")
		workers     = flag.Int("workers", 0, "traffic parallelism (0 = GOMAXPROCS); part of the deterministic config")
		perturbRate = flag.Float64("perturb-rate", 0, "arm the drift scenario: per-slot outage probability injected into one behavior class mid-run (0 = off)")
		perturbProf = flag.Int("perturb-profile", 0, "behavior class the perturbation hits")
		perturbTick = flag.Int("perturb-tick", 0, "first perturbed tick (0 = ticks/2)")
		driftLambda = flag.Float64("drift-lambda", 0, "Page–Hinkley alarm threshold for the accuracy-drift watchers (0 = default)")
		ensemble    = flag.Bool("ensemble", false, "route TR queries through the predictor ensemble (per-peer routers over rolling Brier scores); the report gains a deterministic ensemble block")
		out         = flag.String("out", "-", "write the full JSON report here (- = stdout)")
		verify      = flag.Bool("verify", false, "run twice and fail unless the deterministic sections are byte-identical")
		quiet       = flag.Bool("q", false, "suppress phase progress on stderr")
	)
	flag.Parse()

	cfg := fleetsim.Config{
		Machines:        *machines,
		Gateways:        *gateways,
		Replicas:        *replicas,
		Vnodes:          *vnodes,
		Seed:            *seed,
		Profiles:        *profiles,
		HistoryDays:     *historyDays,
		Period:          *period,
		Ticks:           *ticks,
		QueriesPerTick:  *queries,
		Workers:         *workers,
		DriftLambda:     *driftLambda,
		PerturbFailRate: *perturbRate,
		PerturbProfile:  *perturbProf,
		PerturbTick:     *perturbTick,
		Ensemble:        *ensemble,
	}
	if !*quiet {
		cfg.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "fleetsim: "+format+"\n", args...)
		}
	}

	rep, err := fleetsim.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
	if *verify {
		rep2, err := fleetsim.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleetsim: verify run:", err)
			os.Exit(1)
		}
		b1, b2 := rep.DeterministicBytes(), rep2.DeterministicBytes()
		if !bytes.Equal(b1, b2) {
			fmt.Fprintln(os.Stderr, "fleetsim: FAIL: same-seed runs diverged")
			fmt.Fprintf(os.Stderr, "--- run 1 ---\n%s--- run 2 ---\n%s", b1, b2)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "fleetsim: verify OK: deterministic sections identical (%d bytes)\n", len(b1))
	}

	raw := rep.JSON()
	if *out == "-" {
		os.Stdout.Write(raw)
	} else if err := os.WriteFile(*out, raw, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
	fmt.Fprint(os.Stderr, rep.Summary())
}
