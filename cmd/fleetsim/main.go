// Command fleetsim runs the in-process fleet-scale simulation of DESIGN.md
// §13: a federated ring of gateways serving up to 100k simulated machines
// over an in-memory network and a virtual clock, through the full
// lifecycle. It writes a JSON report whose "sim" section is deterministic
// (-verify checks it) and whose "perf" section cmd/benchgate gates:
//
//	fleetsim -machines 100000 -out .bench_build/fleet.json
//	fleetsim -machines 1000 -verify
//
// The report goes to -out; a human-readable summary always goes to stderr.
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
	var cfg fleetsim.Config
	var o output
	registerFlags(flag.CommandLine, &cfg, &o)
	flag.Parse()
	if !o.quiet {
		cfg.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "fleetsim: "+format+"\n", args...)
		}
	}

	rep, err := fleetsim.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
	if o.verify {
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
	if o.out == "-" {
		os.Stdout.Write(raw)
	} else if err := os.WriteFile(o.out, raw, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
	fmt.Fprint(os.Stderr, rep.Summary())
}

// output holds the flags that shape what a run prints, not what it runs.
type output struct {
	out           string
	verify, quiet bool
}

// registerFlags registers every fleetsim flag on fs, into cfg and o. The
// usage strings are the operator reference: README's fleetsim table is
// generated from them (TestFlagTable).
func registerFlags(fs *flag.FlagSet, cfg *fleetsim.Config, o *output) {
	fs.IntVar(&cfg.Machines, "machines", 100_000, "Fleet size, including the join-storm holdbacks.")
	fs.IntVar(&cfg.Gateways, "gateways", 8, "Federation peers forming the ring.")
	fs.IntVar(&cfg.Replicas, "replicas", 2, "Registry replication factor K.")
	fs.IntVar(&cfg.Vnodes, "vnodes", 64, "Virtual nodes per peer on the consistent-hash ring.")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "Seed for every random choice in the run.")
	fs.IntVar(&cfg.Profiles, "profiles", 64, "Shared machine behavior classes (capped at -machines).")
	fs.IntVar(&cfg.HistoryDays, "history-days", 3, "Preloaded per-profile history days.")
	fs.DurationVar(&cfg.Period, "period", 5*time.Minute, "Monitoring sample period; the clock advances one period per tick.")
	fs.IntVar(&cfg.Ticks, "ticks", 24, "Traffic ticks; the default crosses midnight from the 23:00 start.")
	fs.IntVar(&cfg.QueriesPerTick, "queries-per-tick", 0, "Fleet-wide TR queries per tick (0 = max(200, machines/50)).")
	fs.IntVar(&cfg.Workers, "workers", 0, "Traffic parallelism (0 = GOMAXPROCS); part of the deterministic configuration.")
	fs.Float64Var(&cfg.PerturbFailRate, "perturb-rate", 0, "Arm the drift scenario: per-slot outage probability injected into one behavior class mid-run (0 = off).")
	fs.IntVar(&cfg.PerturbProfile, "perturb-profile", 0, "Behavior class the perturbation hits.")
	fs.IntVar(&cfg.PerturbTick, "perturb-tick", 0, "First perturbed tick (0 = -ticks/2).")
	fs.Float64Var(&cfg.DriftLambda, "drift-lambda", 0, "Page–Hinkley alarm threshold for the accuracy-drift watchers (0 = default).")
	fs.StringVar(&o.out, "out", "-", "Write the full JSON report here (- = stdout).")
	fs.BoolVar(&o.verify, "verify", false, "Run twice and fail unless the deterministic sections are byte-identical.")
	fs.BoolVar(&o.quiet, "q", false, "Suppress phase progress on stderr.")
}
