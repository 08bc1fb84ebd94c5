// Command scenariosim sweeps the fault regimes of Halpern & Moses
// dynamically: every regime is a seeded fault plan (delay distribution,
// drops, duplication, crash windows, clock drift) driving the virtual-clock
// simulation engine, and the resulting run systems are model-checked for
// which knowledge variant — C, ε-common, eventual-common, timestamped
// common — the broadcast fact attains at the witness action point. The
// printed matrix reproduces the paper's separations from injected faults
// alone; the whole sweep is byte-identical for equal -seed across
// repetitions and across -parallel worker counts.
//
// -ladder additionally replays the delivery announcement chain on one
// regime's epistemic structure ("at least d messages were delivered"),
// showing the knowledge the public announcements create that the faulty
// channel itself cannot.
//
// Usage:
//
//	scenariosim -seed 1 -agents 4 -runs 12 -parallel -1
//	scenariosim -seed 1 -delay-dist uniform:1-3 -drop 0.5 -ladder bounded
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/faults"
	"repro/internal/kripke"
	"repro/internal/runs"
	"repro/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "scenariosim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("scenariosim", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "sweep seed; equal seeds reproduce the matrix byte for byte")
	agents := fs.Int("agents", 4, "processors, including the broadcaster")
	samples := fs.Int("runs", 12, "sampled runs per initial configuration")
	eps := fs.Int("eps", 2, "ε of the C^eps column (ticks)")
	tstamp := fs.Int("T", 3, "timestamp of the C^T column (clock time)")
	drift := fs.Int("drift", 3, "clock-drift bound of the drift-beyond regime")
	drop := fs.Float64("drop", 0.4, "loss probability of the lossy regime")
	crash := fs.Float64("crash", 0.5, "crash probability of the crash regime")
	dup := fs.Float64("dup", 0.4, "duplication probability of the dup regime")
	delayDist := fs.String("delay-dist", "uniform:1-2",
		"delay distribution of the bounded regime (fixed:D | uniform:MIN-MAX | unbounded:SPAN)")
	horizon := fs.Int("horizon", 14, "observation horizon (ticks)")
	parallel := fs.Int("parallel", -1,
		"evaluation workers per regime (0 forces the serial loop, <0 uses one worker per core)")
	ladder := fs.String("ladder", "",
		"replay the delivery announcement chain on this regime (e.g. bounded); empty skips")
	recovery := fs.Bool("recovery", false,
		"model-check post-recovery knowledge around every sampled crash window of the crash regime")
	if err := fs.Parse(args); err != nil {
		return err
	}

	delay, err := faults.ParseDelayDist(*delayDist)
	if err != nil {
		return err
	}
	// WorkersFromFlag maps the shared -parallel convention onto EvalBatch
	// worker counts; Params treats 0 as "default" so per-core stays -1.
	workers := kripke.WorkersFromFlag(*parallel)
	if workers == 0 {
		workers = -1
	}
	p := scenario.Params{
		Seed:    *seed,
		Agents:  *agents,
		Samples: *samples,
		Eps:     *eps,
		T:       *tstamp,
		Drift:   *drift,
		Drop:    *drop,
		CrashP:  *crash,
		DupP:    *dup,
		Delay:   delay,
		Horizon: runs.Time(*horizon),
		Workers: workers,
	}
	// Validate the ladder key before the sweep runs, so a typo fails
	// immediately instead of after the full matrix prints.
	if *ladder != "" {
		if _, err := scenario.RegimeByKey(p, *ladder); err != nil {
			return err
		}
	}

	res, err := scenario.Sweep(p)
	if err != nil {
		return err
	}
	fmt.Print(res.Matrix())
	fmt.Println()
	fmt.Println("regimes:")
	for _, rg := range scenario.Regimes(p) {
		fmt.Printf("  %-14s %s\n", rg.Key, rg.Desc)
	}

	if *ladder != "" {
		if err := replayLadder(p, *ladder); err != nil {
			return err
		}
	}
	if *recovery {
		if err := printRecovery(p); err != nil {
			return err
		}
	}
	return nil
}

// printRecovery prints the post-recovery knowledge checks of the crash
// regime: one row per sampled crash window whose recovery point lies
// inside the horizon.
func printRecovery(p scenario.Params) error {
	checks, err := scenario.PostRecoveryChecks(p)
	if err != nil {
		return err
	}
	fmt.Printf("\npost-recovery knowledge (crash regime, %d windows):\n", len(checks))
	fmt.Printf("%-16s %-5s %-9s %-6s %-9s %-7s %-9s\n",
		"run", "proc", "window", "knew", "recovers", "onset", "relearned")
	for _, c := range checks {
		onset := "never"
		if c.Onset >= 0 {
			onset = fmt.Sprintf("%d", c.Onset)
		}
		fmt.Printf("%-16s %-5d [%2d,%2d]   %-6v %-9v %-7s %-9v\n",
			c.Run, c.Proc, c.Start, c.End, c.KnewAtCrash, c.KnowsOnRecovery, onset, c.Relearned)
	}
	return nil
}

// replayLadder rebuilds one regime and prints its delivery announcement
// chain, one row per announced lower bound.
func replayLadder(p scenario.Params, key string) error {
	rg, err := scenario.RegimeByKey(p, key)
	if err != nil {
		return err
	}
	b, err := scenario.Build(p, rg)
	if err != nil {
		return err
	}
	steps, err := b.Ladder(p)
	if err != nil {
		return err
	}
	fmt.Printf("\nannouncement ladder (regime %s, witness %s, t*=%d):\n",
		rg.Key, b.Witness.Name, b.TStar)
	fmt.Printf("%-14s %-10s %-10s %-8s\n", "announcement", "points", "E-depth", "C sent")
	for _, st := range steps {
		fmt.Printf("del >= %-7d %-10d %-10d %-8v\n", st.Deliveries, st.Points, st.EDepth, st.Common)
	}
	return nil
}
