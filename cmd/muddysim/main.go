// Command muddysim simulates the muddy children puzzle of Section 2.
//
// Usage:
//
//	muddysim -n 6 -muddy 0,2,4 -mode public
//
// Modes: public (the father announces m), none (he says nothing), private
// (he tells each child separately and secretly). n is supported up to 18
// (a 262144-world model); each round reports how long the children's
// knowledge checks took (eval) versus applying the resulting public
// announcement (build), making the construction/evaluation split of the
// model checker visible from the command line. -common checks common
// knowledge of m after every round; -parallel controls the worker pool
// that fans each round's n per-child knowledge checks out over the shared
// round model (-parallel=0 forces the serial loop, <0 uses one worker per
// core). -muddy random draws the muddy set from the seeded stream of
// -seed: equal seeds reproduce the output byte for byte.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/faults"
	"repro/internal/kripke"
	"repro/internal/muddy"
)

// maxN keeps interactive runs snappy; the muddy package itself supports 20.
const maxN = 18

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "muddysim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("muddysim", flag.ContinueOnError)
	n := fs.Int("n", 5, "number of children (up to 18)")
	muddyArg := fs.String("muddy", "0,1",
		"comma-separated indices of muddy children, or 'random' for a seeded draw (-seed)")
	seed := fs.Int64("seed", 1, "seed of the -muddy random draw; equal seeds reproduce the output byte for byte")
	mode := fs.String("mode", "public", "announcement mode: public, none, private")
	rounds := fs.Int("rounds", 0, "round budget (default n+2)")
	timing := fs.Bool("time", true, "print per-round build vs eval timing")
	quotient := fs.Bool("quotient", false, "report the bisimulation quotient of the initial model")
	trackCommon := fs.Bool("common", false, "check common knowledge of m after every round")
	parallel := fs.Int("parallel", -1,
		"workers for the per-round knowledge batch: <0 = one per core, 0 = serial, n = n workers")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n > maxN {
		return fmt.Errorf("n = %d out of supported range [1, %d]", *n, maxN)
	}

	var muddySet []int
	if *muddyArg == "random" {
		// Each child is muddy with probability 1/2 off the seeded stream;
		// the puzzle needs at least one muddy child, so an empty draw
		// muddies a seeded pick instead.
		st := faults.NewStream(*seed)
		for c := 0; c < *n; c++ {
			if st.Bool(0.5) {
				muddySet = append(muddySet, c)
			}
		}
		if len(muddySet) == 0 {
			muddySet = []int{st.Intn(*n)}
		}
		fmt.Printf("seeded muddy set (seed %d): %v\n", *seed, muddySet)
	} else if *muddyArg != "" {
		for _, part := range strings.Split(*muddyArg, ",") {
			c, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad child index %q", part)
			}
			muddySet = append(muddySet, c)
		}
	}
	var m muddy.AnnouncementMode
	switch *mode {
	case "public":
		m = muddy.PublicAnnouncement
	case "none":
		m = muddy.NoAnnouncement
	case "private":
		m = muddy.PrivateAnnouncement
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	budget := *rounds
	if budget == 0 {
		budget = *n + 2
	}

	fmt.Printf("%d children; muddy: %v; mode: %s\n\n", *n, muddySet, *mode)
	if *quotient {
		// Quotient-before-eval diagnostic: unlike the point models of the
		// runs packages (where silent tails collapse), every world of the
		// muddy model has a distinct fact vector, so the model is its own
		// bisimulation quotient and evaluation proceeds on it directly —
		// the granularity observation of "Common knowledge revisited" in
		// the other direction.
		p, err := muddy.New(*n, muddySet)
		if err != nil {
			return err
		}
		qv := p.Model().QuotientForEval(1)
		if qv.Quotiented() {
			fmt.Printf("quotient-before-eval: %d worlds collapse to %d\n\n",
				qv.NumWorlds(), qv.QuotientWorlds())
		} else {
			fmt.Printf("quotient-before-eval: the %d-world model is already minimal (all fact vectors distinct); evaluating directly\n\n",
				qv.NumWorlds())
		}
	}
	res, err := muddy.SimulateOpts(*n, muddySet, m, budget,
		muddy.SimOptions{TrackCommon: *trackCommon, Parallel: kripke.WorkersFromFlag(*parallel)})
	if err != nil {
		return err
	}
	if *timing {
		fmt.Printf("model build (2^%d worlds + announcement): %v\n", *n, res.BuildTime)
	}
	for i, r := range res.Rounds {
		var yes []int
		for c, y := range r.Yes {
			if y {
				yes = append(yes, c)
			}
		}
		suffix := ""
		if *trackCommon && i < len(res.CommonM) {
			suffix = fmt.Sprintf("   [C m: %v]", res.CommonM[i])
		}
		if *timing {
			suffix += fmt.Sprintf("   [eval %v, build %v]", r.EvalTime, r.BuildTime)
		}
		if len(yes) == 0 {
			fmt.Printf("round %d: all children answer \"no\"%s\n", i+1, suffix)
		} else {
			fmt.Printf("round %d: children %v answer \"yes\"%s\n", i+1, yes, suffix)
		}
	}
	fmt.Println()
	switch {
	case res.FirstYesRound == 0:
		fmt.Printf("no child ever proves its state (k=%d, %d rounds)\n", res.K, budget)
	case res.YesAreMuddy:
		fmt.Printf("the %d muddy children prove their state in round %d, as the theory predicts\n",
			res.K, res.FirstYesRound)
	default:
		fmt.Printf("unexpected: yes-sayers in round %d are not exactly the muddy children\n", res.FirstYesRound)
	}
	return nil
}
