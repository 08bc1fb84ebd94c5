package loadgen

import (
	"fmt"
	"io"
)

// reportKinds is the fixed row order of the latency table.
var reportKinds = []OpKind{OpOpen, OpEval, OpAnnounce, OpClose}

// WriteReport renders a fleet run as LOAD_REPORT.md: the run's identity
// (seed, fleet shape, mix — everything needed to replay it), the op
// outcome counts, and the per-op-type latency table. Quantiles are
// log-bucket upper bounds (see hist.Hist), so they read "p99 at most".
func WriteReport(w io.Writer, sc *Schedule, res *Result) error {
	cfg := sc.Cfg
	fmt.Fprintf(w, "# knowload report\n\n")
	fmt.Fprintf(w, "Replay this run: `knowload -seed %d -workers %d -sessions %d -mix %s`\n\n",
		cfg.Seed, cfg.Workers, cfg.Sessions, cfg.Mix)
	fmt.Fprintf(w, "- seed: %d\n- workers: %d\n- sessions per worker: %d\n- mix: %s\n",
		cfg.Seed, cfg.Workers, cfg.Sessions, cfg.Mix)
	fmt.Fprintf(w, "- ops: %d scheduled, %d failed\n", sc.NumOps(), res.Errors)
	fmt.Fprintf(w, "- elapsed: %v\n\n", res.Elapsed)

	fmt.Fprintf(w, "## Latency by op type\n\n")
	fmt.Fprintf(w, "Histograms are log-bucketed at power-of-two microsecond boundaries;\n")
	fmt.Fprintf(w, "quantiles are bucket upper bounds (never under-reported) and merge\n")
	fmt.Fprintf(w, "across workers by bucket addition.\n\n")
	fmt.Fprintf(w, "| op | count | p50 | p90 | p99 | max |\n")
	fmt.Fprintf(w, "|----|------:|----:|----:|----:|----:|\n")
	for _, kind := range reportKinds {
		h := res.Hists[kind]
		if h == nil || h.Count() == 0 {
			continue
		}
		fmt.Fprintf(w, "| %s | %d | %v | %v | %v | %v |\n",
			kind, h.Count(), h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99), h.Max())
	}

	fmt.Fprintf(w, "\n## Final chain links\n\n")
	links := sc.FinalLinks()
	fmt.Fprintf(w, "%d sessions left open by the schedule:\n\n", len(links))
	for _, id := range sortedIDs(links) {
		fmt.Fprintf(w, "- %s at link %d\n", id, links[id])
	}
	if res.Errors > 0 {
		fmt.Fprintf(w, "\n## Failed ops\n\n")
		for _, rec := range res.Records {
			if rec.Err != "" {
				fmt.Fprintf(w, "- `%s`: %s\n", rec.Line, rec.Err)
			}
		}
	}
	return nil
}
