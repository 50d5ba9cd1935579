package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Verdicts of -compare for one (metric, workload) pair.
const (
	agree      = "agree"
	worse      = "worse"
	better     = "better"
	unresolved = "unresolved"
)

// verdict compares one end-to-end metric of a baseline a with b. A
// simulated metric is exact for a seed, so any difference decides it.
// A host metric is unresolved when either side's spread is wider than
// the bound; otherwise it is worse or better only past the bound.
func verdict(m metricDef, a, b summary) string {
	if m.sim {
		switch w := worsening(m, a.Median, b.Median); {
		case w > 0:
			return worse
		case w < 0:
			return better
		}
		return agree
	}
	if a.spread() > m.bound || b.spread() > m.bound {
		return unresolved
	}
	switch {
	case regressed(m, a.Median, b.Median):
		return worse
	case regressed(m, b.Median, a.Median):
		return better
	}
	return agree
}

// compared lists the metrics -compare judges: every end-to-end metric
// and the unbounded simulated ones.
func compared() []metricDef {
	defs := append([]metricDef(nil), endToEnd...)
	for _, d := range perLayer {
		if d.sim {
			defs = append(defs, d)
		}
	}
	return defs
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRunSet(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readRunSet(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	counts, err := compare(stdout, a, b)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "agree=%d worse=%d better=%d unresolved=%d\n",
		counts[agree], counts[worse], counts[better], counts[unresolved])
	if counts[worse] > 0 {
		return 1
	}
	return 0
}

// compare prints one row per (compared metric, workload) pair of b
// against the baseline a and counts the verdicts. Simulated metrics are
// only comparable at one seed, so the runs must share it.
func compare(w io.Writer, a, b *runSet) (map[string]int, error) {
	byName := map[string]*report{}
	for _, r := range a.Reports {
		byName[r.Workload] = r
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tchange\tbound\tverdict")
	counts := map[string]int{}
	for _, rb := range b.Reports {
		ra := byName[rb.Workload]
		if ra == nil {
			continue
		}
		if ra.Seed != rb.Seed {
			return nil, fmt.Errorf("%s: seeds differ (%d vs %d); simulated metrics compare only at one seed",
				rb.Workload, ra.Seed, rb.Seed)
		}
		for _, def := range compared() {
			ma, okA := ra.metric(def.name)
			mb, okB := rb.metric(def.name)
			if !okA || !okB {
				continue
			}
			v := verdict(def, ma.summary, mb.summary)
			counts[v]++
			change := "n/a"
			if ma.Median != 0 {
				change = fmt.Sprintf("%+.2f%%", 100*(mb.Median-ma.Median)/ma.Median)
			}
			bound := fmt.Sprintf("%.0f%%", 100*def.bound)
			if def.sim {
				bound = "exact"
			} else if def.floor > 0 {
				bound += fmt.Sprintf(", >=%g %s", def.floor, def.unit)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%s\t%s\n",
				rb.Workload, def.name, ma.Median, mb.Median, change, bound, v)
		}
		if ra.Digest != rb.Digest {
			fmt.Fprintf(tw, "%s\tdigest\t%s\t%s\t\t\tdiffers\n", rb.Workload, ra.Digest, rb.Digest)
		}
	}
	return counts, tw.Flush()
}
