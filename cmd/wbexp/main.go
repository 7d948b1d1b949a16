// Command wbexp regenerates the paper's tables and figures.
//
// Usage:
//
//	wbexp -list
//	wbexp -exp fig3            # one experiment
//	wbexp -exp fig6 -plot      # with a stacked-bar rendition
//	wbexp -all -n 2000000      # everything, 2M instructions per run
//
// Sweeps can run on a pool of remote workers and/or keep their results in
// a shared store, which also makes them resumable (see
// docs/DISTRIBUTED.md):
//
//	wbexp -exp fig5 -workers host1:8101,host2:8101   # shard across wbserve -worker processes
//	wbexp -all -store /var/lib/wb/results            # kill it, rerun it, it resumes; shared with wbserve/wbopt
//	wbexp -all -workers host1:8101 -verify 0.05      # spot-check 5% of remote results locally
//
// Beyond the registered paper items, -config sweeps caller-supplied
// machines: each entry — a machconf JSON file (wbsim -dump-config writes
// one; -dump-config here prints the baseline) or a machconf key=value
// spec (machconf.ParseSpec's vocabulary, including the backend keys
// backend=, banks=, rowhit=, rowmiss=, fencecost=) — becomes one
// configuration column.  Entries are comma-separated; use semicolons
// when a spec itself needs commas:
//
//	wbexp -dump-config > base.json       # edit copies of this
//	wbexp -config base.json,deep.json
//	wbexp -config 'base.json;depth=8,banks=8,rowmiss=18'
//
// Each figure experiment prints one row per benchmark with the total
// write-buffer stall percentage and its (L2-read-access / buffer-full /
// load-hazard) split, one column per configuration — the textual analogue
// of the paper's stacked-bar charts.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/machconf"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/svgplot"
	"repro/internal/textplot"
)

func main() {
	var (
		expID      = flag.String("exp", "", "experiment id (fig3..fig13, table4..table7, abl-*)")
		all        = flag.Bool("all", false, "run every experiment")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		n          = flag.Uint64("n", 1_000_000, "dynamic instructions per benchmark run")
		plot       = flag.Bool("plot", false, "also render figure experiments as stacked bars")
		svg        = flag.String("svg", "", "directory to write one SVG figure per configuration column")
		quiet      = flag.Bool("quiet", false, "suppress the live progress line on stderr")
		workersCSV = flag.String("workers", "", "comma-separated wbserve -worker addresses to dispatch sweep jobs to")
		storeDir   = flag.String("store", "", "shared content-addressed result-store directory (same as wbserve/wbopt -store); jobs any process already paid for are never re-simulated, so a killed sweep resumes when rerun")
		verify     = flag.Float64("verify", 0, "fraction (0..1] of remote jobs to re-execute locally; any divergence aborts the sweep")
		configCSV  = flag.String("config", "", "comma-separated machconf JSON files; sweeps them as one custom experiment")
		dumpConfig = flag.Bool("dump-config", false, "print the baseline machine's canonical machconf JSON and exit")
	)
	flag.Parse()
	if *svg != "" {
		if err := os.MkdirAll(*svg, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "wbexp: %v\n", err)
			os.Exit(1)
		}
	}

	backend, closeBackend, err := dispatch.BuildBackendOpts(dispatch.BuildOptions{
		Workers:        *workersCSV,
		Store:          *storeDir,
		VerifyFraction: *verify,
		Logf:           func(format string, args ...any) { fmt.Fprintf(os.Stderr, "wbexp: "+format+"\n", args...) },
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "wbexp: %v\n", err)
		os.Exit(1)
	}
	defer closeBackend()

	switch {
	case *list:
		for _, e := range experiment.All() {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
		}
	case *dumpConfig:
		blob, err := machconf.Encode(sim.Baseline())
		if err != nil {
			fmt.Fprintf(os.Stderr, "wbexp: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(blob))
	case *configCSV != "":
		specs, err := loadSpecs(*configCSV)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wbexp: %v\n", err)
			os.Exit(1)
		}
		e := experiment.CustomSweep(specs)
		runOne(e, *n, *plot, *svg, backend, progressFor(*quiet, e.ID))
	case *all:
		all := experiment.All()
		for i, e := range all {
			runOne(e, *n, *plot, *svg, backend, progressFor(*quiet, fmt.Sprintf("[%2d/%2d] %-8s", i+1, len(all), e.ID)))
		}
	case *expID != "":
		e, ok := experiment.ByID(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "wbexp: unknown experiment %q (try -list)\n", *expID)
			os.Exit(1)
		}
		runOne(e, *n, *plot, *svg, backend, progressFor(*quiet, e.ID))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// loadSpecs turns each -config entry into a configuration column through
// machconf.ParseSpec, so a bad entry fails before any simulation starts.
// An entry is either a machconf JSON file path or a key=value spec
// (detected by '=' or a leading '@'); entries are comma-separated unless
// the string contains a semicolon, which then separates entries so a
// spec may itself use commas.  A file's column label is its base name, a
// spec's the spec itself; the canonical hash disambiguates collisions.
func loadSpecs(csv string) ([]experiment.ConfigSpec, error) {
	sep := ","
	if strings.Contains(csv, ";") {
		sep = ";"
	}
	var specs []experiment.ConfigSpec
	for _, entry := range strings.Split(csv, sep) {
		label := entry
		spec := entry
		if !strings.Contains(entry, "=") && !strings.HasPrefix(entry, "@") {
			spec = "@" + entry
			label = strings.TrimSuffix(filepath.Base(entry), filepath.Ext(entry))
		}
		cfg, err := machconf.ParseSpec(spec)
		if err != nil {
			return nil, err
		}
		specs = append(specs, experiment.ConfigSpec{Label: label, Cfg: cfg})
	}
	return specs, nil
}

// progressFor builds the per-experiment live progress callback, or nil
// under -quiet.  The line goes to stderr so report output stays pipeable.
func progressFor(quiet bool, name string) func(experiment.ProgressEvent) {
	if quiet {
		return nil
	}
	return experiment.ProgressReporter(os.Stderr, name)
}

func runOne(e experiment.Experiment, n uint64, plot bool, svgDir string, backend dispatch.Backend, progress func(experiment.ProgressEvent)) {
	rep, err := e.Run(context.Background(), experiment.Options{Instructions: n, Progress: progress, Backend: backend})
	if err != nil {
		fmt.Fprintf(os.Stderr, "wbexp: %s: %v\n", e.ID, err)
		os.Exit(1)
	}
	if _, err := rep.WriteTo(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "wbexp: %v\n", err)
		os.Exit(1)
	}
	fmt.Println()
	figureLike := strings.HasPrefix(e.ID, "fig") || e.ID == "summary"
	if plot && figureLike {
		renderPlot(rep)
	}
	if svgDir != "" && figureLike {
		if err := writeSVGs(rep, svgDir); err != nil {
			fmt.Fprintf(os.Stderr, "wbexp: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeSVGs renders one SVG per configuration column of a figure report.
func writeSVGs(rep *experiment.Report, dir string) error {
	for col := 1; col < len(rep.Columns); col++ {
		chart := &svgplot.Chart{
			Title:  fmt.Sprintf("%s [%s]", rep.ID, rep.Columns[col]),
			XLabel: "stall cycles, % of total time",
		}
		for _, row := range rep.Rows {
			r, f, l, ok := parseCell(row[col])
			if !ok {
				continue
			}
			chart.Bars = append(chart.Bars, svgplot.Bar{
				Label: row[0],
				Segments: []svgplot.Segment{
					{Value: r, Label: stats.L2ReadAccess.String(), Color: "#2b2b2b"},
					{Value: f, Label: stats.BufferFull.String(), Color: "#9b9b9b"},
					{Value: l, Label: stats.LoadHazard.String(), Color: "#e3e3e3"},
				},
			})
		}
		if len(chart.Bars) == 0 {
			continue
		}
		name := fmt.Sprintf("%s-%s.svg", rep.ID, sanitize(rep.Columns[col]))
		fh, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := chart.Render(fh); err != nil {
			fh.Close()
			return err
		}
		if err := fh.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", filepath.Join(dir, name))
	}
	return nil
}

// sanitize maps a configuration label to a safe file-name fragment.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}

// renderPlot turns the last configuration column of a figure report into a
// stacked-bar chart.  Cells look like "5.32 (0.41/4.02/0.89)".
func renderPlot(rep *experiment.Report) {
	for col := 1; col < len(rep.Columns); col++ {
		chart := &textplot.Chart{
			Title:  fmt.Sprintf("%s [%s]", rep.ID, rep.Columns[col]),
			Legend: "R=" + stats.L2ReadAccess.String() + " F=" + stats.BufferFull.String() + " L=" + stats.LoadHazard.String(),
		}
		for _, row := range rep.Rows {
			r, f, l, ok := parseCell(row[col])
			if !ok {
				continue
			}
			chart.Bars = append(chart.Bars, textplot.Bar{
				Label: row[0],
				Segments: []textplot.Segment{
					{Value: r, Glyph: 'R'},
					{Value: f, Glyph: 'F'},
					{Value: l, Glyph: 'L'},
				},
			})
		}
		if len(chart.Bars) > 0 {
			if err := chart.Render(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "wbexp: %v\n", err)
				os.Exit(1)
			}
			fmt.Println()
		}
	}
}

func parseCell(cell string) (r, f, l float64, ok bool) {
	open := strings.IndexByte(cell, '(')
	closing := strings.IndexByte(cell, ')')
	if open < 0 || closing < open {
		return 0, 0, 0, false
	}
	parts := strings.Split(cell[open+1:closing], "/")
	if len(parts) != 3 {
		return 0, 0, 0, false
	}
	vals := make([]float64, 3)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return 0, 0, 0, false
		}
		vals[i] = v
	}
	return vals[0], vals[1], vals[2], true
}
