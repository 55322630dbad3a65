package cli

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/synth"
)

// Tables implements cmd/tables: regenerate the paper's evaluation
// tables.
func Tables(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("tables", stderr)
	var (
		np       = fs.Int("np", experiments.DefaultParams().NP, "N_P: path enumeration fault budget")
		np0      = fs.Int("np0", experiments.DefaultParams().NP0, "N_P0: minimum size of the first target set")
		seed     = fs.Int64("seed", 1, "randomization seed")
		table    = fs.String("table", "all", "table to print: all, 1, 2, 3, 4, 5, 6, 7")
		circuits = fs.String("circuits", "", "comma-separated circuit list (default: the paper's)")
		format   = fs.String("format", "text", "output format: text or csv (csv covers tables 3-7)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "text" && *format != "csv" {
		return fmt.Errorf("unknown format %q (want text or csv)", *format)
	}
	p := experiments.Params{NP: *np, NP0: *np0, Seed: *seed}
	return runTables(p, *table, *circuits, *format, stdout, stderr)
}

func runTables(p experiments.Params, table, circuitList, format string, stdout, stderr io.Writer) error {
	// Progress goes to stderr as structured records; the tables stay
	// alone on stdout for piping.
	log := obs.NewLogger(stderr, "text", "info")
	basicNames := synth.PaperOrder
	enrichNames := synth.PaperOrderEnrichment
	if circuitList != "" {
		names := strings.Split(circuitList, ",")
		basicNames, enrichNames = names, names
	}

	switch table {
	case "1":
		r, err := experiments.Table1()
		if err != nil {
			return err
		}
		experiments.RenderTable1(stdout, r)
		return nil
	case "2":
		name := "s1423"
		if circuitList != "" {
			name = basicNames[0]
		}
		prof, err := experiments.Table2(name, p, 20)
		if err != nil {
			return err
		}
		experiments.RenderTable2(stdout, name, prof)
		return nil
	}

	needBasic := table == "all" || table == "3" || table == "4" || table == "5"
	needEnrich := table == "all" || table == "6" || table == "7"

	prepared := map[string]*experiments.CircuitData{}
	prepare := func(name string) (*experiments.CircuitData, error) {
		if d, ok := prepared[name]; ok {
			return d, nil
		}
		log.Info("preparing circuit", "circuit", name)
		d, err := experiments.Prepare(name, p)
		if err == nil {
			prepared[name] = d
		}
		return d, err
	}

	var basic []*experiments.BasicRow
	if needBasic {
		for _, name := range basicNames {
			d, err := prepare(name)
			if err != nil {
				log.Warn("skipping circuit", "circuit", name, "err", err)
				continue
			}
			log.Info("running basic procedures", "circuit", name, "p0", len(d.P0), "p1", len(d.P1))
			row, err := experiments.BasicTable(d, p)
			if err != nil {
				return err
			}
			basic = append(basic, row)
		}
	}
	var enrich []*experiments.EnrichRow
	if needEnrich {
		for _, name := range enrichNames {
			d, err := prepare(name)
			if err != nil {
				log.Warn("skipping circuit", "circuit", name, "err", err)
				continue
			}
			log.Info("running enrichment", "circuit", name)
			enrich = append(enrich, experiments.EnrichTable(d, p))
		}
	}

	if format == "csv" {
		if needBasic {
			if err := experiments.WriteBasicCSV(stdout, basic); err != nil {
				return err
			}
		}
		if needEnrich {
			if err := experiments.WriteEnrichCSV(stdout, enrich); err != nil {
				return err
			}
		}
		return nil
	}

	switch table {
	case "3":
		experiments.RenderTable3(stdout, basic)
	case "4":
		experiments.RenderTable4(stdout, basic)
	case "5":
		experiments.RenderTable5(stdout, basic)
	case "6":
		experiments.RenderTable6(stdout, enrich)
	case "7":
		experiments.RenderTable7(stdout, enrich)
	case "all":
		if r, err := experiments.Table1(); err == nil {
			experiments.RenderTable1(stdout, r)
			fmt.Fprintln(stdout)
		}
		if prof, err := experiments.Table2("s1423", p, 20); err == nil {
			experiments.RenderTable2(stdout, "s1423 (stand-in)", prof)
			fmt.Fprintln(stdout)
		}
		experiments.RenderTable3(stdout, basic)
		fmt.Fprintln(stdout)
		experiments.RenderTable4(stdout, basic)
		fmt.Fprintln(stdout)
		experiments.RenderTable5(stdout, basic)
		fmt.Fprintln(stdout)
		experiments.RenderTable6(stdout, enrich)
		fmt.Fprintln(stdout)
		experiments.RenderTable7(stdout, enrich)
	default:
		return fmt.Errorf("unknown table %q", table)
	}
	return nil
}
