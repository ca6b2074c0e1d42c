// Command dtrank is the command-line front end of the data-transposition
// reproduction. It generates the synthetic SPEC CPU2006 database, ranks
// machines for an application of interest, and reproduces every table and
// figure of the paper's evaluation.
//
// Usage:
//
//	dtrank gen    [-seed N] [-o file.csv]         write the database as CSV
//	dtrank rank   [-seed N] [-app B] [-family F] [-method M] [-data file.csv] [-json]
//	                                              rank one family's machines
//	dtrank compare [-seed N] [-app B] [-family F] every registered method, side by side
//	dtrank summary [-seed N] [-family F]          SPEC-style geometric means
//	dtrank table2 [-seed N] [-fast]               Table 2 + Figures 6 and 7
//	dtrank table3 [-seed N] [-fast]               Table 3
//	dtrank table4 [-seed N] [-fast] [-draws D]    Table 4
//	dtrank fig8   [-seed N] [-fast] [-draws D] [-maxk K]
//	dtrank ablate [-seed N] [-fast]               ablation studies
//	dtrank all    [-seed N] [-fast] [-draws D]    everything, in paper order
//	dtrank run    [-spec id,..|all] [-cache dir|url] [-worker url]
//	                                              declarative spec pipeline,
//	                                              incremental via the result store;
//	                                              -worker leases unit batches from a
//	                                              dtrankd -coordinate daemon into
//	                                              its shared store
//	dtrank cache  <ls|verify|prune> -cache dir    result-store lifecycle
//	dtrank loadtest [-url http://host:8117] [-duration 3s] [-workers 8]
//	                [-qps Q] [-methods M,..] [-apps A,..] [-reports S,..]
//	                [-slo-p99 D]
//	                                              SLO-gated load generator for a
//	                                              live dtrankd; emits p50/p95/p99
//	                                              and QPS as benchmark-shaped
//	                                              lines for benchstatjson
//	dtrank methods [-json]                        the method registry
//
// Every experiment command accepts -workers N to bound the engine worker
// pool (default: all cores). Output is byte-identical for every worker
// count, and — for 'run' — for cold versus warm result stores.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/method"
	"repro/internal/serve"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "gen":
		err = runGen(args)
	case "rank":
		err = runRank(args)
	case "table2":
		err = runExperiment(args, func(cfg experiments.Config) error {
			fr, err := experiments.RunFamilyCV(cfg)
			if err != nil {
				return err
			}
			t2, err := fr.Table2()
			if err != nil {
				return err
			}
			fmt.Println(t2.Render())
			f6, err := fr.Figure6()
			if err != nil {
				return err
			}
			fmt.Println(f6.Render())
			f7, err := fr.Figure7()
			if err != nil {
				return err
			}
			fmt.Println(f7.Render())
			return nil
		})
	case "table3":
		err = runExperiment(args, func(cfg experiments.Config) error {
			t3, err := experiments.RunTable3(cfg)
			if err != nil {
				return err
			}
			fmt.Println(t3.Render())
			return nil
		})
	case "table4":
		err = runExperiment(args, func(cfg experiments.Config) error {
			t4, err := experiments.RunTable4(cfg)
			if err != nil {
				return err
			}
			fmt.Println(t4.Render())
			return nil
		})
	case "fig8":
		err = runExperiment(args, func(cfg experiments.Config) error {
			f8, err := experiments.RunFigure8(cfg)
			if err != nil {
				return err
			}
			fmt.Println(f8.Render())
			return nil
		})
	case "summary":
		err = runSummary(args)
	case "compare":
		err = runCompare(args)
	case "ablate":
		err = runAblate(args)
	case "methods":
		err = runMethods(args)
	case "run":
		err = runRun(args)
	case "loadtest":
		err = runLoadtest(args)
	case "cache":
		err = runCache(args)
	case "all":
		err = runExperiment(args, func(cfg experiments.Config) error {
			return experiments.RunAll(cfg, os.Stdout)
		})
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "dtrank: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dtrank %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `dtrank — rank commercial machines through data transposition

commands:
  gen     write the synthetic SPEC CPU2006 database as CSV
  rank    rank the machines of one processor family for an application
  compare evaluate every registered predictor on one application, side by side
  summary print SPEC-style geometric-mean scores per machine
  table2  reproduce Table 2 and Figures 6-7 (family cross-validation)
  table3  reproduce Table 3 (predicting 2009 machines from older ones)
  table4  reproduce Table 4 (limited predictive sets)
  fig8    reproduce Figure 8 (k-medoids vs random machine selection)
  ablate  run the reproduction's ablation studies
  all     reproduce every table and figure
  run     run experiment specs (-spec id,..|all), incremental with -cache;
          -worker url joins a dtrankd -coordinate daemon as a work-stealing
          worker, leasing unit batches into its shared store (a directory
          or a dtrankd -cache URL) for distributed runs
  cache   result-store lifecycle: ls, verify, prune (-keep N / -max-age d /
          -max-bytes B)
  loadtest drive a live dtrankd (-url) with closed-loop workers and a
          configurable method/app mix, plus -reports spec ids mixed in as
          GET /v1/reports/{spec}; prints p50/p95/p99 and achieved QPS as
          benchmark-shaped lines for benchstatjson, and gates on
          -slo-p99 / -min-cache-hits for CI smoke runs
  methods list the prediction-method registry (names, aliases, capabilities)

run 'dtrank <command> -h' for command flags`)
}

func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "dataset seed")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	data, err := repro.Generate(repro.DefaultDatasetOptions(*seed))
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return data.Matrix.WriteCSV(w)
}

func runRank(args []string) error {
	fs := flag.NewFlagSet("rank", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "dataset seed")
	app := fs.String("app", "libquantum", "benchmark playing the application of interest")
	family := fs.String("family", "Intel Xeon", "target processor family")
	methodName := fs.String("method", method.MLPT, "predictor: "+strings.Join(method.Names(), ", "))
	top := fs.Int("top", 10, "number of machines to print")
	asJSON := fs.Bool("json", false, "emit the ranking as JSON, byte-identical to dtrankd's POST /v1/rank response")
	dataFile := fs.String("data", "", "load the performance database from a CSV file (as written by 'dtrank gen') instead of synthesising it; GA-kNN is unavailable in this mode because external files carry no workload characteristics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var matrix *repro.Matrix
	var chars map[string][]float64
	if *dataFile != "" {
		f, err := os.Open(*dataFile)
		if err != nil {
			return err
		}
		defer f.Close()
		matrix, err = dataset.ReadCSV(f)
		if err != nil {
			return err
		}
	} else {
		data, err := repro.Generate(repro.DefaultDatasetOptions(*seed))
		if err != nil {
			return err
		}
		matrix = data.Matrix
		chars = data.Characteristics
	}
	targets, predictive, err := matrix.FamilySplit(*family)
	if err != nil {
		return err
	}
	// The predictor construction (and its seed derivation) is shared with
	// the dtrankd serving layer, so the CLI and the server cannot drift.
	p, canon, err := serve.NewPredictor(*methodName, *seed)
	if err != nil {
		return err
	}
	fold, appOnTgt, err := repro.NewFold(predictive, targets, *app, chars)
	if err != nil {
		return err
	}
	ranked, err := repro.RankFold(fold, p)
	if err != nil {
		return err
	}
	actual := map[string]float64{}
	for i, m := range fold.Tgt.Machines {
		actual[m.ID] = appOnTgt[i]
	}
	predicted := make([]float64, len(appOnTgt))
	for i, m := range fold.Tgt.Machines {
		for _, r := range ranked {
			if r.Machine.ID == m.ID {
				predicted[i] = r.Predicted
			}
		}
	}
	if *asJSON {
		resp, err := serve.BuildRankResponse(*family, *app, canon, matrix.Hash(),
			fold.Tgt.Machines, predicted, appOnTgt, *top)
		if err != nil {
			return err
		}
		return serve.WriteRankResponse(os.Stdout, resp)
	}
	m, err := repro.Evaluate(appOnTgt, predicted)
	if err != nil {
		return err
	}
	fmt.Printf("ranking %q machines for application %q with %s\n", *family, *app, p.Name())
	fmt.Printf("rank correlation %.3f, top-1 deficiency %.1f%%, mean error %.1f%%\n\n", m.RankCorr, m.Top1Err, m.MeanErr)
	fmt.Printf("%-4s %-34s %10s %10s\n", "#", "machine", "predicted", "measured")
	for i, r := range ranked {
		if i >= *top {
			break
		}
		fmt.Printf("%-4d %-34s %10.1f %10.1f\n", i+1, r.Machine.ID, r.Predicted, actual[r.Machine.ID])
	}
	return nil
}

// experimentFlags registers the flags shared by every experiment command
// on fs and returns a builder that assembles the Config after parsing —
// the one place the CLI's experiment configuration is defined, whether
// the command is a dedicated runner or the spec pipeline.
func experimentFlags(fs *flag.FlagSet) func() experiments.Config {
	seed := fs.Int64("seed", 1, "dataset and model seed")
	fast := fs.Bool("fast", false, "reduced model budgets (quick smoke run)")
	draws := fs.Int("draws", 0, "random draws for Table 4 / Figure 8 (0 = default)")
	maxk := fs.Int("maxk", 0, "largest predictive-set size in Figure 8 (0 = default)")
	workers := fs.Int("workers", 0, "worker pool size for the experiment fan-out (0 = all cores)")
	return func() experiments.Config {
		cfg := experiments.DefaultConfig(*seed)
		cfg.Fast = *fast
		if *draws > 0 {
			cfg.RandomDraws = *draws
		}
		if *maxk > 0 {
			cfg.MaxK = *maxk
		}
		if *workers > 0 {
			// Bound both the experiment fan-out and the process-wide budget
			// that the inner layers (GA fitness, matrix kernels) draw from.
			cfg.Workers = *workers
			repro.SetWorkers(*workers)
		}
		return cfg
	}
}

func runExperiment(args []string, run func(experiments.Config) error) error {
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	build := experimentFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return run(build())
}
