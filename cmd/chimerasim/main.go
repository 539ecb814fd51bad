// Command chimerasim regenerates the tables and figures of the Chimera
// paper (ASPLOS 2015) from the simulator.
//
// Usage:
//
//	chimerasim [flags] <experiment>...
//	chimerasim [flags] all
//	chimerasim list
//
// Experiments, in the order list prints and all runs them: table1
// table2 fig2 fig3 fig6 fig7 fig8 fig9 fig10 fig11 latency allpairs
// ablation contention scaling estacc calibrated gpusize seeds shootout.
//
// Flags:
//
//	-quick          use the fast, low-fidelity scale
//	-json           emit results as JSON instead of text tables
//	-chart          render results as terminal bar charts where possible
//	-seed N         RNG seed (default 1)
//	-periodic-us N  simulated µs per periodic-task run
//	-pair-us N      simulated µs per pairwise run
//	-v              print per-experiment timing
//	-j N            run up to N simulations in parallel (0 = GOMAXPROCS)
//	-progress       live job/cache/ETA ticker on stderr
//	-trace FILE     record a fully-traced §4.1 contention scenario and
//	                write it as Chrome trace-event JSON (ui.perfetto.dev)
//	-trace-bench B  background benchmark of the traced scenario
//	-trace-us N     simulated µs of the traced scenario
//	-metrics        dump latency histograms and scheduler counters
//	-metrics-prom   dump the metrics registry in Prometheus text format
//	                (the same renderer as chimerad's /metrics endpoint)
//	-cpuprofile FILE write a CPU profile of the whole run to FILE
//	                (go tool pprof); standard output is unchanged
//
// With -trace, -metrics or -metrics-prom the experiment list may be
// empty: the command then only records the scenario and/or dumps the
// metrics registry.
//
// Every experiment is a set of independent deterministic simulations,
// so -j changes wall-clock only: the tables are byte-identical at any
// worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"chimera"
	"chimera/internal/viz"
)

func main() {
	quick := flag.Bool("quick", false, "use the fast, low-fidelity scale")
	jsonOut := flag.Bool("json", false, "emit results as JSON instead of text tables")
	chart := flag.Bool("chart", false, "render results as terminal bar charts where possible")
	seed := flag.Uint64("seed", 1, "RNG seed")
	periodicUs := flag.Float64("periodic-us", 0, "simulated µs per periodic-task run (0 = preset)")
	pairUs := flag.Float64("pair-us", 0, "simulated µs per pairwise run (0 = preset)")
	verbose := flag.Bool("v", false, "print per-experiment timing")
	workers := flag.Int("j", 0, "max simulations in parallel (0 = GOMAXPROCS)")
	progress := flag.Bool("progress", false, "report job progress on stderr")
	traceFile := flag.String("trace", "", "write a traced contention scenario as Chrome trace-event JSON to `file`")
	traceBench := flag.String("trace-bench", "SAD", "background benchmark of the traced scenario")
	traceUs := flag.Float64("trace-us", 5000, "simulated µs of the traced scenario")
	metricsOut := flag.Bool("metrics", false, "dump latency histograms and scheduler counters after the run")
	metricsProm := flag.Bool("metrics-prom", false, "dump the metrics registry in Prometheus text format (same renderer as chimerad /metrics)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	flag.Usage = usage
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 && *traceFile == "" && !*metricsOut && !*metricsProm {
		usage()
		os.Exit(2)
	}
	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chimerasim: cpuprofile: %v\n", err)
			exit(1)
		}
		defer stop()
		exit = func(code int) {
			stop()
			os.Exit(code)
		}
	}

	scale := chimera.DefaultScale()
	if *quick {
		scale = chimera.QuickScale()
	}
	scale.Seed = *seed
	if *periodicUs > 0 {
		scale.PeriodicWindow = chimera.Microseconds(*periodicUs)
	}
	if *pairUs > 0 {
		scale.PairWindow = chimera.Microseconds(*pairUs)
		scale.AllPairsWindow = chimera.Microseconds(*pairUs)
	}
	scale.Parallelism = *workers

	if *progress {
		stop := startProgress()
		defer stop()
	}

	var names []string
	for _, a := range args {
		switch a {
		case "list":
			fmt.Println(strings.Join(chimera.ExperimentNames(), "\n"))
			return
		case "all":
			names = chimera.ExperimentNames()
		default:
			names = append(names, a)
		}
	}

	var collected []*chimera.ResultTable
	for _, name := range names {
		start := time.Now()
		tables, err := chimera.RunExperiment(name, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chimerasim: %s: %v\n", name, err)
			exit(1)
		}
		switch {
		case *jsonOut:
			collected = append(collected, tables...)
		case *chart:
			for _, t := range tables {
				if out, ok := viz.TableChart(t, 40); ok {
					fmt.Println(out)
					continue
				}
				if err := t.Render(os.Stdout); err != nil {
					fmt.Fprintf(os.Stderr, "chimerasim: %s: %v\n", name, err)
					exit(1)
				}
			}
		default:
			if err := chimera.RenderTables(os.Stdout, tables); err != nil {
				fmt.Fprintf(os.Stderr, "chimerasim: %s: %v\n", name, err)
				exit(1)
			}
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "[%s took %v]\n", name, time.Since(start).Round(time.Millisecond))
		}
	}
	if *jsonOut {
		if err := chimera.RenderTablesJSON(os.Stdout, collected); err != nil {
			fmt.Fprintf(os.Stderr, "chimerasim: %v\n", err)
			exit(1)
		}
	}

	var reg *chimera.MetricsRegistry
	if *metricsOut || *metricsProm {
		reg = chimera.NewMetricsRegistry()
	}
	if *traceFile != "" {
		if err := writeTrace(*traceFile, *traceBench, *traceUs, *seed, reg); err != nil {
			fmt.Fprintf(os.Stderr, "chimerasim: trace: %v\n", err)
			exit(1)
		}
	}
	if reg != nil {
		chimera.GlobalJobStats().Publish(reg)
		if *metricsOut {
			fmt.Println("== Metrics ==")
			if err := reg.Render(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "chimerasim: metrics: %v\n", err)
				exit(1)
			}
		}
		if *metricsProm {
			if err := reg.WritePrometheus(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "chimerasim: metrics: %v\n", err)
				exit(1)
			}
		}
	}
}

// exit ends the process with code; with -cpuprofile it first completes
// the profile.
var exit = os.Exit

// startCPUProfile starts profiling into path and returns the function
// that stops profiling and closes the file.
func startCPUProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "chimerasim: cpuprofile: %v\n", err)
		}
	}, nil
}

// writeTrace records one fully-traced §4.1 contention scenario and
// writes it in the Chrome trace-event format Perfetto opens directly.
func writeTrace(path, bench string, windowUs float64, seed uint64, reg *chimera.MetricsRegistry) error {
	rec, err := chimera.RecordScenario(chimera.RecordOptions{
		Bench:   bench,
		Window:  chimera.Microseconds(windowUs),
		Seed:    seed,
		Metrics: reg,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := chimera.WritePerfettoTrace(f, rec.Events); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: %s vs RT for %gµs: %d events, %d requests, %d/%d deadlines missed -> %s (open in ui.perfetto.dev)\n",
		rec.Bench, windowUs, len(rec.Events), rec.Requests, rec.Violations, rec.Periods, path)
	return nil
}

// startProgress launches a stderr ticker reporting batch-task progress,
// cache hits and an ETA extrapolated from throughput so far. It returns
// a stop function that prints one final summary line.
func startProgress() func() {
	start := time.Now()
	line := func() string {
		st := chimera.GlobalJobStats()
		elapsed := time.Since(start)
		out := fmt.Sprintf("jobs %d/%d (running %d) | simulated %d, cache hits %d",
			st.TasksDone, st.TasksQueued, st.TasksRunning, st.JobsRun, st.CacheHits)
		if remaining := st.TasksQueued - st.TasksDone; remaining > 0 && st.TasksDone > 0 {
			eta := time.Duration(float64(elapsed) / float64(st.TasksDone) * float64(remaining))
			out += fmt.Sprintf(" | ETA %v", eta.Round(time.Second))
		}
		return out
	}
	done := make(chan struct{})
	go func() {
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				fmt.Fprintf(os.Stderr, "[progress] %s\n", line())
			}
		}
	}()
	return func() {
		close(done)
		fmt.Fprintf(os.Stderr, "[progress] %s | total %v\n", line(), time.Since(start).Round(time.Millisecond))
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `chimerasim regenerates the Chimera paper's tables and figures.

usage: chimerasim [flags] <experiment>...|all|list

experiments: %s

flags:
`, strings.Join(chimera.ExperimentNames(), " "))
	flag.PrintDefaults()
}
