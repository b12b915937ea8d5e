// Command perfbench is the repository benchmark: three workloads over the
// transactional engines, each measured end to end with tracing off, or layer
// by layer with tracing on.
//
//	perfbench --workload kv-txn --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones, with --trace 1 the per-layer ones (see spec.go, which
// also writes BENCHMARK.json with --write-spec). Lines before it, starting
// with '#', record the run's environment and the sample count behind each
// percentile. A run whose output checks fail prints correct=false and exits
// with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// commit is the source revision, stamped in at build time when known.
var commit = "unknown"

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
}

// result is one workload run's outcome.
type result struct {
	attempted, failed uint64
	checks            []string           // failed output checks; empty when correct
	e2e               map[string]float64 // end-to-end metrics (untraced run)
	layer             map[string]float64 // per-layer metrics (traced run)
	samples           map[string]uint64  // sample count behind each percentile
	p99               map[string]float64 // unbounded p99 latencies (untraced run)
	recs              []*recorder        // spans of the traced run
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]uint64{}, p99: map[string]float64{}}
}

func (r *result) checkf(ok bool, format string, args ...any) {
	if !ok {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

// ratio returns a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: kv-txn, bank-durable or serve-mixed")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", runSeconds, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	spans := flag.String("spans", "", "where the traced run writes its spans (default .bench_build/spans/<workload>.tsv)")
	spec := flag.String("write-spec", "", "write BENCHMARK.json to this path and exit")
	flag.Parse()

	if *spec != "" {
		if err := writeSpec(*spec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var wl *workloadSpec
	for i := range workloads {
		if workloads[i].Name == *workload {
			wl = &workloads[i]
		}
	}
	if wl == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	if *spans == "" {
		*spans = ".bench_build/spans/" + wl.Name + ".tsv"
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	env := map[string]any{
		"workload": wl.Name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"open_rate_per_s": openRate, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit,
	}
	printComment("env", env)

	res, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.Name, err)
		os.Exit(1)
	}
	out, err := report(res, cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.Name, err)
		os.Exit(1)
	}
	if cfg.trace {
		if err := writeSpans(*spans, res.recs); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		printComment("spans", *spans)
	}
	for _, c := range res.checks {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", c)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
}

// report builds the final JSON object, printing the human-readable lines
// that precede it. Every metric of the mode's list must be present.
func report(res *result, traced bool) (output, error) {
	list, got := endToEnd, res.e2e
	if traced {
		list, got = perLayer, res.layer
	}
	out := output{
		Correct:   len(res.checks) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, m := range list {
		v, ok := got[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s missing or not finite (%v)", m.Name, v)
		}
		out.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
		if traced {
			fmt.Printf("# %-36s %14.4f %-9s moves: %s\n", m.Name, v, m.Unit, m.Moves)
		} else {
			fmt.Printf("# %-36s %14.4f %-9s\n", m.Name, v, m.Unit)
		}
	}
	if !traced {
		printComment("samples", res.samples)
		printComment("p99", res.p99)
	}
	if res.attempted == 0 {
		return out, fmt.Errorf("no work attempted")
	}
	return out, nil
}

func printComment(tag string, v any) {
	b, _ := json.Marshal(v) // maps of strings and numbers always encode
	fmt.Printf("# %s %s\n", tag, b)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}
