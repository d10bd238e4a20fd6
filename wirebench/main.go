// Command wirebench replays simulated OpenStack packets through GRETEL's
// shipped pipeline — tap parser, framed TCP transport, analyzer with
// detection and RCA, and the write-ahead log — and reports end-to-end
// and per-layer costs. See README.md.
//
//	wirebench --workload steady-wal --seed 1 --seconds 24 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it print the
// same metrics for people. Run it from the repository root: scratch
// files go under .bench_build/wirebench.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	name := flag.String("workload", "steady-wal", "steady-wal, fault-dense or wal-recovery")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 24, "measured seconds: sizes the recording so the two paced passes at 50 Kpps take seconds/2")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 4 || *traced < 0 || *traced > 1 {
		fmt.Fprintf(os.Stderr, "wirebench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "wirebench: run from the repository root")
		os.Exit(2)
	}
	res, err := run(w, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wirebench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%s seed=%d seconds=%d trace=%d: attempted %d failed %d correct %v\n",
		w.name, *seed, *seconds, *traced, res.Attempted, res.Failed, res.Correct)
	for _, k := range names {
		fmt.Printf("  %-32s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}
