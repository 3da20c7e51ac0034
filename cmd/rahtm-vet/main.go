// Command rahtm-vet runs the rahtm-specific static-analysis suite
// (internal/analysis) over the given package patterns — by default the
// whole module — and exits non-zero if any invariant is violated.
//
//	go run ./cmd/rahtm-vet ./...
//
// The suite enforces what stock vet cannot: deterministic map iteration
// in bit-identical packages (detrange), no global math/rand in library
// code (globalrand), cancellation polling in solver loops and no
// context.Background in internal code (ctxpoll), no exact float
// comparisons outside tolerance helpers (floateq), batched telemetry
// counters in hot loops (telemetrybatch), no mutation or undocumented
// escape of CSR row aliases (csralias), cancellable-or-joined
// goroutines in the concurrent packages (goroutinejoin), mutex copy and
// release discipline (lockdiscipline), and telemetry-scope propagation
// through ctx-carrying functions (scopeprop). Individual findings are
// suppressed, with a mandatory justification, by
//
//	//rahtm:allow(<analyzer>): <reason>
//
// on the offending line or the line above; unused or misnamed allows are
// themselves errors. See DESIGN.md §9 and §14.
//
// With -json, every diagnostic — active and suppressed — is emitted as
// one JSON object per line ({analyzer, file, line, col, message, allow,
// reason}), the machine-readable stream CI archives as a build artifact.
// The exit code still reflects only the active findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"rahtm/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	dir := flag.String("C", ".", "directory to resolve package patterns in")
	jsonOut := flag.Bool("json", false, "emit one JSON object per diagnostic (active and suppressed) instead of text")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: rahtm-vet [-C dir] [-list] [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, az := range analysis.Analyzers() {
			fmt.Printf("%-15s %s\n", az.Name, az.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rahtm-vet:", err)
		os.Exit(2)
	}
	active, suppressed, err := analysis.RunPackagesAll(pkgs, analysis.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "rahtm-vet:", err)
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, d := range active {
			if err := enc.Encode(d.JSON(false)); err != nil {
				fmt.Fprintln(os.Stderr, "rahtm-vet:", err)
				os.Exit(2)
			}
		}
		for _, d := range suppressed {
			if err := enc.Encode(d.JSON(true)); err != nil {
				fmt.Fprintln(os.Stderr, "rahtm-vet:", err)
				os.Exit(2)
			}
		}
	} else {
		for _, d := range active {
			fmt.Println(d)
		}
	}
	if len(active) > 0 {
		fmt.Fprintf(os.Stderr, "rahtm-vet: %d finding(s) in %d package(s)\n", len(active), len(pkgs))
		os.Exit(1)
	}
}
