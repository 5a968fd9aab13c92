// Command robustlint runs the repo's custom static-analysis suite — the
// determinism, durability, and lock-safety invariants generic tooling
// cannot check. See internal/analysis for the analyzers and the
// //lint:<directive> <reason> exemption convention.
//
// Usage:
//
//	go run ./cmd/robustlint ./...
//	go run ./cmd/robustlint -only locksafety,seededrand ./internal/...
//	go run ./cmd/robustlint -format=json ./...
//
// -format=json emits a JSON array of findings — including the ones
// //lint: directives suppressed, each with its written exempt_reason —
// so CI can archive the full audit surface. The exit status counts live
// findings only, in every format.
//
// Exit status: 0 clean, 1 diagnostics found, 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"robustify/internal/analysis"
)

// jsonDiagnostic is the -format=json record schema.
type jsonDiagnostic struct {
	File         string `json:"file"`
	Line         int    `json:"line"`
	Col          int    `json:"col"`
	Analyzer     string `json:"analyzer"`
	Message      string `json:"message"`
	Exempted     bool   `json:"exempted"`
	ExemptReason string `json:"exempt_reason,omitempty"`
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	format := flag.String("format", "text", "output format: text or json (json includes exempted findings)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: robustlint [-only a,b] [-format text|json] [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "robustlint: unknown format %q (want text or json)\n", *format)
		os.Exit(2)
	}

	suite := analysis.All()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-18s %s (exempt: //lint:%s <reason>)\n", a.Name, a.Doc, a.Directive)
		}
		return
	}
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range suite {
			byName[a.Name] = a
		}
		suite = suite[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "robustlint: unknown analyzer %q (try -list)\n", name)
				os.Exit(2)
			}
			suite = append(suite, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "robustlint:", err)
		os.Exit(2)
	}
	diags, err := analysis.RunWithExempted(wd, suite, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "robustlint:", err)
		os.Exit(2)
	}
	relName := func(name string) string {
		if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
			return rel
		}
		return name
	}
	live := 0
	for _, d := range diags {
		if !d.Exempted {
			live++
		}
	}
	switch *format {
	case "json":
		records := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			records = append(records, jsonDiagnostic{
				File:         relName(d.Pos.Filename),
				Line:         d.Pos.Line,
				Col:          d.Pos.Column,
				Analyzer:     d.Analyzer,
				Message:      d.Message,
				Exempted:     d.Exempted,
				ExemptReason: d.ExemptReason,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			fmt.Fprintln(os.Stderr, "robustlint:", err)
			os.Exit(2)
		}
	default:
		for _, d := range diags {
			if d.Exempted {
				continue
			}
			fmt.Printf("%s:%d:%d: %s: %s\n", relName(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}
	if live > 0 {
		fmt.Fprintf(os.Stderr, "robustlint: %d diagnostic(s)\n", live)
		os.Exit(1)
	}
}
