package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"sort"
	"strconv"
)

// golden.json pins the SHA-256 of every output file per workload and
// seed: golden[workload][seed][file]. A run whose seed is pinned must
// reproduce those bytes; regenerate with
//
//	go test -run TestGolden -update
//
// only when a change is meant to alter results.
//
//go:embed golden.json
var goldenJSON []byte

func golden() (map[string]map[string]map[string]string, error) {
	var g map[string]map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// check compares one rep's outputs with the run's first rep of the same
// workload (reps of one run share every input, so their outputs must be
// byte-identical) and with the pinned digests for the inputs' seed.
func (e *env) check(w *workload, outs map[string][]byte) error {
	got := make(map[string]string, len(outs))
	for name, b := range outs {
		got[name] = digest(b)
	}
	if first, ok := e.first[w.name]; !ok {
		e.first[w.name] = got
	} else if !maps.Equal(first, got) {
		return fmt.Errorf("outputs differ from the run's first rep: %v", differing(first, got))
	}
	if !e.size.pinned {
		return nil
	}
	g, err := golden()
	if err != nil {
		return err
	}
	if want, ok := g[w.name][strconv.FormatUint(w.seed(e), 10)]; ok && !maps.Equal(want, got) {
		return fmt.Errorf("outputs differ from golden.json: %v", differing(want, got))
	}
	return nil
}

// differing names the files that only one side has or whose digests
// differ.
func differing(a, b map[string]string) []string {
	var names []string
	for name, d := range a {
		if b[name] != d {
			names = append(names, name)
		}
	}
	for name := range b {
		if _, ok := a[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
