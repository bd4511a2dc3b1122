package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareMain prints the ratio of each metric of two result records
// (written by a run under the output directory) and refuses records taken
// under different CPU counts, GOMAXPROCS or Go versions, or on different
// inputs.
func compareMain(args []string, w io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare <base result.json> <new result.json>")
	}
	var recs [2]record
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	a, b := recs[0], recs[1]
	if err := comparable(a, b); err != nil {
		return err
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for k := range a.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-32s %14s %14s %8s\n", "metric", "base", "new", "new/base")
	for _, k := range names {
		mb, ok := b.Result.Metrics[k]
		if !ok {
			continue
		}
		ma := a.Result.Metrics[k]
		fmt.Fprintf(w, "%-32s %14.6g %14.6g %8.3f %s\n", k, ma.Value, mb.Value, safeDiv(mb.Value, ma.Value), ma.Unit)
	}
	return nil
}

// comparable refuses a comparison across environments or inputs.
func comparable(a, b record) error {
	if a.Env != b.Env {
		return fmt.Errorf("environments differ (%+v vs %+v): refusing to compare", a.Env, b.Env)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace || a.Inputs != b.Inputs {
		return fmt.Errorf("runs differ in workload, trace mode or inputs (%s/%v/%.12s vs %s/%v/%.12s): refusing to compare",
			a.Workload, a.Trace, a.Inputs, b.Workload, b.Trace, b.Inputs)
	}
	return nil
}
