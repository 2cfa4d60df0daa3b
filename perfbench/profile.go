package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// layers are the groups self_frac.<layer> folds CPU samples into, in
// report order. Every sample lands in exactly one, so the fractions of
// a profile sum to 1.
var layers = []string{
	"hivenet", "proto", "dsp", "svm", "cnn", "audio", "store", "obs",
	"ledger", "des", "core", "runtime", "stdlib", "harness",
}

// layerOf maps a Go package path to its layer.
func layerOf(pkg string) string {
	const mod = "beesim/internal/"
	if rest, ok := strings.CutPrefix(pkg, mod); ok {
		switch rest {
		case "hivenet", "proto", "dsp", "audio", "store", "obs", "ledger":
			return rest
		case "queendetect", "ml", "ml/svm":
			return "svm"
		case "ml/cnn":
			return "cnn"
		case "des", "deployment", "netsim", "battery", "solar", "weather",
			"hive", "routine", "sensors", "timeseries", "faults", "power":
			return "des"
		}
		return "core"
	}
	switch {
	case pkg == "main" || strings.HasPrefix(pkg, "beesim/perfbench"):
		return "harness"
	case strings.HasPrefix(pkg, "beesim"):
		return "core"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/") || pkg == "sync" || pkg == "sync/atomic":
		return "runtime"
	}
	return "stdlib"
}

// funcPackage extracts the package path from a Go symbol name such as
// "beesim/internal/dsp.(*Plan).MelSpectrogram" or
// "beesim/internal/parallel.Map[...].func1".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	start := strings.LastIndexByte(name, '/') + 1
	if i := strings.IndexByte(name[start:], '.'); i >= 0 {
		return name[:start+i]
	}
	// Unqualified symbols (aeshashbody, gcWriteBarrier) are the
	// runtime's assembly.
	return "runtime"
}

// layerOfSample charges a sample, given its frames leaf first, to the
// layer of its leaf frame, except that a standard-library leaf is
// charged to the innermost repository frame above it: JSON encoding
// inside proto.Encode is proto's cost, math.Sin inside audio synthesis
// is audio's. Runtime leaves (allocation, GC, scheduling) stay with the
// runtime, and a stack with no repository frame stays with the
// standard library.
func layerOfSample(frames []string) string {
	for depth, fn := range frames {
		l := layerOf(funcPackage(fn))
		if l != "stdlib" && (depth == 0 || l != "runtime") {
			return l
		}
	}
	return "stdlib"
}

// foldProfile folds the CPU profile at path with the toolchain's
// decoder (`go tool pprof -traces`) and returns each layer's share of
// the samples.
func foldProfile(path string) (map[string]float64, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-sample_index=samples", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return foldTraces(out)
}

// traceRule separates the stacks of `go tool pprof -traces` output.
const traceRule = "-----------+"

// foldTraces folds `go tool pprof -traces -sample_index=samples`
// output: after a header, each stack sits between rule lines, its
// first line holding the sample count and the leaf frame, and each
// following line one caller frame, inlined frames marked "(inline)".
func foldTraces(text []byte) (map[string]float64, error) {
	counts := map[string]int64{}
	var total int64
	var n int64
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			counts[layerOfSample(frames)] += n
			total += n
		}
		frames = frames[:0]
	}
	inStacks := false
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, traceRule) {
			flush()
			inStacks = true
			continue
		}
		line = strings.TrimSpace(strings.TrimSuffix(line, " (inline)"))
		if !inStacks || line == "" {
			continue
		}
		if len(frames) == 0 {
			count, leaf, ok := strings.Cut(line, " ")
			v, err := strconv.ParseInt(count, 10, 64)
			if !ok || err != nil {
				return nil, fmt.Errorf("pprof traces: bad stack line %q", line)
			}
			n, line = v, strings.TrimSpace(leaf)
		}
		frames = append(frames, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if total == 0 {
		return nil, errors.New("pprof traces: no samples")
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = float64(counts[l]) / float64(total)
	}
	return out, nil
}
