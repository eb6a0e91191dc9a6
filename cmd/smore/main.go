// Command smore runs the SMORE pipeline on a seeded synthetic multi-sensor
// dataset. It exposes subcommands with shared flag groups:
//
//	smore train   generate → encode → train → adapt → eval (optionally save)
//	smore eval    load a saved bundle and evaluate it on regenerated splits
//	smore stream  replay the target split as an arriving stream of micro-batches
//	smore ablate  sweep an adaptation-strategy grid × seeds, emit JSON + markdown
//
// Invoked without a command (or with flags but no command) it prints the
// usage and exits 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"go-arxiv/smore/internal/data"
	"go-arxiv/smore/internal/encode"
	"go-arxiv/smore/internal/model"
	"go-arxiv/smore/internal/pipeline"
	"go-arxiv/smore/internal/stream"
)

// fatal reports an error and exits non-zero, first flushing any in-flight
// CPU profile so a failed run still leaves a readable profile file.
// (StopCPUProfile is a no-op when profiling never started.)
func fatal(v ...any) {
	pprof.StopCPUProfile()
	fmt.Fprintln(os.Stderr, append([]any{"smore:"}, v...)...)
	os.Exit(1)
}

// writeHeapProfile snapshots the heap to path after a GC, so the profile
// reflects live objects rather than garbage awaiting collection.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "smore: wrote heap profile to %s\n", path)
}

// cliFlags holds every flag value; each subcommand registers only the
// groups it needs, so `smore <cmd> -h` lists exactly that command's knobs.
type cliFlags struct {
	// data group: the synthetic dataset and encoder shape.
	dim, levels, ngram, sensors, classes, window, perClass, sources int
	// model group: training and adaptation knobs.
	epochs, adaptEp  int
	confidence, rate float64
	// single-run knobs: every command but ablate, which sweeps both.
	seed     uint64
	strategy string
	// run group: execution and output knobs.
	workers                int
	jsonOut                bool
	cpuprofile, memprofile string
	// bundle group: persistence.
	save, load string
	// mode-specific.
	noAdapt    bool
	streamN    int
	dumpTarget string
	dumpDrift  string
	// stream drift group.
	driftPolicy  string
	maxTargets   int
	requireDrift bool
	// ablate group.
	strategies string
	seeds      string
	outJSON    string
	outMD      string
}

// dataFlags registers the shared dataset/encoder flag group.
func (c *cliFlags) dataFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.dim, "dim", 4096, "hypervector dimension (multiple of 64)")
	fs.IntVar(&c.levels, "levels", 32, "quantization levels")
	fs.IntVar(&c.ngram, "ngram", 3, "temporal n-gram length")
	fs.IntVar(&c.sensors, "sensors", 4, "sensor channels")
	fs.IntVar(&c.classes, "classes", 5, "classes")
	fs.IntVar(&c.window, "window", 64, "window length in timesteps")
	fs.IntVar(&c.perClass, "per-class", 40, "samples per class per domain")
	fs.IntVar(&c.sources, "sources", 2, "source domains")
}

// modelFlags registers the shared training/adaptation flag group.
func (c *cliFlags) modelFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.epochs, "retrain", 3, "retrain epochs")
	fs.IntVar(&c.adaptEp, "adapt-epochs", 10, "adaptation epochs")
	fs.Float64Var(&c.confidence, "confidence", 0.005, "pseudo-label similarity margin")
	fs.Float64Var(&c.rate, "rate", 2.0, "adaptation learning rate")
}

// runFlags registers the shared execution/output flag group.
func (c *cliFlags) runFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.workers, "workers", 0, "worker-pool size for batch stages (0 = all cores)")
	fs.BoolVar(&c.jsonOut, "json", false, "emit the result as JSON")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&c.memprofile, "memprofile", "", "write a heap profile to this file before a clean exit")
}

// pipelineConfig assembles the pipeline configuration from the flag values,
// resolving the strategy spec.
func (c *cliFlags) pipelineConfig() pipeline.Config {
	strat, err := model.ParseStrategySpec(c.strategy)
	if err != nil {
		fatal(err)
	}
	return pipeline.Config{
		Encoder: encode.Config{
			Dim: c.dim, Sensors: c.sensors, Levels: c.levels, NGram: c.ngram,
			Min: -3, Max: 3, Seed: c.seed,
		},
		Model: model.Config{
			Dim: c.dim, Classes: c.classes,
			RetrainEpochs: c.epochs, AdaptEpochs: c.adaptEp,
			Confidence: c.confidence, AdaptRate: c.rate,
		},
		Data: data.Config{
			Sensors: c.sensors, Classes: c.classes, WindowLen: c.window,
			PerClass: c.perClass, Seed: c.seed,
			Domains: pipeline.DefaultDomains(c.sources),
		},
		Strategy:  strat,
		TrainFrac: 0.75,
		Workers:   c.workers,
	}
}

// startProfiles begins CPU profiling and returns a deferred-cleanup func
// that stops it and writes the heap profile.
func (c *cliFlags) startProfiles() func() {
	if c.cpuprofile != "" {
		f, err := os.Create(c.cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}
	return func() {
		pprof.StopCPUProfile()
		if c.memprofile != "" {
			writeHeapProfile(c.memprofile)
		}
	}
}

func main() {
	cmd := ""
	if len(os.Args) > 1 {
		cmd = os.Args[1]
	}
	switch cmd {
	case "train", "eval", "stream", "ablate":
		runSubcommand(cmd, os.Args[2:])
	case "help", "-help", "--help", "-h":
		usage()
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: smore <command> [flags]

Commands:
  train    generate → encode → train → adapt → eval (optionally -save)
  eval     load a bundle (-load) and evaluate it on regenerated splits
  stream   replay the target split as an arriving stream of micro-batches
  ablate   sweep an adaptation-strategy grid × seeds, emit JSON + markdown

Run 'smore <command> -h' for that command's flags.
`)
}

// loadOverrides lists, per subcommand, the flags whose values a -load
// bundle replaces with its own encoder and model config.
var loadOverrides = map[string][]string{
	"eval":   {"dim", "levels", "ngram"},
	"stream": {"dim", "levels", "ngram", "retrain", "adapt-epochs", "confidence", "rate"},
}

// checkLoad rejects a flag set explicitly on the command line whose value
// the -load bundle would silently replace, naming the first such flag.
func (c *cliFlags) checkLoad(name string, fs *flag.FlagSet) error {
	if c.load == "" {
		return nil
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && slices.Contains(loadOverrides[name], f.Name) {
			err = fmt.Errorf("-%s has no effect with -load: the bundle's config sets it", f.Name)
		}
	})
	return err
}

// flagSet registers the named command's flag groups on a fresh flag set.
func (c *cliFlags) flagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet("smore "+name, flag.ExitOnError)
	c.dataFlags(fs)
	c.runFlags(fs)
	if name != "ablate" { // ablate sweeps -seeds × -strategies instead
		fs.Uint64Var(&c.seed, "seed", 42, "master RNG seed")
		fs.StringVar(&c.strategy, "strategy", "", "adaptation strategy as confidence+constant+update (empty = margin+constant+bundle)")
	}
	switch name {
	case "train":
		c.modelFlags(fs)
		fs.StringVar(&c.save, "save", "", "write the trained+adapted model bundle to this file")
		fs.BoolVar(&c.noAdapt, "no-adapt", false, "skip adaptation: evaluate and save the source-only model")
		fs.StringVar(&c.dumpTarget, "dump-target", "", "write the raw target windows and labels to PREFIX.windows.json / PREFIX.labels.json")
		fs.StringVar(&c.dumpDrift, "dump-drift", "", "write a harsh second-shift drift split (detector-grade; same class signatures) to PREFIX.windows.json / PREFIX.labels.json")
	case "eval":
		fs.StringVar(&c.load, "load", "", "model bundle to evaluate (required; its config sets -dim, -levels and -ngram, which it rejects)")
		fs.BoolVar(&c.noAdapt, "no-adapt", false, "baseline only: do not adapt the loaded model")
	case "stream":
		c.modelFlags(fs)
		fs.IntVar(&c.streamN, "batch", 16, "micro-batch size for the streamed replay")
		fs.StringVar(&c.load, "load", "", "start from this bundle instead of training (typically a -no-adapt source model); its config sets the encoder and model flags, which it rejects")
		fs.StringVar(&c.save, "save", "", "write the post-stream model bundle to this file")
		fs.StringVar(&c.driftPolicy, "drift-policy", "",
			"run the two-shift drift replay under this policy: none | spawn[:threshold] | spawn+retire[:threshold] (empty = plain single-shift replay)")
		fs.IntVar(&c.maxTargets, "max-targets", 0, "live-target cap for a retiring drift policy (0 = default)")
		fs.BoolVar(&c.requireDrift, "require-drift", false,
			"exit non-zero unless the drift replay spawned a second target and beat the frozen single-target baseline")
	case "ablate":
		c.modelFlags(fs)
		fs.StringVar(&c.strategies, "strategies", strings.Join(pipeline.DefaultAblateStrategies(), ","),
			"comma-separated confidence+constant+update specs to sweep")
		fs.StringVar(&c.seeds, "seeds", "42,43", "comma-separated master seeds to sweep per strategy")
		fs.StringVar(&c.outJSON, "out-json", "", "also write the full sweep result as JSON to this file")
		fs.StringVar(&c.outMD, "out-md", "", "also write the markdown comparison table to this file")
	}
	return fs
}

// runSubcommand parses the named command's flag groups and executes it.
func runSubcommand(name string, args []string) {
	c := &cliFlags{}
	fs := c.flagSet(name)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if err := c.checkLoad(name, fs); err != nil {
		fmt.Fprintln(os.Stderr, "smore:", err)
		os.Exit(2)
	}
	stop := c.startProfiles()
	defer stop()
	switch name {
	case "train":
		if c.noAdapt {
			runPipeline(c, modeBaseline)
		} else {
			runPipeline(c, modeAdapt)
		}
	case "eval":
		if c.load == "" {
			fatal("eval requires -load (use 'smore train' to produce a bundle)")
		}
		if c.noAdapt {
			runPipeline(c, modeBaseline)
		} else {
			runPipeline(c, modeAdapt)
		}
	case "stream":
		if c.streamN <= 0 {
			fatal("stream requires -batch >= 1")
		}
		runPipeline(c, modeStream)
	case "ablate":
		runAblate(c)
	}
}

// Pipeline run modes of the train, eval, and stream subcommands.
const (
	modeAdapt    = "adapt"    // train/load → baseline eval → adapt → eval
	modeBaseline = "baseline" // train/load → baseline eval only
	modeStream   = "stream"   // train/load → streamed micro-batch adaptation
)

// runPipeline executes one train-or-load pipeline run in the given mode and
// renders the result (JSON or the human-readable summary).
func runPipeline(c *cliFlags, mode string) {
	cfg := c.pipelineConfig()
	start := time.Now()
	var art *pipeline.Artifacts
	var err error
	if c.load != "" {
		b, lerr := pipeline.LoadBundleFile(c.load)
		if lerr != nil {
			fatal(lerr)
		}
		cfg.Encoder = b.Encoder
		cfg.Model = b.Model.Config()
		if c.strategy != "" {
			b.Model.SetStrategy(cfg.Strategy)
		}
		art, err = pipeline.WithModel(cfg, b.Model)
	} else {
		art, err = pipeline.Train(cfg)
	}
	if err != nil {
		fatal(err)
	}
	if c.dumpTarget != "" {
		labels := make([]int, len(art.Target))
		for i, s := range art.Target {
			labels[i] = s.Class
		}
		if err := writeSplitDump(art.TargetWindows, labels, c.dumpTarget); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "smore: dumped target split to %s.windows.json / %s.labels.json\n", c.dumpTarget, c.dumpTarget)
	}
	if c.dumpDrift != "" {
		// The detector-grade shift trips the serving layer's default 0.1
		// drift threshold, so scripts can drive the spawn/rollback loop
		// without tuning (post-spawn accuracy on it is near chance; use the
		// stream subcommand's -drift-policy replay for quality numbers).
		bs, err := art.DriftSplit(pipeline.DriftConfig{Shift: pipeline.DetectorDriftShift()})
		if err != nil {
			fatal(err)
		}
		labels := make([]int, len(bs))
		for i, s := range bs {
			labels[i] = s.Class
		}
		if err := writeSplitDump(data.Windows(bs), labels, c.dumpDrift); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "smore: dumped drift split to %s.windows.json / %s.labels.json\n", c.dumpDrift, c.dumpDrift)
	}

	var res *pipeline.Result
	var streamRes *pipeline.StreamResult
	var driftRes *pipeline.DriftResult
	switch mode {
	case modeBaseline:
		res, err = art.EvaluateBaseline()
	case modeStream:
		if c.driftPolicy != "" {
			var pol stream.DriftPolicy
			pol, err = stream.ParseDriftPolicy(c.driftPolicy)
			if err != nil {
				fatal(err)
			}
			driftRes, err = art.StreamEvaluateDrift(c.streamN, pipeline.DriftConfig{
				Policy: pol, MaxTargets: c.maxTargets,
			})
		} else {
			streamRes, err = art.StreamEvaluate(c.streamN)
		}
	default:
		res, err = art.Evaluate()
	}
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start).Round(time.Millisecond).String()
	if c.save != "" {
		if err := art.Bundle().SaveFile(c.save); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "smore: saved model bundle to %s\n", c.save)
	}

	// requireDrift turns the replay into an assertion the drift-smoke CI
	// target can run without JSON parsing: the process exit code is the
	// verdict.
	checkDrift := func() {
		if driftRes == nil || !c.requireDrift {
			return
		}
		if !driftRes.SpawnedSecondTarget {
			fatal("require-drift: no second target spawned over the second shift")
		}
		if !driftRes.BeatsBaseline {
			fatal(fmt.Sprintf("require-drift: final second-shift accuracy %.3f does not beat the frozen single-target baseline %.3f",
				driftRes.FinalB, driftRes.FrozenBaselineB))
		}
	}

	if c.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		var out any
		switch {
		case res != nil:
			res.Elapsed = elapsed
			out = res
		case driftRes != nil:
			driftRes.Elapsed = elapsed
			out = driftRes
		default:
			streamRes.Elapsed = elapsed
			out = streamRes
		}
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		checkDrift()
		return
	}
	fmt.Printf("SMORE demo — dim=%d levels=%d ngram=%d sensors=%d classes=%d domains=%d+1\n",
		cfg.Encoder.Dim, cfg.Encoder.Levels, cfg.Encoder.NGram, cfg.Encoder.Sensors,
		cfg.Model.Classes, len(cfg.Data.Domains)-1)
	if driftRes != nil {
		fmt.Printf("  two-shift drift replay (policy %s, batches of ≤%d):\n", driftRes.DriftPolicy, c.streamN)
		fmt.Printf("  phase A: baseline %.3f → adapted %.3f over %d batches\n",
			driftRes.PhaseA.TargetBaseline, driftRes.PhaseA.TargetAdapted, driftRes.PhaseA.Batches)
		fmt.Printf("  phase B (%s): frozen single-target baseline %.3f\n", driftRes.ShiftB, driftRes.FrozenBaselineB)
		for i, acc := range driftRes.TrajectoryB {
			fmt.Printf("    after batch %2d: B=%.3f A=%.3f\n", i+1, acc, driftRes.TrajectoryA[i])
		}
		fmt.Printf("  final: B=%.3f (%+.3f vs frozen) A=%.3f  spawned=%d retired=%d  elapsed: %s\n",
			driftRes.FinalB, driftRes.FinalB-driftRes.FrozenBaselineB, driftRes.FinalA,
			driftRes.TargetsSpawned, driftRes.TargetsRetired, elapsed)
		for _, ti := range driftRes.Targets {
			marker := ""
			if ti.Active {
				marker = " (active)"
			}
			fmt.Printf("    target %s: %d folds%s\n", ti.Name, ti.Folds, marker)
		}
		checkDrift()
		return
	}
	if streamRes != nil {
		fmt.Printf("  target baseline (no adapt):      %.3f\n", streamRes.TargetBaseline)
		fmt.Printf("  streamed adaptation trajectory (%d batches of ≤%d):\n", streamRes.Batches, streamRes.BatchSize)
		for i, acc := range streamRes.Trajectory {
			fmt.Printf("    after batch %2d: %.3f\n", i+1, acc)
		}
		fmt.Printf("  target after streamed adaptation: %.3f (%+.3f)\n",
			streamRes.TargetAdapted, streamRes.TargetAdapted-streamRes.TargetBaseline)
		fmt.Printf("  pseudo-labels applied: %d (skipped %d)  elapsed: %s\n",
			streamRes.Adapt.PseudoLabels, streamRes.Adapt.Skipped, elapsed)
		return
	}
	fmt.Printf("  source-domain test accuracy:   %.3f\n", res.SourceAccuracy)
	fmt.Printf("  target baseline (no adapt):    %.3f\n", res.TargetBaseline)
	if mode == modeBaseline {
		fmt.Printf("  adaptation skipped (-no-adapt)  elapsed: %s\n", elapsed)
		return
	}
	fmt.Printf("  target after SMORE adaptation: %.3f\n", res.TargetAdapted)
	fmt.Printf("  accuracy delta:                %+.3f\n", res.TargetAdapted-res.TargetBaseline)
	fmt.Printf("  pseudo-labels applied: %d (skipped %d)  elapsed: %s\n",
		res.Adapt.PseudoLabels, res.Adapt.Skipped, elapsed)
}

// splitList parses a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// runAblate executes the strategy × seed sweep and emits the comparison:
// the markdown table on stdout (or the full JSON with -json), plus optional
// -out-json / -out-md files for CI artifacts.
func runAblate(c *cliFlags) {
	var seeds []uint64
	for _, s := range splitList(c.seeds) {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			fatal("bad -seeds entry:", err)
		}
		seeds = append(seeds, v)
	}
	res, err := pipeline.Ablate(pipeline.AblateSpec{
		Base:       c.pipelineConfig(),
		Strategies: splitList(c.strategies),
		Seeds:      seeds,
	})
	if err != nil {
		fatal(err)
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	md := res.Markdown()
	if c.outJSON != "" {
		if err := os.WriteFile(c.outJSON, append(raw, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "smore: wrote ablation JSON to %s\n", c.outJSON)
	}
	if c.outMD != "" {
		if err := os.WriteFile(c.outMD, []byte(md), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "smore: wrote ablation markdown to %s\n", c.outMD)
	}
	if c.jsonOut {
		fmt.Println(string(raw))
		return
	}
	fmt.Print(md)
}

// writeSplitDump writes a split's raw windows — as a ready-to-POST
// /v1/predict body — and the aligned labels to prefix.windows.json /
// prefix.labels.json, for driving the serving surface from scripts.
func writeSplitDump(windows [][][]float64, labels []int, prefix string) error {
	raw, err := json.Marshal(map[string]any{"windows": windows})
	if err != nil {
		return err
	}
	if err := os.WriteFile(prefix+".windows.json", raw, 0o644); err != nil {
		return err
	}
	raw, err = json.Marshal(labels)
	if err != nil {
		return err
	}
	return os.WriteFile(prefix+".labels.json", raw, 0o644)
}
