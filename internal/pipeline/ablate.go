package pipeline

import (
	"fmt"
	"math"
	"strings"
	"time"

	"go-arxiv/smore/internal/model"
)

// AblateSpec describes an ablation sweep: a strategy grid × seeds over the
// synthetic generator, every cell running the full generate → encode →
// train → adapt → eval pipeline on the deterministic worker pool.
type AblateSpec struct {
	// Base is the pipeline configuration shared by every cell; each cell
	// overrides the data and encoder seeds with its own seed and installs
	// its own adaptation strategy.
	Base Config
	// Strategies are "confidence+constant+update" specs (the format of
	// model.Strategy.String); empty means DefaultAblateStrategies.
	Strategies []string
	// Seeds are the master seeds swept per strategy; empty means {42, 43}.
	Seeds []uint64
}

// DefaultAblateStrategies is the stock grid: the paper's recipe plus one
// variant along each axis (confidence rule, update rule).
func DefaultAblateStrategies() []string {
	return []string{
		"margin+constant+bundle",
		"entropy-cal+constant+bundle",
		"margin+constant+ema",
	}
}

// AblateCell is one (strategy, seed) run of the sweep.
type AblateCell struct {
	Strategy       string           `json:"strategy"`
	Seed           uint64           `json:"seed"`
	SourceAccuracy float64          `json:"source_accuracy"`
	TargetBaseline float64          `json:"target_baseline"`
	TargetAdapted  float64          `json:"target_adapted"`
	Delta          float64          `json:"delta"`
	Adapt          model.AdaptStats `json:"adapt_stats"`
	WallMillis     float64          `json:"wall_ms"`
}

// AblateSummary aggregates one strategy's cells across seeds. The delta
// fields follow ADATIME's protocol (arXiv 2203.08321): the mean and the
// population standard deviation of the per-seed target-accuracy delta, plus
// how many seeds adaptation hurt and the worst of them.
type AblateSummary struct {
	Strategy      string  `json:"strategy"`
	MeanBaseline  float64 `json:"mean_baseline"`
	MeanAdapted   float64 `json:"mean_adapted"`
	MeanDelta     float64 `json:"mean_delta"`
	StdDelta      float64 `json:"std_delta"`
	Hurt          int     `json:"hurt"` // seeds with delta < 0
	WorstDelta    float64 `json:"worst_delta"`
	PseudoLabels  int     `json:"pseudo_labels"` // total accepted across seeds
	Skipped       int     `json:"skipped"`       // total skipped across seeds
	MeanWallMilli float64 `json:"mean_wall_ms"`
}

// AblateResult is the full sweep output: the grid, every cell, and the
// per-strategy aggregate, ready for JSON emission or Markdown rendering.
type AblateResult struct {
	Strategies []string        `json:"strategies"`
	Seeds      []uint64        `json:"seeds"`
	Cells      []AblateCell    `json:"cells"`
	Summary    []AblateSummary `json:"summary"`
	Elapsed    string          `json:"elapsed,omitempty"`
}

// Ablate runs the sweep cell by cell (each cell already saturates the
// worker pool internally, so cells run sequentially for stable wall-time
// numbers). Strategy specs are validated up front so a typo fails before
// any training starts.
func Ablate(spec AblateSpec) (*AblateResult, error) {
	specs := spec.Strategies
	if len(specs) == 0 {
		specs = DefaultAblateStrategies()
	}
	seeds := spec.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{42, 43}
	}
	strategies := make([]model.Strategy, len(specs))
	for i, s := range specs {
		strat, err := model.ParseStrategySpec(s)
		if err != nil {
			return nil, fmt.Errorf("pipeline: ablate strategy %d: %w", i, err)
		}
		strategies[i] = strat
	}

	res := &AblateResult{Strategies: specs, Seeds: seeds}
	start := time.Now()
	for i, strat := range strategies {
		sum := AblateSummary{Strategy: specs[i]}
		for _, seed := range seeds {
			cfg := spec.Base
			cfg.Strategy = strat
			cfg.Data.Seed = seed
			cfg.Encoder.Seed = seed
			cellStart := time.Now()
			r, err := Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("pipeline: ablate %s seed %d: %w", specs[i], seed, err)
			}
			wall := float64(time.Since(cellStart).Microseconds()) / 1e3
			res.Cells = append(res.Cells, AblateCell{
				Strategy:       specs[i],
				Seed:           seed,
				SourceAccuracy: r.SourceAccuracy,
				TargetBaseline: r.TargetBaseline,
				TargetAdapted:  r.TargetAdapted,
				Delta:          r.TargetAdapted - r.TargetBaseline,
				Adapt:          r.Adapt,
				WallMillis:     wall,
			})
			sum.MeanBaseline += r.TargetBaseline
			sum.MeanAdapted += r.TargetAdapted
			sum.PseudoLabels += r.Adapt.PseudoLabels
			sum.Skipped += r.Adapt.Skipped
			sum.MeanWallMilli += wall
		}
		n := float64(len(seeds))
		sum.MeanBaseline /= n
		sum.MeanAdapted /= n
		sum.MeanDelta = sum.MeanAdapted - sum.MeanBaseline
		sum.MeanWallMilli /= n
		sum.StdDelta, sum.Hurt, sum.WorstDelta = deltaSpread(res.Cells[len(res.Cells)-len(seeds):], sum.MeanDelta)
		res.Summary = append(res.Summary, sum)
	}
	res.Elapsed = time.Since(start).Round(time.Millisecond).String()
	return res, nil
}

// deltaSpread returns the population standard deviation of the cells'
// deltas around mean, the number of negative deltas, and the lowest delta.
func deltaSpread(cells []AblateCell, mean float64) (std float64, hurt int, worst float64) {
	worst = math.Inf(1)
	for _, c := range cells {
		std += (c.Delta - mean) * (c.Delta - mean)
		if c.Delta < 0 {
			hurt++
		}
		worst = min(worst, c.Delta)
	}
	return math.Sqrt(std / float64(len(cells))), hurt, worst
}

// Markdown renders the sweep as two GitHub-flavored tables: every cell,
// then the per-strategy aggregate.
func (r *AblateResult) Markdown() string {
	var b strings.Builder
	b.WriteString("### SMORE adaptation-strategy ablation\n\n")
	b.WriteString("| strategy | seed | baseline | adapted | delta | pseudo-labels | skipped | epochs | wall |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|---:|\n")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "| `%s` | %d | %.3f | %.3f | %+.3f | %d | %d | %d | %.0fms |\n",
			c.Strategy, c.Seed, c.TargetBaseline, c.TargetAdapted, c.Delta,
			c.Adapt.PseudoLabels, c.Adapt.Skipped, c.Adapt.Epochs, c.WallMillis)
	}
	b.WriteString("\n**Per-strategy means over ")
	fmt.Fprintf(&b, "%d seed(s):**\n\n", len(r.Seeds))
	b.WriteString("| strategy | baseline | adapted | delta | std | hurt | worst | pseudo-labels | skipped | wall |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n")
	for _, s := range r.Summary {
		fmt.Fprintf(&b, "| `%s` | %.3f | %.3f | %+.3f | %.3f | %d | %+.3f | %d | %d | %.0fms |\n",
			s.Strategy, s.MeanBaseline, s.MeanAdapted, s.MeanDelta, s.StdDelta, s.Hurt, s.WorstDelta,
			s.PseudoLabels, s.Skipped, s.MeanWallMilli)
	}
	return b.String()
}
