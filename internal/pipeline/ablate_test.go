package pipeline

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"go-arxiv/smore/internal/model"
)

// ablateConfig is a deliberately tiny sweep base so the full default grid
// stays fast in the unit suite.
func ablateConfig() Config {
	cfg := e2eConfig(0) // seeds are overridden per cell
	cfg.Encoder.Dim = 512
	cfg.Model.Dim = 512
	cfg.Model.AdaptEpochs = 5
	cfg.Data.WindowLen = 24
	cfg.Data.PerClass = 12
	return cfg
}

// TestAblateSweep is the acceptance test for the ablation runner: the
// default grid (3 strategies × 2 seeds) must produce a cell per
// combination, summaries whose delta spread matches their cells, valid
// JSON, a Markdown table mentioning every strategy, and at least one
// non-default strategy whose accepted-pseudo-label counts differ from the
// default recipe's on the same seeds.
func TestAblateSweep(t *testing.T) {
	res, err := Ablate(AblateSpec{Base: ablateConfig(), Seeds: []uint64{42, 43}})
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(DefaultAblateStrategies()) * 2
	if len(res.Cells) != wantCells {
		t.Fatalf("%d cells, want %d", len(res.Cells), wantCells)
	}
	if len(res.Summary) != len(DefaultAblateStrategies()) {
		t.Fatalf("%d summaries, want %d", len(res.Summary), len(DefaultAblateStrategies()))
	}

	byStrategy := map[string][]AblateCell{}
	for _, c := range res.Cells {
		byStrategy[c.Strategy] = append(byStrategy[c.Strategy], c)
		if c.Adapt.Epochs == 0 {
			t.Errorf("cell %s/%d ran zero adaptation epochs", c.Strategy, c.Seed)
		}
	}
	def := byStrategy["margin+constant+bundle"]
	if len(def) != 2 {
		t.Fatalf("default strategy has %d cells, want 2", len(def))
	}
	for _, sum := range res.Summary {
		cells := byStrategy[sum.Strategy]
		sq, hurt, worst := 0.0, 0, cells[0].Delta
		for _, c := range cells {
			sq += (c.Delta - sum.MeanDelta) * (c.Delta - sum.MeanDelta)
			if c.Delta < 0 {
				hurt++
			}
			worst = min(worst, c.Delta)
		}
		if std := math.Sqrt(sq / float64(len(cells))); math.Abs(sum.StdDelta-std) > 1e-12 || sum.Hurt != hurt || sum.WorstDelta != worst {
			t.Errorf("%s: summary std/hurt/worst %v/%d/%v, cells give %v/%d/%v",
				sum.Strategy, sum.StdDelta, sum.Hurt, sum.WorstDelta, std, hurt, worst)
		}
	}
	countsDiffer := false
	for name, cells := range byStrategy {
		if name == "margin+constant+bundle" {
			continue
		}
		for i, c := range cells {
			if c.Adapt.PseudoLabels != def[i].Adapt.PseudoLabels {
				countsDiffer = true
			}
		}
	}
	if !countsDiffer {
		t.Error("no non-default strategy changed the accepted-pseudo-label counts: the grid is not exercising the strategies")
	}

	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back AblateResult
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("ablate JSON does not round-trip: %v", err)
	}

	md := res.Markdown()
	for _, s := range DefaultAblateStrategies() {
		if !strings.Contains(md, "`"+s+"`") {
			t.Errorf("markdown table missing strategy %q:\n%s", s, md)
		}
	}
	if !strings.Contains(md, "| strategy | seed |") {
		t.Errorf("markdown missing per-cell header:\n%s", md)
	}
}

// TestAblateValidatesSpecs pins the fail-fast contract: a bad strategy spec
// must error before any cell trains.
func TestAblateValidatesSpecs(t *testing.T) {
	_, err := Ablate(AblateSpec{Base: ablateConfig(), Strategies: []string{"margin+constant+nope"}})
	if err == nil {
		t.Fatal("bad strategy spec accepted")
	}
}

// TestTrainAppliesStrategy pins that pipeline.Config.Strategy reaches the
// trained ensemble.
func TestTrainAppliesStrategy(t *testing.T) {
	cfg := ablateConfig()
	var err error
	if cfg.Strategy, err = model.ParseStrategySpec("entropy-cal+constant+ema"); err != nil {
		t.Fatal(err)
	}
	art, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := art.Model.Snapshot().Strategy().String(); got != "entropy-cal+constant+ema" {
		t.Fatalf("trained model strategy %q, want entropy-cal+constant+ema", got)
	}
}
