package model

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"go-arxiv/smore/internal/hdc"
)

// Wire format (all integers little-endian):
//
//	magic "SME1", "SME2", or "SME3"
//	config: uint32 Dim, uint32 Classes, uint32 RetrainEpochs,
//	        uint32 AdaptEpochs, float64 Confidence, float64 AdaptRate,
//	        float64 TopFrac
//	(SME2/SME3) strategy section: 3 × (uint32 length + name bytes) for the
//	        confidence rule, the schedule (always "constant"), and the
//	        update rule
//	SME1/SME2 body:
//	    uint32 domain count, uint8 adapted flag
//	    per domain (then the adapted target model, if the flag is set):
//	        int32 id
//	        Classes × int64 per-class sample count
//	        Classes × framed class accumulator (uint32 length + hdc bytes)
//	        framed domain accumulator
//	SME3 body (multi-target):
//	    uint32 domain count, uint32 target count,
//	    uint32 active target index (0xFFFFFFFF when none)
//	    per domain: the same domain record as SME1
//	    per target: uint32 name length + name bytes, uint64 fold count,
//	        then the same domain record as SME1
//
// The binarized prototypes are not stored: Majority is deterministic, so
// they are rebuilt bit-identically on load. The magic doubles as the format
// version. An ensemble whose adapted state has the default single-target
// shape — no target, or exactly one named "t0" and active — serializes as
// "SME1" on the default strategy (byte-identical to every pre-strategy
// artifact, including the committed golden) or "SME2" on a non-default one;
// only a genuinely multi-target (or renamed/inactive-target) state promotes
// the output to "SME3". All versions stay readable, and every choice
// round-trips: the codec is canonical (save → load → save is
// byte-identical), which is what makes checkpoints and Rollback exact.
const (
	ensembleMagic   = "SME1"
	ensembleMagicV2 = "SME2"
	ensembleMagicV3 = "SME3"

	// maxDomains bounds the domain count accepted by ReadFrom so a corrupt
	// header cannot drive an unbounded allocation loop.
	maxDomains = 1 << 16
	// maxClasses bounds cfg.Classes on load for the same reason; Validate
	// has no upper bound because in-process construction is trusted.
	maxClasses = 1 << 20
	// maxEpochs bounds the loaded retrain/adapt epoch counts: a corrupt
	// bundle declaring billions of adapt epochs would otherwise hang the
	// first Adapt call (and, in a server, every reader behind its lock).
	maxEpochs = 1 << 20
	// maxStrategyName bounds the length of a serialized strategy name so a
	// corrupt SME2/SME3 header cannot drive a huge allocation.
	maxStrategyName = 64
	// maxTargetsLoad bounds the SME3 target count on load. Far above what
	// any sane drift policy spawns, far below an allocation bomb.
	maxTargetsLoad = 256
	// noActiveTarget is the SME3 sentinel for "no active target" (the
	// active slot was a pending spawn, which does not persist).
	noActiveTarget = 0xFFFFFFFF
)

// ensembleState is a fully parsed, validated serialized ensemble — the
// bridge between readState (pure parsing, no locks) and installLocked
// (state swap under the mutator lock). Rollback reuses the same pair to
// restore a checkpoint.
type ensembleState struct {
	cfg     Config
	strat   Strategy
	domains []*domainModel
	targets []*targetModel
	active  int
}

// persistedTargets returns the ready targets (pending spawns have no
// prototypes and do not persist) and the index of the active target within
// that order, or -1 when the active target is pending or absent. Callers
// must hold m.mu.
func (m *Ensemble) persistedTargets() ([]*targetModel, int) {
	var out []*targetModel
	active := -1
	for i, t := range m.targets {
		if !t.ready() {
			continue
		}
		if i == m.active {
			active = len(out)
		}
		out = append(out, t)
	}
	return out, active
}

// encodeLocked appends the ensemble, serialized into the newest format that
// can represent it losslessly (see the wire-format comment), to dst.
// Serialization flushes staged accumulator state, so it is a mutator even
// though the accumulated values don't change; callers must hold m.mu.
func (m *Ensemble) encodeLocked(dst []byte) ([]byte, error) {
	if len(m.domains) == 0 {
		return nil, fmt.Errorf("model: cannot serialize an untrained ensemble")
	}
	strat := m.strategy
	targets, active := m.persistedTargets()
	// The historical single-target shape: nothing adapted, or exactly one
	// target with the auto-generated first name that is also the fold
	// destination. Anything else needs the SME3 target section.
	simple := len(targets) == 0 || (len(targets) == 1 && targets[0].name == "t0" && active == 0)
	version := ensembleMagicV3
	switch {
	case simple && strat.isDefault():
		version = ensembleMagic
	case simple:
		version = ensembleMagicV2
	}
	buf := bytes.NewBuffer(dst)
	buf.WriteString(version)
	putUint32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		buf.Write(b[:])
	}
	putUint64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		buf.Write(b[:])
	}
	putFloat64 := func(v float64) { putUint64(math.Float64bits(v)) }
	putUint32(uint32(m.cfg.Dim))
	putUint32(uint32(m.cfg.Classes))
	putUint32(uint32(m.cfg.RetrainEpochs))
	putUint32(uint32(m.cfg.AdaptEpochs))
	putFloat64(m.cfg.Confidence)
	putFloat64(m.cfg.AdaptRate)
	putFloat64(m.cfg.TopFrac)
	if version != ensembleMagic {
		conf, upd := strat.Names()
		for _, name := range []string{conf, fixedSchedule, upd} {
			putUint32(uint32(len(name)))
			buf.WriteString(name)
		}
	}

	putAcc := func(acc *hdc.Accumulator) error {
		b, err := acc.MarshalBinary()
		if err != nil {
			return err
		}
		putUint32(uint32(len(b)))
		buf.Write(b)
		return nil
	}
	writeDomain := func(dm *domainModel) error {
		putUint32(uint32(int32(dm.id)))
		for _, n := range dm.classCount {
			putUint64(uint64(n))
		}
		for _, acc := range dm.classAcc {
			if err := putAcc(acc); err != nil {
				return err
			}
		}
		return putAcc(dm.domAcc)
	}

	putUint32(uint32(len(m.domains)))
	if version == ensembleMagicV3 {
		putUint32(uint32(len(targets)))
		if active < 0 {
			putUint32(noActiveTarget)
		} else {
			putUint32(uint32(active))
		}
	} else {
		adapted := byte(0)
		if len(targets) == 1 {
			adapted = 1
		}
		buf.WriteByte(adapted)
	}
	for _, dm := range m.domains {
		if err := writeDomain(dm); err != nil {
			return nil, err
		}
	}
	for _, t := range targets {
		if version == ensembleMagicV3 {
			putUint32(uint32(len(t.name)))
			buf.WriteString(t.name)
			putUint64(uint64(t.folds))
		}
		if err := writeDomain(t.domainModel); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// Encode appends the ensemble — configuration, strategy, every source
// domain's class/domain accumulators and per-class counts, and every ready
// adapted target model — to dst in the versioned format read by ReadFrom,
// and returns it with the snapshot published for exactly that state, whose
// version and rollback checkpoint go with the bytes. The output is
// canonical: saving, loading, and saving again yields byte-identical
// output, and the loaded ensemble predicts and continues adapting exactly
// like the original.
func (m *Ensemble) Encode(dst []byte) ([]byte, *Snapshot, error) {
	// Serialization flushes staged accumulator state, so it is a mutator
	// even though the accumulated values don't change: take the mutator
	// lock. Predictions keep flowing off the published snapshot meanwhile.
	m.mu.Lock()
	defer m.mu.Unlock()
	b, err := m.encodeLocked(dst)
	if err != nil {
		return nil, nil, err
	}
	return b, m.snap.Load(), nil
}

// WriteTo writes the ensemble's canonical serialization (see Encode).
func (m *Ensemble) WriteTo(w io.Writer) (int64, error) {
	b, _, err := m.Encode(nil)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	return int64(n), err
}

// readState parses a serialized ensemble from r (any format written by
// WriteTo) into a detached ensembleState, validating the configuration and
// bounding every allocation by the declared and checked sizes. It touches
// no Ensemble, so callers can run it without holding any lock and swap the
// result in afterwards with installLocked.
func readState(r io.Reader) (*ensembleState, int64, error) {
	cr := &countReader{r: r}
	var magic [4]byte
	if err := cr.read(magic[:]); err != nil {
		return nil, cr.n, fmt.Errorf("model: reading header: %w", err)
	}
	version := string(magic[:])
	if version != ensembleMagic && version != ensembleMagicV2 && version != ensembleMagicV3 {
		return nil, cr.n, fmt.Errorf("model: bad ensemble magic %q (unsupported version?)", magic[:])
	}
	st := &ensembleState{active: -1}
	cfg := &st.cfg
	var u32 [4]byte
	var u64 [8]byte
	readUint32 := func(dst *int) error {
		if err := cr.read(u32[:]); err != nil {
			return err
		}
		*dst = int(binary.LittleEndian.Uint32(u32[:]))
		return nil
	}
	readFloat64 := func(dst *float64) error {
		if err := cr.read(u64[:]); err != nil {
			return err
		}
		*dst = math.Float64frombits(binary.LittleEndian.Uint64(u64[:]))
		return nil
	}
	for _, f := range []func() error{
		func() error { return readUint32(&cfg.Dim) },
		func() error { return readUint32(&cfg.Classes) },
		func() error { return readUint32(&cfg.RetrainEpochs) },
		func() error { return readUint32(&cfg.AdaptEpochs) },
		func() error { return readFloat64(&cfg.Confidence) },
		func() error { return readFloat64(&cfg.AdaptRate) },
		func() error { return readFloat64(&cfg.TopFrac) },
	} {
		if err := f(); err != nil {
			return nil, cr.n, fmt.Errorf("model: reading config: %w", err)
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, cr.n, fmt.Errorf("model: loaded config invalid: %w", err)
	}
	if cfg.Classes > maxClasses {
		return nil, cr.n, fmt.Errorf("model: loaded Classes %d exceeds maximum %d", cfg.Classes, maxClasses)
	}
	if cfg.RetrainEpochs > maxEpochs || cfg.AdaptEpochs > maxEpochs {
		return nil, cr.n, fmt.Errorf("model: loaded epoch counts %d/%d exceed maximum %d",
			cfg.RetrainEpochs, cfg.AdaptEpochs, maxEpochs)
	}

	readName := func(limit int) (string, error) {
		var n int
		if err := readUint32(&n); err != nil {
			return "", err
		}
		if n > limit {
			return "", fmt.Errorf("name length %d exceeds maximum %d", n, limit)
		}
		b := make([]byte, n)
		if err := cr.read(b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	st.strat = DefaultStrategy()
	if version != ensembleMagic {
		var names [3]string
		for i := range names {
			name, err := readName(maxStrategyName)
			if err != nil {
				return nil, cr.n, fmt.Errorf("model: reading strategy: %w", err)
			}
			names[i] = name
		}
		var err error
		if st.strat, err = ParseStrategy(names[0], names[1], names[2]); err != nil {
			return nil, cr.n, fmt.Errorf("model: loaded strategy invalid: %w", err)
		}
	}

	var numDomains int
	if err := readUint32(&numDomains); err != nil {
		return nil, cr.n, fmt.Errorf("model: reading domain count: %w", err)
	}
	if numDomains == 0 {
		// An ensemble without source domains cannot predict or adapt;
		// loading one would boot a server that panics on every query.
		return nil, cr.n, fmt.Errorf("model: serialized ensemble has no source domains")
	}
	if numDomains > maxDomains {
		return nil, cr.n, fmt.Errorf("model: domain count %d exceeds maximum %d", numDomains, maxDomains)
	}
	numTargets := 0
	activeU := noActiveTarget
	if version == ensembleMagicV3 {
		if err := readUint32(&numTargets); err != nil {
			return nil, cr.n, fmt.Errorf("model: reading target count: %w", err)
		}
		if numTargets > maxTargetsLoad {
			return nil, cr.n, fmt.Errorf("model: target count %d exceeds maximum %d", numTargets, maxTargetsLoad)
		}
		var a int
		if err := readUint32(&a); err != nil {
			return nil, cr.n, fmt.Errorf("model: reading active target index: %w", err)
		}
		activeU = a
		if activeU != noActiveTarget && activeU >= numTargets {
			return nil, cr.n, fmt.Errorf("model: active target index %d outside %d targets", activeU, numTargets)
		}
	} else {
		var flag [1]byte
		if err := cr.read(flag[:]); err != nil {
			return nil, cr.n, fmt.Errorf("model: reading adapted flag: %w", err)
		}
		if flag[0] > 1 {
			return nil, cr.n, fmt.Errorf("model: adapted flag %d not 0 or 1", flag[0])
		}
		if flag[0] == 1 {
			numTargets, activeU = 1, 0
		}
	}

	readAcc := func() (*hdc.Accumulator, error) {
		if err := cr.read(u32[:]); err != nil {
			return nil, err
		}
		frameLen := int(binary.LittleEndian.Uint32(u32[:]))
		if want := hdc.MarshaledSize(cfg.Dim); frameLen != want {
			return nil, fmt.Errorf("accumulator frame length %d, want %d for dim %d", frameLen, want, cfg.Dim)
		}
		b := make([]byte, frameLen)
		if err := cr.read(b); err != nil {
			return nil, err
		}
		acc := &hdc.Accumulator{}
		if err := acc.UnmarshalBinary(b); err != nil {
			return nil, err
		}
		return acc, nil
	}
	readDomain := func() (*domainModel, error) {
		if err := cr.read(u32[:]); err != nil {
			return nil, err
		}
		dm := &domainModel{
			id:         int(int32(binary.LittleEndian.Uint32(u32[:]))),
			classAcc:   make([]*hdc.Accumulator, cfg.Classes),
			classCount: make([]int64, cfg.Classes),
		}
		for c := range dm.classCount {
			if err := cr.read(u64[:]); err != nil {
				return nil, err
			}
			n := int64(binary.LittleEndian.Uint64(u64[:]))
			if n < 0 {
				return nil, fmt.Errorf("negative class count %d", n)
			}
			dm.classCount[c] = n
		}
		for c := range dm.classAcc {
			acc, err := readAcc()
			if err != nil {
				return nil, err
			}
			dm.classAcc[c] = acc
		}
		acc, err := readAcc()
		if err != nil {
			return nil, err
		}
		dm.domAcc = acc
		dm.rebuildPrototypes()
		return dm, nil
	}

	st.domains = make([]*domainModel, 0, min(numDomains, 64))
	for i := range numDomains {
		dm, err := readDomain()
		if err != nil {
			return nil, cr.n, fmt.Errorf("model: reading domain %d: %w", i, err)
		}
		st.domains = append(st.domains, dm)
	}
	for i := range numTargets {
		t := &targetModel{name: "t0", folds: 1}
		if version == ensembleMagicV3 {
			name, err := readName(maxTargetName)
			if err != nil {
				return nil, cr.n, fmt.Errorf("model: reading target %d name: %w", i, err)
			}
			if name == "" {
				return nil, cr.n, fmt.Errorf("model: target %d has an empty name", i)
			}
			for _, o := range st.targets {
				if o.name == name {
					return nil, cr.n, fmt.Errorf("model: duplicate target name %q", name)
				}
			}
			if err := cr.read(u64[:]); err != nil {
				return nil, cr.n, fmt.Errorf("model: reading target %d folds: %w", i, err)
			}
			folds := int64(binary.LittleEndian.Uint64(u64[:]))
			if folds < 0 {
				return nil, cr.n, fmt.Errorf("model: target %d has negative fold count", i)
			}
			t.name, t.folds = name, folds
		}
		dm, err := readDomain()
		if err != nil {
			return nil, cr.n, fmt.Errorf("model: reading target %d: %w", i, err)
		}
		t.domainModel = dm
		st.targets = append(st.targets, t)
	}
	if activeU != noActiveTarget {
		st.active = activeU
	}
	return st, cr.n, nil
}

// installLocked swaps a parsed ensembleState in as the ensemble's current
// state, with checkpoint as its rollback checkpoint, and publishes a fresh
// snapshot. The fold clock is rebuilt in target order (persisted order is
// spawn order, the LRU approximation the clock exists for). A loaded state
// passes a nil checkpoint: it is a new baseline, not a transition to undo;
// Rollback passes the checkpoint it restored, which survives it. Callers must
// hold m.mu.
func (m *Ensemble) installLocked(st *ensembleState, checkpoint []byte) {
	m.cfg = st.cfg
	m.domains = st.domains
	m.targets = st.targets
	m.active = st.active
	m.spawnSeq = 0 // auto-naming re-probes for free names on demand
	m.foldClock = int64(len(st.targets))
	for i, t := range m.targets {
		t.lastFold = int64(i + 1)
	}
	m.checkpoint = checkpoint
	m.strategy = st.strat
	m.rebuildDomainMatrix()
	m.publish()
}

// ReadFrom replaces the ensemble's state with one deserialized from r (the
// format written by WriteTo), validating the configuration, bounding every
// allocation by the declared and checked sizes, and rebuilding the binarized
// prototypes. Parsing runs before the mutator lock is taken, so a slow or
// corrupt stream never stalls concurrent folds. It returns the number of
// bytes consumed.
func (m *Ensemble) ReadFrom(r io.Reader) (int64, error) {
	st, n, err := readState(r)
	if err != nil {
		return n, err
	}
	m.mu.Lock()
	m.installLocked(st, nil)
	m.mu.Unlock()
	return n, nil
}

// Decode reads a serialized ensemble (the format written by WriteTo) into a
// fresh Ensemble.
func Decode(r io.Reader) (*Ensemble, error) {
	m := &Ensemble{active: -1}
	if _, err := m.ReadFrom(r); err != nil {
		return nil, err
	}
	return m, nil
}

// countReader tracks how many bytes ReadFrom has consumed, including on
// partial reads.
type countReader struct {
	r io.Reader
	n int64
}

func (cr *countReader) read(p []byte) error {
	n, err := io.ReadFull(cr.r, p)
	cr.n += int64(n)
	return err
}
