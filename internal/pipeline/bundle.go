package pipeline

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"go-arxiv/smore/internal/encode"
	"go-arxiv/smore/internal/fault"
	"go-arxiv/smore/internal/model"
)

// Bundle couples the encoder configuration with a trained (and possibly
// adapted) ensemble, so a saved model can be loaded and served without
// re-specifying encoder flags: the item memories are rebuilt
// deterministically from the stored config and seed.
type Bundle struct {
	Encoder encode.Config
	Model   *model.Ensemble
}

// bundleMagic versions the bundle wire format: a 4-byte magic, the encoder
// config (uint32 Dim/Sensors/Levels/NGram, float64 Min/Max, uint64 Seed, all
// little-endian), then the ensemble in model's WriteTo format.
const bundleMagic = "SMB1"

// Encode returns the bundle's canonical bytes together with the model
// snapshot published for exactly the state they hold (see
// model.(*Ensemble).Encode). Like the model's encoding, the output is
// canonical: save→load→save is byte-identical.
func (b *Bundle) Encode() ([]byte, *model.Snapshot, error) {
	if b.Model == nil {
		return nil, nil, fmt.Errorf("pipeline: bundle has no model")
	}
	if b.Encoder.Dim != b.Model.Config().Dim {
		return nil, nil, fmt.Errorf("pipeline: bundle encoder dimension %d does not match model dimension %d",
			b.Encoder.Dim, b.Model.Config().Dim)
	}
	hdr := make([]byte, 44)
	copy(hdr, bundleMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(b.Encoder.Dim))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(b.Encoder.Sensors))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(b.Encoder.Levels))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(b.Encoder.NGram))
	binary.LittleEndian.PutUint64(hdr[20:], math.Float64bits(b.Encoder.Min))
	binary.LittleEndian.PutUint64(hdr[28:], math.Float64bits(b.Encoder.Max))
	binary.LittleEndian.PutUint64(hdr[36:], b.Encoder.Seed)
	return b.Model.Encode(hdr)
}

// WriteTo writes the bundle's canonical bytes (see Encode).
func (b *Bundle) WriteTo(w io.Writer) (int64, error) {
	raw, _, err := b.Encode()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(raw)
	return int64(n), err
}

// ReadBundle parses the format written by WriteTo, validating the encoder
// configuration and its consistency with the embedded model.
func ReadBundle(r io.Reader) (*Bundle, error) {
	var hdr [44]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pipeline: reading bundle header: %w", err)
	}
	if string(hdr[:4]) != bundleMagic {
		return nil, fmt.Errorf("pipeline: bad bundle magic %q (unsupported version?)", hdr[:4])
	}
	cfg := encode.Config{
		Dim:     int(binary.LittleEndian.Uint32(hdr[4:])),
		Sensors: int(binary.LittleEndian.Uint32(hdr[8:])),
		Levels:  int(binary.LittleEndian.Uint32(hdr[12:])),
		NGram:   int(binary.LittleEndian.Uint32(hdr[16:])),
		Min:     math.Float64frombits(binary.LittleEndian.Uint64(hdr[20:])),
		Max:     math.Float64frombits(binary.LittleEndian.Uint64(hdr[28:])),
		Seed:    binary.LittleEndian.Uint64(hdr[36:]),
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: loaded encoder config invalid: %w", err)
	}
	mdl, err := model.Decode(r)
	if err != nil {
		return nil, err
	}
	if mdl.Config().Dim != cfg.Dim {
		return nil, fmt.Errorf("pipeline: bundle encoder dimension %d does not match model dimension %d",
			cfg.Dim, mdl.Config().Dim)
	}
	return &Bundle{Encoder: cfg, Model: mdl}, nil
}

// SaveFile writes the bundle's canonical bytes to path with WriteFileAtomic,
// so a failed save can never destroy a previously good bundle.
func (b *Bundle) SaveFile(path string) error {
	raw, _, err := b.Encode()
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, raw)
}

// WriteFileAtomic lands data under path crash-safely: temp file in the same
// directory, full write, fsync, atomic rename, directory fsync, so path holds
// either its old bytes or all of data. The persist.* fault points hook each
// step so chaos tests can exercise every failure mode (including a torn
// write the kernel claimed succeeded).
func WriteFileAtomic(path string, data []byte) error {
	if err := fault.Maybe("persist.write"); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	// Dir of a bare filename is ".", never "": CreateTemp("") would stage the
	// file in the system temp dir, often another filesystem, where the final
	// rename cannot work.
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := fault.Writer("persist.torn", f).Write(data); err != nil {
		return cleanup(err)
	}
	if err := fault.Maybe("persist.sync"); err != nil {
		return cleanup(fmt.Errorf("syncing %s: %w", tmp, err))
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Chmod(tmp, 0o644); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := fault.Maybe("persist.rename"); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("renaming %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Make the rename itself durable. Best-effort: some filesystems reject
	// directory fsync, and the data file is already synced.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// LoadBundleFile reads a bundle previously written with SaveFile. The file
// must contain exactly one bundle: trailing bytes mean corruption (partial
// overwrite, concatenation) and fail the load rather than silently serving
// whatever prefix parsed.
func LoadBundleFile(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	b, err := ReadBundle(r)
	if err != nil {
		return nil, err
	}
	if _, err := r.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("pipeline: %s: trailing bytes after bundle payload", path)
	}
	return b, nil
}
