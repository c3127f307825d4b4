package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/features"
	"repro/internal/mart"
	"repro/internal/plan"
)

// Estimator slab: the whole estimator — every candidate model's
// compiled tree layout plus the metadata around it — serialized as one
// relocatable binary file the store mmaps at restore. The node slabs in
// the file are byte-identical to their in-memory layout (see
// internal/mart/slab.go), so LoadEstimatorSlab reconstructs Compiled
// views directly over the mapped pages: no tree decode, no recompile,
// restore cost independent of model size, pages shared across
// co-resident processes. It is the only serialized form of an
// estimator: Save writes it, LoadEstimator reads it, and the store
// publishes one per resource. Pointer trees (mart.Model) exist only
// during training.
//
// File layout (little-endian):
//
//	header (24 bytes)
//	  off  0  u32  magic "RESL"
//	  off  4  u16  format version (2)
//	  off  6  u16  reserved (0)
//	  off  8  u32  section count
//	  off 12  u32  reserved (0)
//	  off 16  u64  total file length
//	section table (24 bytes per section)
//	  u32 kind · u32 CRC-32C of the section bytes · u64 offset · u64 length
//	sections, each 8-byte aligned, zero padding between
//	  META    candidate metadata + per-candidate offsets into MARTS
//	  MARTS   mart slabs ("MCS1"), back to back, 8-byte aligned
//
// Files of format 1, written by earlier builds, fail the format check
// and are never decoded.
//
// Integrity is layered: the store manifest carries a SHA-256 of the
// whole file (audit trail; torn writes are already caught by the header
// length), each section carries a CRC-32C verified when the section is
// read, and the mart slab decoder re-validates every structural
// invariant the unchecked batch walks rely on — so even bytes that fake
// all checksums cannot make a walk read out of bounds.
const (
	estSlabMagic      = 0x4C534552 // "RESL"
	estSlabFormat     = 2
	estSlabHeaderSize = 24
	estSlabSectSize   = 24

	sectMeta  = 1
	sectMarts = 2

	// Decode caps: far above anything trained, low enough that a
	// corrupt count cannot drive a huge allocation before it fails.
	maxSlabOps       = 256
	maxSlabCands     = 1024
	maxSlabScales    = 8
	maxSlabInputs    = int(features.NumFeatures)
	maxSlabScaleFeat = int(features.NumFeatures)
)

// ErrSlab wraps every estimator-slab decode failure.
var ErrSlab = errors.New("core: bad estimator slab")

var slabCRC = crc32.MakeTable(crc32.Castagnoli)

// EncodeSlab serializes the estimator into the slab format.
// Deterministic: equal estimators encode to equal bytes, and a
// slab-restored estimator re-encodes to the bytes it was read from.
func (e *Estimator) EncodeSlab() ([]byte, error) {
	var w metaWriter
	w.u32(uint32(e.Resource))
	w.u32(uint32(e.Mode))
	w.f64(e.fallbackMean)
	if b := e.Baseline; b != nil {
		w.u8(1)
		w.u64(uint64(b.N))
		w.f64(b.Mean)
		w.f64(b.P50)
		w.f64(b.P90)
	} else {
		w.u8(0)
	}

	var ops []plan.OpKind
	for _, kind := range plan.Kinds() {
		if _, ok := e.Ops[kind]; ok {
			ops = append(ops, kind)
		}
	}
	var marts []byte
	w.u32(uint32(len(ops)))
	for _, kind := range ops {
		om := e.Ops[kind]
		defaultIdx := -1
		for i, c := range om.Candidates {
			if c == om.Default {
				defaultIdx = i
			}
		}
		if defaultIdx < 0 {
			return nil, fmt.Errorf("core: slab encode %s: default model not among candidates", kind)
		}
		w.u32(uint32(kind))
		w.u64(uint64(om.NSamples))
		w.u32(uint32(defaultIdx))
		w.u32(uint32(len(om.Candidates)))
		for i, c := range om.Candidates {
			comp := c.compiled
			if comp == nil && c.Mart != nil {
				comp = mart.Compile(c.Mart)
			}
			if comp == nil {
				return nil, fmt.Errorf("core: slab encode %s: candidate %d has no compiled model", kind, i)
			}
			w.u32(uint32(len(c.Scales)))
			for _, s := range c.Scales {
				w.u32(uint32(s.Kind))
				w.u32(uint32(s.F1))
				w.u32(uint32(s.F2))
			}
			w.u32(uint32(len(c.Inputs)))
			for j, id := range c.Inputs {
				w.u32(uint32(id))
				w.u32(uint32(c.normalizeBy[j]))
				w.f64(c.Low[j])
				w.f64(c.High[j])
			}
			sf := sortedScaleFeatures(c)
			w.u32(uint32(len(sf)))
			for _, f := range sf {
				w.u32(uint32(f))
				w.f64(c.ScaleLow[f])
				w.f64(c.ScaleHigh[f])
			}
			w.f64(c.YLow)
			w.f64(c.YHigh)
			w.f64(c.TrainErr)
			if c.noNorm {
				w.u8(1)
			} else {
				w.u8(0)
			}
			marts = pad8(marts)
			w.u64(uint64(len(marts)))
			w.u64(uint64(comp.SlabSize()))
			marts = comp.AppendSlab(marts)
		}
	}

	sections := []struct {
		kind uint32
		data []byte
	}{{sectMeta, w.b}, {sectMarts, marts}}
	out := make([]byte, estSlabHeaderSize+estSlabSectSize*len(sections))
	binary.LittleEndian.PutUint32(out[0:], estSlabMagic)
	binary.LittleEndian.PutUint16(out[4:], estSlabFormat)
	binary.LittleEndian.PutUint32(out[8:], uint32(len(sections)))
	for i, s := range sections {
		out = pad8(out)
		off := len(out)
		out = append(out, s.data...)
		ent := estSlabHeaderSize + estSlabSectSize*i
		binary.LittleEndian.PutUint32(out[ent:], s.kind)
		binary.LittleEndian.PutUint32(out[ent+4:], crc32.Checksum(s.data, slabCRC))
		binary.LittleEndian.PutUint64(out[ent+8:], uint64(off))
		binary.LittleEndian.PutUint64(out[ent+16:], uint64(len(s.data)))
	}
	binary.LittleEndian.PutUint64(out[16:], uint64(len(out)))
	return out, nil
}

func pad8(b []byte) []byte {
	for len(b)%8 != 0 {
		b = append(b, 0)
	}
	return b
}

// LoadEstimatorSlab reconstructs an estimator over slab bytes. On a
// little-endian host the compiled node arrays alias data directly —
// zero copy, so data must stay alive and unmodified for the
// estimator's lifetime (the store mmaps the file read-only and keeps
// the mapping for the life of the process).
//
// The decoder never panics on arbitrary bytes: section offsets, CRCs,
// every count and every cross-section reference are validated, and the
// mart slab decoder re-checks the walk invariants underneath.
func LoadEstimatorSlab(data []byte) (*Estimator, error) {
	if len(data) < estSlabHeaderSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrSlab, len(data))
	}
	if m := binary.LittleEndian.Uint32(data[0:]); m != estSlabMagic {
		return nil, fmt.Errorf("%w: magic %#x", ErrSlab, m)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != estSlabFormat {
		return nil, fmt.Errorf("%w: format version %d, want %d", ErrSlab, v, estSlabFormat)
	}
	nSect := int(binary.LittleEndian.Uint32(data[8:]))
	if nSect < 1 || nSect > 16 {
		return nil, fmt.Errorf("%w: %d sections", ErrSlab, nSect)
	}
	if total := binary.LittleEndian.Uint64(data[16:]); total != uint64(len(data)) {
		return nil, fmt.Errorf("%w: header says %d bytes, file has %d", ErrSlab, total, len(data))
	}
	if estSlabHeaderSize+estSlabSectSize*nSect > len(data) {
		return nil, fmt.Errorf("%w: section table overruns file", ErrSlab)
	}
	type sectEntry struct {
		b   []byte
		crc uint32
	}
	sects := map[uint32]sectEntry{}
	for i := 0; i < nSect; i++ {
		ent := estSlabHeaderSize + estSlabSectSize*i
		kind := binary.LittleEndian.Uint32(data[ent:])
		crc := binary.LittleEndian.Uint32(data[ent+4:])
		off := binary.LittleEndian.Uint64(data[ent+8:])
		n := binary.LittleEndian.Uint64(data[ent+16:])
		if off%8 != 0 || off > uint64(len(data)) || n > uint64(len(data))-off {
			return nil, fmt.Errorf("%w: section %d range [%d,+%d) out of file", ErrSlab, kind, off, n)
		}
		sects[kind] = sectEntry{b: data[off : off+n], crc: crc}
	}
	use := func(kind uint32, name string) ([]byte, error) {
		s, ok := sects[kind]
		if !ok {
			return nil, fmt.Errorf("%w: no %s section", ErrSlab, name)
		}
		if got := crc32.Checksum(s.b, slabCRC); got != s.crc {
			return nil, fmt.Errorf("%w: %s CRC %#x, want %#x", ErrSlab, name, got, s.crc)
		}
		return s.b, nil
	}
	meta, err := use(sectMeta, "META")
	if err != nil {
		return nil, err
	}
	marts, err := use(sectMarts, "MARTS")
	if err != nil {
		return nil, err
	}

	r := &metaReader{b: meta}
	e := &Estimator{
		Resource: plan.ResourceKind(r.u32()),
		Mode:     features.Mode(r.u32()),
		Ops:      map[plan.OpKind]*OperatorModels{},
	}
	e.fallbackMean = r.f64()
	if r.u8() == 1 {
		e.Baseline = &ErrorBaseline{N: int(r.u64())}
		e.Baseline.Mean = r.f64()
		e.Baseline.P50 = r.f64()
		e.Baseline.P90 = r.f64()
	}
	nOps := int(r.u32())
	if r.err != nil || nOps > maxSlabOps {
		return nil, fmt.Errorf("%w: bad op count", ErrSlab)
	}
	for oi := 0; oi < nOps; oi++ {
		kind := plan.OpKind(r.u32())
		om := &OperatorModels{Op: kind, Resource: e.Resource, NSamples: int(r.u64())}
		defaultIdx := int(r.u32())
		nCand := int(r.u32())
		if r.err != nil || nCand < 1 || nCand > maxSlabCands {
			return nil, fmt.Errorf("%w: op %d bad candidate count", ErrSlab, kind)
		}
		for ci := 0; ci < nCand; ci++ {
			c := &CombinedModel{
				Op:        kind,
				Resource:  e.Resource,
				ScaleLow:  map[features.ID]float64{},
				ScaleHigh: map[features.ID]float64{},
			}
			nScales := int(r.u32())
			if r.err != nil || nScales > maxSlabScales {
				return nil, fmt.Errorf("%w: op %d cand %d bad scale count", ErrSlab, kind, ci)
			}
			for i := 0; i < nScales; i++ {
				c.Scales = append(c.Scales, ScaleFn{
					Kind: ScaleKind(r.u32()),
					F1:   features.ID(r.u32()),
					F2:   features.ID(r.u32()),
				})
			}
			nInputs := int(r.u32())
			if r.err != nil || nInputs > maxSlabInputs {
				return nil, fmt.Errorf("%w: op %d cand %d bad input count", ErrSlab, kind, ci)
			}
			c.Inputs = make([]features.ID, nInputs)
			c.normalizeBy = make([]features.ID, nInputs)
			c.Low = make([]float64, nInputs)
			c.High = make([]float64, nInputs)
			for i := 0; i < nInputs; i++ {
				c.Inputs[i] = features.ID(r.u32())
				c.normalizeBy[i] = features.ID(int32(r.u32()))
				c.Low[i] = r.f64()
				c.High[i] = r.f64()
			}
			nSF := int(r.u32())
			if r.err != nil || nSF > maxSlabScaleFeat {
				return nil, fmt.Errorf("%w: op %d cand %d bad scale-feature count", ErrSlab, kind, ci)
			}
			for i := 0; i < nSF; i++ {
				f := features.ID(r.u32())
				c.ScaleLow[f] = r.f64()
				c.ScaleHigh[f] = r.f64()
			}
			c.YLow = r.f64()
			c.YHigh = r.f64()
			c.TrainErr = r.f64()
			c.noNorm = r.u8() == 1
			martOff, martLen := r.u64(), r.u64()
			if r.err != nil {
				return nil, fmt.Errorf("%w: op %d cand %d truncated metadata", ErrSlab, kind, ci)
			}
			mb, err := sectSlice(marts, martOff, martLen)
			if err != nil {
				return nil, fmt.Errorf("%w: op %d cand %d MARTS ref: %v", ErrSlab, kind, ci, err)
			}
			if c.compiled, err = mart.CompiledFromSlab(mb); err != nil {
				return nil, fmt.Errorf("core: bad estimator slab: op %d cand %d: %w", kind, ci, err)
			}
			if err := validateSlabCandidate(c); err != nil {
				return nil, fmt.Errorf("%w: op %d cand %d: %v", ErrSlab, kind, ci, err)
			}
			c.scaleFeats = sortedScaleFeatures(c)
			om.Candidates = append(om.Candidates, c)
		}
		if defaultIdx < 0 || defaultIdx >= len(om.Candidates) {
			return nil, fmt.Errorf("%w: op %d default index %d", ErrSlab, kind, defaultIdx)
		}
		om.Default = om.Candidates[defaultIdx]
		e.Ops[kind] = om
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: truncated metadata", ErrSlab)
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("%w: %d trailing metadata bytes", ErrSlab, len(r.b)-r.off)
	}
	return e, nil
}

// validateSlabCandidate checks the invariants prediction relies on but
// decode alone cannot guarantee on adversarial bytes: every feature ID
// is a real features.ID (Vector.Get indexes a fixed-size array), and
// the compiled walks never read past the transformed row the metadata
// sizes. A candidate passing here can serve any vector without
// panicking, whatever the file contained.
func validateSlabCandidate(c *CombinedModel) error {
	validID := func(id features.ID) bool { return id >= 0 && id < features.NumFeatures }
	for _, s := range c.Scales {
		if !validID(s.F1) || !validID(s.F2) {
			return fmt.Errorf("scale feature out of range")
		}
	}
	for i, id := range c.Inputs {
		if !validID(id) {
			return fmt.Errorf("input %d feature %d out of range", i, id)
		}
		if nb := c.normalizeBy[i]; nb != -1 && !validID(nb) {
			return fmt.Errorf("input %d normalize-by %d out of range", i, nb)
		}
	}
	for f := range c.ScaleLow {
		if !validID(f) {
			return fmt.Errorf("scale-range feature %d out of range", f)
		}
	}
	if need := c.compiled.InputsNeeded(); need > len(c.Inputs) {
		return fmt.Errorf("model reads %d inputs, metadata has %d", need, len(c.Inputs))
	}
	return nil
}

// sectSlice bounds-checks a [off, off+n) reference into a section.
func sectSlice(b []byte, off, n uint64) ([]byte, error) {
	if off > uint64(len(b)) || n > uint64(len(b))-off {
		return nil, fmt.Errorf("range [%d,+%d) outside %d-byte section", off, n, len(b))
	}
	return b[off : off+n : off+n], nil
}

// metaWriter/metaReader are the little-endian cursor codecs for the
// META section. The reader never panics: out-of-range reads set err
// and return zeros, and callers check err at each variable-length
// boundary before allocating.
type metaWriter struct{ b []byte }

func (w *metaWriter) u8(v byte) { w.b = append(w.b, v) }
func (w *metaWriter) u32(v uint32) {
	w.b = binary.LittleEndian.AppendUint32(w.b, v)
}
func (w *metaWriter) u64(v uint64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, v)
}
func (w *metaWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

type metaReader struct {
	b   []byte
	off int
	err error
}

func (r *metaReader) take(n int) []byte {
	if r.err != nil || len(r.b)-r.off < n {
		r.err = errors.New("short read")
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *metaReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *metaReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *metaReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *metaReader) f64() float64 { return math.Float64frombits(r.u64()) }
