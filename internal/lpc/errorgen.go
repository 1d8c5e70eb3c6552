package lpc

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/dsp"
)

// Actor D as a kernel: the sample codecs and the one decode → residual →
// encode body every deployment of error generation runs. The wire form of
// samples is little-endian float64. The codecs append, so an actor that
// fires every frame encodes into and decodes into scratch it sized once,
// and each is one pass over the samples.

// appendFloats appends x to dst, 8 bytes a sample.
func appendFloats(dst []byte, x []float64) []byte {
	base := len(dst)
	dst = slices.Grow(dst, 8*len(x))[:base+8*len(x)]
	out := dst[base:]
	for _, v := range x {
		binary.LittleEndian.PutUint64(out[:8], math.Float64bits(v))
		out = out[8:]
	}
	return dst
}

// appendDecoded appends the samples packed in b to dst.
func appendDecoded(dst []float64, b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return dst, fmt.Errorf("lpc: float payload of %d bytes", len(b))
	}
	base := len(dst)
	dst = slices.Grow(dst, len(b)/8)[:base+len(b)/8]
	out := dst[base:]
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:8]))
		b = b[8:]
	}
	return dst, nil
}

// appendSection appends a PE's input to dst: a u32 count of history
// samples, then the history and the section's own samples.
func appendSection(dst []byte, hist int, samples []float64) []byte {
	return appendFloats(binary.LittleEndian.AppendUint32(dst, uint32(hist)), samples)
}

// splitSection returns a section payload's history count and its packed
// samples, a view into b.
func splitSection(b []byte) (hist int, samples []byte, err error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("lpc: section payload of %d bytes", len(b))
	}
	hist, samples = int(binary.LittleEndian.Uint32(b)), b[4:]
	if hist > len(samples)/8 {
		return 0, nil, fmt.Errorf("lpc: history %d exceeds %d samples", hist, len(samples)/8)
	}
	return hist, samples, nil
}

// errorGen is the body of actor D — decode the predictor coefficients and
// the samples, compute a range of the prediction error, encode it — with
// the scratch one firing needs. Every deployment of the actor runs it: the
// PEs of the hand-built system (residualKernels), the serial pipeline's
// worker and each replica of its fission. An instance belongs to one actor;
// sized for that actor's payloads when it is built, it allocates nothing
// when it fires.
type errorGen struct {
	model   dsp.LPCModel // Coeffs is decode scratch
	samples []float64
	errs    []float64
	out     []byte
}

// newErrorGen cuts, from sc, scratch for order coefficients, nSamples samples
// of input and nErrs error values of output.
func newErrorGen(sc *scratch, order, nSamples, nErrs int) *errorGen {
	return &errorGen{
		model:   dsp.LPCModel{Coeffs: sc.floats(order)},
		samples: sc.floats(nSamples),
		errs:    sc.floats(nErrs),
		out:     sc.bytes(8 * nErrs),
	}
}

// scratch is the buffer memory of one deployment's kernels: a float slab and
// a byte slab the builders cut empty, capacity-bounded buffers from. A nil
// scratch, or one that has run out, allocates each buffer on its own, so
// its size is a budget and never a correctness condition.
//
// Why slabs, and why DistributedResidual recycles them across deployments:
// a kernel set that owns its buffers leaves the heap idle while it runs, so
// the next deployment's scratch comes out of memory the allocator has to
// fetch and clear afresh — 30 µs for the 80 KB of a 2048-sample frame on 4
// PEs, a sixth of a cold one-frame call. Every buffer is written before it is
// read (the codecs append to length zero), so recycled bytes are never seen.
type scratch struct {
	f      []float64
	b      []byte
	nf, nb int // cut so far
}

// scratchFree holds the scratch of finished deployments, a few at most (what
// does not fit is left to the collector). It is a bounded list and not a
// sync.Pool on purpose: deployments are set up seconds apart with several
// collections in between, and a Pool, which empties in two collections and
// keeps an item where only the processor that put it can find it, missed two
// times in five.
var scratchFree = make(chan *scratch, 4)

// getScratch returns a scratch with room for the given floats and bytes.
func getScratch(floats, bytes int) *scratch {
	select {
	case sc := <-scratchFree:
		if len(sc.f) >= floats && len(sc.b) >= bytes {
			return sc
		}
	default:
	}
	return &scratch{f: make([]float64, floats), b: make([]byte, bytes)}
}

// release hands the scratch to the next deployment. Every buffer cut from
// it, and so every kernel built on it, must be out of use.
func (sc *scratch) release() {
	sc.nf, sc.nb = 0, 0
	select {
	case scratchFree <- sc:
	default:
	}
}

func (sc *scratch) floats(n int) []float64 {
	if sc == nil || sc.nf+n > len(sc.f) {
		return make([]float64, 0, n)
	}
	sc.nf += n
	return sc.f[sc.nf-n : sc.nf-n : sc.nf]
}

func (sc *scratch) bytes(n int) []byte {
	if sc == nil || sc.nb+n > len(sc.b) {
		return make([]byte, 0, n)
	}
	sc.nb += n
	return sc.b[sc.nb-n : sc.nb-n : sc.nb]
}

// fire returns the encoded prediction error of samples [start, end), the
// range clamped to the samples there are. The result is valid until the
// next call.
func (e *errorGen) fire(coeffs, samples []byte, start, end int) ([]byte, error) {
	var err error
	if e.model.Coeffs, err = appendDecoded(e.model.Coeffs[:0], coeffs); err != nil {
		return nil, err
	}
	if e.samples, err = appendDecoded(e.samples[:0], samples); err != nil {
		return nil, err
	}
	e.errs = e.model.ResidualInto(e.errs[:0], e.samples, start, end)
	e.out = appendFloats(e.out[:0], e.errs)
	return e.out, nil
}

// fireSection is fire on a section payload: the error of every sample past
// the history it carries.
func (e *errorGen) fireSection(coeffs, section []byte) ([]byte, error) {
	hist, samples, err := splitSection(section)
	if err != nil {
		return nil, err
	}
	return e.fire(coeffs, samples, hist, len(samples)/8)
}
