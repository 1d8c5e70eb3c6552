package huffman

import (
	"container/heap"
	"fmt"
	"sort"
)

// maxCodeLen bounds canonical code lengths; 32 permits any practical
// alphabet while fitting codes in uint32.
const maxCodeLen = 32

// Codebook is a canonical Huffman code over a contiguous symbol alphabet
// [0, len(Lengths)). Symbols with Lengths[s] == 0 have no code (zero
// frequency) and cannot be encoded.
type Codebook struct {
	// Lengths[s] is the code length in bits of symbol s (0 = absent).
	Lengths []uint8
	// codes[s] is the canonical code value of symbol s.
	codes []uint32
}

type hnode struct {
	freq        int64
	symbol      int // -1 for internal
	left, right *hnode
}

type hheap []*hnode

func (h hheap) Len() int { return len(h) }
func (h hheap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].symbol < h[j].symbol // deterministic ties
}
func (h hheap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *hheap) Push(x interface{}) { *h = append(*h, x.(*hnode)) }
func (h *hheap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Build constructs a canonical Huffman codebook from symbol frequencies.
// At least one frequency must be positive. A single-symbol alphabet gets a
// 1-bit code.
func Build(freqs []int64) (*Codebook, error) {
	h := &hheap{}
	for s, f := range freqs {
		if f < 0 {
			return nil, fmt.Errorf("huffman: negative frequency %d for symbol %d", f, s)
		}
		if f > 0 {
			*h = append(*h, &hnode{freq: f, symbol: s})
		}
	}
	if h.Len() == 0 {
		return nil, fmt.Errorf("huffman: no symbols with positive frequency")
	}
	heap.Init(h)
	if h.Len() == 1 {
		only := (*h)[0].symbol
		lengths := make([]uint8, len(freqs))
		lengths[only] = 1
		return fromLengths(lengths)
	}
	for h.Len() > 1 {
		a := heap.Pop(h).(*hnode)
		b := heap.Pop(h).(*hnode)
		heap.Push(h, &hnode{freq: a.freq + b.freq, symbol: -1, left: a, right: b})
	}
	root := heap.Pop(h).(*hnode)
	lengths := make([]uint8, len(freqs))
	var walk func(n *hnode, depth uint8) error
	walk = func(n *hnode, depth uint8) error {
		if n.symbol >= 0 {
			if depth == 0 {
				depth = 1
			}
			if depth > maxCodeLen {
				return fmt.Errorf("huffman: code length %d exceeds %d", depth, maxCodeLen)
			}
			lengths[n.symbol] = depth
			return nil
		}
		if err := walk(n.left, depth+1); err != nil {
			return err
		}
		return walk(n.right, depth+1)
	}
	if err := walk(root, 0); err != nil {
		return nil, err
	}
	return fromLengths(lengths)
}

// fromLengths assigns canonical code values: symbols sorted by (length,
// symbol) receive consecutive codes.
func fromLengths(lengths []uint8) (*Codebook, error) {
	type sl struct {
		sym int
		ln  uint8
	}
	var present []sl
	for s, l := range lengths {
		if l > 0 {
			present = append(present, sl{s, l})
		}
	}
	sort.Slice(present, func(i, j int) bool {
		if present[i].ln != present[j].ln {
			return present[i].ln < present[j].ln
		}
		return present[i].sym < present[j].sym
	})
	codes := make([]uint32, len(lengths))
	var code uint32
	var prevLen uint8
	for _, p := range present {
		code <<= (p.ln - prevLen)
		codes[p.sym] = code
		code++
		prevLen = p.ln
	}
	return &Codebook{Lengths: lengths, codes: codes}, nil
}

// FromLengths rebuilds a codebook from transmitted code lengths — the
// decoder side of canonical Huffman: lengths fully determine the code.
func FromLengths(lengths []uint8) (*Codebook, error) {
	any := false
	for _, l := range lengths {
		if l > maxCodeLen {
			return nil, fmt.Errorf("huffman: length %d exceeds %d", l, maxCodeLen)
		}
		if l > 0 {
			any = true
		}
	}
	if !any {
		return nil, fmt.Errorf("huffman: all lengths zero")
	}
	return fromLengths(lengths)
}

// Encode appends the code for each symbol to the writer. Returns an error
// for symbols outside the alphabet or with no code.
func (c *Codebook) Encode(w *BitWriter, symbols []uint16) error {
	for _, s := range symbols {
		if int(s) >= len(c.Lengths) || c.Lengths[s] == 0 {
			return fmt.Errorf("huffman: symbol %d has no code", s)
		}
		w.WriteBits(c.codes[s], uint(c.Lengths[s]))
	}
	return nil
}

// Decoder decodes symbols against a fixed codebook. Building one
// precomputes the canonical first-code/offset tables, so decoding costs
// O(code length) per symbol with no allocation.
type Decoder struct {
	maxLen uint8
	// firstCode[l] is the canonical code value of the first symbol with
	// length l; count[l] the number of symbols of that length; symIndex[l]
	// the offset of that length's first symbol in syms.
	firstCode [maxCodeLen + 1]uint32
	count     [maxCodeLen + 1]int
	symIndex  [maxCodeLen + 1]int
	syms      []uint16 // symbols sorted by (length, symbol) — canonical order
}

// NewDecoder builds a Decoder for the codebook.
func (c *Codebook) NewDecoder() *Decoder {
	d := &Decoder{}
	for _, l := range c.Lengths {
		if l > 0 {
			d.count[l]++
			if l > d.maxLen {
				d.maxLen = l
			}
		}
	}
	// Canonical first codes per length.
	var code uint32
	idx := 0
	for l := uint8(1); l <= d.maxLen; l++ {
		d.firstCode[l] = code
		d.symIndex[l] = idx
		code = (code + uint32(d.count[l])) << 1
		idx += d.count[l]
	}
	// Symbols in canonical order: by (length, symbol).
	d.syms = make([]uint16, idx)
	fill := d.symIndex
	for s, l := range c.Lengths {
		if l > 0 {
			d.syms[fill[l]] = uint16(s)
			fill[l]++
		}
	}
	return d
}

// DecodeSymbol reads one symbol from the bit reader.
func (d *Decoder) DecodeSymbol(r *BitReader) (uint16, error) {
	var code uint32
	for l := uint8(1); l <= d.maxLen; l++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint32(b)
		if n := d.count[l]; n > 0 {
			if off := code - d.firstCode[l]; off < uint32(n) {
				return d.syms[d.symIndex[l]+int(off)], nil
			}
		}
	}
	return 0, fmt.Errorf("huffman: invalid code in stream")
}

// Decode reads n symbols into a new slice. The requested count is capped
// against the reader's remaining bits (one bit per symbol minimum), so a
// corrupt count cannot force a huge allocation.
func (d *Decoder) Decode(r *BitReader, n int) ([]uint16, error) {
	if n > r.BitsRemaining() {
		return nil, fmt.Errorf("huffman: %d symbols cannot fit %d remaining bits", n, r.BitsRemaining())
	}
	out := make([]uint16, 0, n)
	for len(out) < n {
		s, err := d.DecodeSymbol(r)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Decode reads n symbols from the reader. For repeated decoding against
// the same codebook, build a Decoder once with NewDecoder instead.
func (c *Codebook) Decode(r *BitReader, n int) ([]uint16, error) {
	return c.NewDecoder().Decode(r, n)
}

// Histogram counts symbol frequencies over an alphabet of the given size.
func Histogram(symbols []uint16, alphabet int) []int64 {
	h := make([]int64, alphabet)
	for _, s := range symbols {
		if int(s) < alphabet {
			h[s]++
		}
	}
	return h
}
